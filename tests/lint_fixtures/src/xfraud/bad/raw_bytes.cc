// Fixture: viewing an object as a char pointer outside common/bytes.* must
// trip no-raw-bytes — it is how a private, unchecked byte codec starts.
#include <cstdint>
#include <string>

void BadRawBytes(std::string* out, uint32_t v, const char* in) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  uint32_t back = 0;
  auto* dst = reinterpret_cast<unsigned char*>(&back);
  dst[0] = static_cast<unsigned char>(in[0]);
  out->append(reinterpret_cast<
              const char *>(&back), 1);
}
