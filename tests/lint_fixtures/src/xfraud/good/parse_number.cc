// Fixture: numbers parsed with std::from_chars (what ParseNumber<T> wraps),
// std::stoi or atoi(...) named only in comments and strings, and
// identifiers that merely contain those names all pass no-sto-ato.
#include <charconv>
#include <string>

int stoichiometry(int x) { return x; }
int restore_atoi_count = 0;

bool GoodParse(const std::string& text, int* out) {
  const char* hint = "use ParseNumber, not std::stoi or atoi()";
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end &&
         hint != nullptr && stoichiometry(restore_atoi_count) == 0;
}
