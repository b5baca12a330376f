// Fixture: the std::sto* family throws on junk and takes a valid prefix
// ("12abc" is 12); the ato* family returns 0 on junk. Both must trip
// no-sto-ato under src/ and tools/.
#include <cstdlib>
#include <string>

int BadParse(const std::string& text, const char* raw) {
  int a = std::stoi(text);
  long b = std::stol(text);
  double c = std::stod (text);
  int d = atoi(raw);
  double e = std::atof(raw);
  float (*parse)(const std::string&, size_t*) = std::stof;
  return a + static_cast<int>(b + c + e) + d + (parse != nullptr);
}
