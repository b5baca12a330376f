#ifndef XFRAUD_COMMON_PARSE_NUMBER_H_
#define XFRAUD_COMMON_PARSE_NUMBER_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

#include "xfraud/common/status.h"

namespace xfraud {

/// Full-string number parsing for external text (CLI flags, TSV logs, fault
/// plans). The whole of `text` must be one number of type T: an empty
/// string, a leading '+' or space, any trailing character and a value out
/// of T's range are InvalidArgument, where std::sto* would take a prefix or
/// throw. Integers are base 10. A float is rounded once, to nearest, as
/// strtof rounds; a double parse narrowed to float can round twice.
template <typename T>
Result<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    return Status::InvalidArgument("not a number: '" + std::string(text) +
                                   "'");
  }
  return value;
}

}  // namespace xfraud

#endif  // XFRAUD_COMMON_PARSE_NUMBER_H_
