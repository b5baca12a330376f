#ifndef XFRAUD_COMMON_CHECK_H_
#define XFRAUD_COMMON_CHECK_H_

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace xfraud {

/// Thrown when an XF_CHECK* contract is violated. Carries the failing
/// condition text, file:line, and whatever the call site streamed into the
/// macro. Contract violations are programming errors, not recoverable I/O
/// conditions — recoverable failures return Status instead. An uncaught
/// CheckError terminates the process with the message via std::terminate,
/// so CLI behaviour matches the old abort()-based macros; tests can catch it
/// instead of forking a death test (which sanitizer builds cannot do
/// reliably).
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace internal {

/// Accumulates the failure message for one violated check. Only constructed
/// on the failure path, so the macros cost a branch when the contract holds.
class CheckMessage {
 public:
  CheckMessage(const char* file, int line, const char* condition);

  template <typename T>
  CheckMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

/// Terminal of the check macros: `Thrower{} & message` throws. Using `&`
/// (lower precedence than `<<`) lets call sites stream context first.
struct CheckFailThrower {
  [[noreturn]] void operator&(const CheckMessage& m) const;
};

/// Sign-safe `0 <= index < bound` that never trips -Wtype-limits when the
/// index type is unsigned.
template <typename I, typename N>
constexpr bool IndexInBounds(I index, N bound) {
  if constexpr (std::is_signed_v<I>) {
    if (index < 0) return false;
  }
  if constexpr (std::is_signed_v<N>) {
    if (bound < 0) return false;
  }
  return static_cast<uint64_t>(index) < static_cast<uint64_t>(bound);
}

}  // namespace internal
}  // namespace xfraud

/// Throws CheckError with file:line and the streamed message when
/// `condition` is false. Always on, in every build type: use at API
/// boundaries (public entry points, deserialized input, cross-subsystem
/// hand-offs) where the cost is one branch per call, not per element.
/// Internal per-element invariants belong in XF_DCHECK.
///
/// The macro arguments must be side-effect free: the *_EQ/BOUNDS/SHAPE
/// forms re-evaluate them to build the failure message.
#define XF_CHECK(condition)                                               \
  if (condition) {                                                        \
  } else /* NOLINT(readability-braces-around-statements) */               \
    ::xfraud::internal::CheckFailThrower{} &                              \
        ::xfraud::internal::CheckMessage(__FILE__, __LINE__, #condition)

#define XF_CHECK_EQ(a, b) XF_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define XF_CHECK_NE(a, b) XF_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
#define XF_CHECK_LT(a, b) XF_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define XF_CHECK_LE(a, b) XF_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define XF_CHECK_GT(a, b) XF_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define XF_CHECK_GE(a, b) XF_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "

/// Bounds contract: 0 <= index < bound, sign-safe for mixed signedness.
#define XF_CHECK_BOUNDS(index, bound)                                     \
  XF_CHECK(::xfraud::internal::IndexInBounds((index), (bound)))           \
      << " (index " << (index) << " vs bound " << (bound) << ") "

/// Shape-agreement contract for anything exposing rows()/cols()
/// (nn::Tensor, la::Matrix).
#define XF_CHECK_SHAPE(a, b)                                              \
  XF_CHECK((a).rows() == (b).rows() && (a).cols() == (b).cols())          \
      << " (" << (a).rows() << "x" << (a).cols() << " vs " << (b).rows()  \
      << "x" << (b).cols() << ") "

/// Debug-only variants: identical to XF_CHECK* without NDEBUG; under NDEBUG
/// they compile to a never-entered loop, so the condition still type-checks
/// but is not evaluated and the optimizer removes the whole statement.
/// Use on hot per-element paths (tensor indexing, queue internals).
#ifdef NDEBUG
#define XF_DCHECK(condition) while (false) XF_CHECK(condition)
#define XF_DCHECK_EQ(a, b) while (false) XF_CHECK_EQ(a, b)
#define XF_DCHECK_NE(a, b) while (false) XF_CHECK_NE(a, b)
#define XF_DCHECK_LT(a, b) while (false) XF_CHECK_LT(a, b)
#define XF_DCHECK_LE(a, b) while (false) XF_CHECK_LE(a, b)
#define XF_DCHECK_GT(a, b) while (false) XF_CHECK_GT(a, b)
#define XF_DCHECK_GE(a, b) while (false) XF_CHECK_GE(a, b)
#define XF_DCHECK_BOUNDS(index, bound) while (false) XF_CHECK_BOUNDS(index, bound)
#define XF_DCHECK_SHAPE(a, b) while (false) XF_CHECK_SHAPE(a, b)
#else
#define XF_DCHECK(condition) XF_CHECK(condition)
#define XF_DCHECK_EQ(a, b) XF_CHECK_EQ(a, b)
#define XF_DCHECK_NE(a, b) XF_CHECK_NE(a, b)
#define XF_DCHECK_LT(a, b) XF_CHECK_LT(a, b)
#define XF_DCHECK_LE(a, b) XF_CHECK_LE(a, b)
#define XF_DCHECK_GT(a, b) XF_CHECK_GT(a, b)
#define XF_DCHECK_GE(a, b) XF_CHECK_GE(a, b)
#define XF_DCHECK_BOUNDS(index, bound) XF_CHECK_BOUNDS(index, bound)
#define XF_DCHECK_SHAPE(a, b) XF_CHECK_SHAPE(a, b)
#endif

#endif  // XFRAUD_COMMON_CHECK_H_
