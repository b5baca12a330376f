#ifndef XFRAUD_COMMON_BYTES_H_
#define XFRAUD_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xfraud/common/check.h"

namespace xfraud {

/// The one byte codec: every durable file, WAL record, FeatureStore row and
/// wire payload is written by a ByteWriter and read back by a ByteReader.
/// Values are fixed-width and unpadded; floats travel as their IEEE-754 bit
/// patterns, so a round trip is bit-exact. Encoding is a memcpy of the host
/// representation, so the formats are little-endian and so must the host be.
static_assert(std::endian::native == std::endian::little,
              "xfraud's byte formats are little-endian");

/// Appends to a std::string. Every method returns *this, so a record
/// encodes as one chain: `w.U32(kVersion).U64(seed).Str(name)`.
class ByteWriter {
 public:
  /// Writes into a buffer the writer owns; take it with Release().
  ByteWriter() : out_(&own_) {}
  /// Appends to `*out` (not owned), after whatever it already holds.
  explicit ByteWriter(std::string* out) : out_(out) {}
  ByteWriter(const ByteWriter&) = delete;  // out_ may point at own_
  ByteWriter& operator=(const ByteWriter&) = delete;

  ByteWriter& U8(uint8_t v) { return Pod(v); }
  ByteWriter& I8(int8_t v) { return Pod(v); }
  ByteWriter& U16(uint16_t v) { return Pod(v); }
  ByteWriter& U32(uint32_t v) { return Pod(v); }
  ByteWriter& I32(int32_t v) { return Pod(v); }
  ByteWriter& U64(uint64_t v) { return Pod(v); }
  ByteWriter& I64(int64_t v) { return Pod(v); }
  ByteWriter& F32(float v) { return Pod(v); }
  ByteWriter& F64(double v) { return Pod(v); }

  /// Raw bytes, no length prefix.
  ByteWriter& Bytes(std::string_view b) { return Append(b.data(), b.size()); }
  ByteWriter& Magic(const char (&magic)[4]) { return Append(magic, 4); }
  /// u32 length, then the bytes.
  ByteWriter& Str(std::string_view s) {
    return U32(static_cast<uint32_t>(s.size())).Bytes(s);
  }
  /// `n` elements back to back; the format states the count elsewhere.
  /// Enums travel as their underlying type.
  template <typename T>
  ByteWriter& Array(const T* data, size_t n) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    return Append(data, n * sizeof(T));
  }
  template <typename T>
  ByteWriter& Array(const std::vector<T>& v) {
    return Array(v.data(), v.size());
  }

  /// Overwrites four bytes already written at `at` — for a checksum that
  /// sits in front of the bytes it covers.
  ByteWriter& PatchU32(size_t at, uint32_t v) {
    XF_CHECK_LE(at + sizeof(v), out_->size());
    std::memcpy(out_->data() + at, &v, sizeof(v));
    return *this;
  }

  /// The encoded bytes; the writer is empty afterwards.
  std::string Release() {
    std::string out = std::move(*out_);
    out_->clear();
    return out;
  }

 private:
  template <typename T>
  ByteWriter& Pod(T v) {
    static_assert(std::is_arithmetic_v<T>);
    return Append(&v, sizeof(T));
  }
  ByteWriter& Append(const void* p, size_t n) {
    if (n > 0) out_->append(static_cast<const char*>(p), n);
    return *this;
  }

  std::string own_;
  std::string* out_;
};

/// Reads a byte span it does not own. Failure is sticky: a read past the
/// end returns 0 (or empty), consumes nothing, and leaves ok() false for
/// good, so a decoder reads a whole record and checks ok() once.
///
/// A CRC proves the bytes are the ones written, not that the writer was
/// honest, so a length read from the bytes must never size an allocation
/// unchecked. ReadCount is the one way to read such a length; Array and
/// Str check theirs against remaining() before allocating.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}
  ByteReader(const void* data, size_t n)
      : data_(static_cast<const char*>(data), n) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t U8() { return Pod<uint8_t>(); }
  int8_t I8() { return Pod<int8_t>(); }
  uint16_t U16() { return Pod<uint16_t>(); }
  uint32_t U32() { return Pod<uint32_t>(); }
  int32_t I32() { return Pod<int32_t>(); }
  uint64_t U64() { return Pod<uint64_t>(); }
  int64_t I64() { return Pod<int64_t>(); }
  float F32() { return Pod<float>(); }
  double F64() { return Pod<double>(); }

  /// Reads a u64 count (an i64 count has the same bytes; a negative one is
  /// huge here) and fails, returning 0, unless `count` elements of
  /// `elem_bytes` each fit in what is left. Divides rather than multiplies,
  /// so a hostile count cannot overflow the check.
  uint64_t ReadCount(size_t elem_bytes) {
    const uint64_t count = U64();
    if (elem_bytes > 0 && count <= remaining() / elem_bytes) return count;
    Fail();
    return 0;
  }

  /// True iff the next four bytes are `magic`; fails the reader otherwise.
  bool Magic(const char (&magic)[4]) {
    return Bytes(4) == std::string_view(magic, 4) || Fail();
  }

  /// `n` raw bytes, viewed in place.
  std::string_view Bytes(size_t n) {
    return Take(n) ? data_.substr(pos_ - n, n) : std::string_view();
  }

  /// A u32-length-prefixed string (ByteWriter::Str).
  std::string Str() { return std::string(Bytes(U32())); }

  /// Reads `count` elements into `*out`, replacing its contents. Fails,
  /// leaving `*out` untouched, unless count × sizeof(T) bytes remain. An
  /// enum element may hold any value of its underlying type: validate it.
  template <typename T>
  bool Array(uint64_t count, std::vector<T>* out) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    if (count > remaining() / sizeof(T)) return Fail();
    const std::string_view bytes = Bytes(count * sizeof(T));
    if (!ok_) return false;
    out->resize(static_cast<size_t>(count));
    if (count > 0) std::memcpy(out->data(), bytes.data(), bytes.size());
    return true;
  }

 private:
  /// Consumes `n` bytes if they are there and the reader is healthy.
  bool Take(size_t n) {
    if (!ok_ || n > remaining()) return Fail();
    pos_ += n;
    return true;
  }

  bool Fail() {
    ok_ = false;
    return false;
  }

  template <typename T>
  T Pod() {
    T v{};
    if (Take(sizeof(T))) {
      std::memcpy(&v, data_.data() + pos_ - sizeof(T), sizeof(T));
    }
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace xfraud

#endif  // XFRAUD_COMMON_BYTES_H_
