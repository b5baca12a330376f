#include "xfraud/common/atomic_file.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"

namespace xfraud {

namespace {

constexpr char kCrcMagic[4] = {'X', 'F', 'C', 'R'};
constexpr size_t kFooterSize = 8;  // u32 crc + 4-byte magic

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed on " + path + ": " +
                             std::string(::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + ": " +
                           std::string(::strerror(errno)));
  }
  Status s = WriteAll(fd, contents.data(), contents.size(), tmp);
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::IoError("fsync failed on " + tmp);
  }
  if (::close(fd) != 0 && s.ok()) {
    s = Status::IoError("close failed on " + tmp);
  }
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           std::string(::strerror(errno)));
  }
  return Status::OK();
}

Status AtomicWriteFileWithCrc(const std::string& path,
                              std::string_view contents) {
  std::string framed;
  framed.reserve(contents.size() + kFooterSize);
  ByteWriter(&framed)
      .Bytes(contents)
      .U32(Crc32(contents.data(), contents.size()))
      .Magic(kCrcMagic);
  return AtomicWriteFile(path, framed);
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError("cannot open " + path + ": " +
                           std::string(::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat failed on " + path);
  }
  std::string out;
  out.resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("read failed on " + path);
    }
    if (n == 0) break;  // racing truncation; surface the short size
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(done);
  return out;
}

Result<std::string> ReadFileVerifyCrc(const std::string& path) {
  Result<std::string> raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  std::string data = std::move(raw).value();
  if (data.size() < kFooterSize) {
    return Status::Corruption("file too short for CRC footer: " + path);
  }
  ByteReader footer(std::string_view(data).substr(data.size() - kFooterSize));
  const uint32_t stored = footer.U32();
  if (!footer.Magic(kCrcMagic)) {
    return Status::Corruption("missing CRC footer magic in " + path);
  }
  data.resize(data.size() - kFooterSize);
  uint32_t actual = Crc32(data.data(), data.size());
  if (actual != stored) {
    return Status::Corruption("CRC mismatch in " + path);
  }
  return data;
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  std::string path =
      (std::filesystem::temp_directory_path() / (prefix + "XXXXXX")).string();
  if (::mkdtemp(path.data()) == nullptr) {
    return Status::IoError("cannot create temp dir " + path + ": " +
                           std::string(::strerror(errno)));
  }
  return path;
}

}  // namespace xfraud
