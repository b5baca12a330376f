#ifndef XFRAUD_COMMON_ATOMIC_FILE_H_
#define XFRAUD_COMMON_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "xfraud/common/status.h"

namespace xfraud {

/// Durable-write helpers. Every durable file the library produces (model
/// checkpoints, graph snapshots, trainer checkpoints, metrics dumps) goes
/// through here — writing `path + ".tmp"`, fsyncing, then renaming over the
/// target — so a crash at any instant leaves either the old file or the new
/// one, never a torn hybrid. xfraud_lint's `no-direct-write` rule bans
/// direct std::ofstream/::open writes elsewhere in src/xfraud to keep it
/// that way.

/// Atomically replaces `path` with `contents` (tmp file + fsync + rename).
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// Like AtomicWriteFile, but appends an 8-byte footer
/// {crc32(contents): u32, "XFCR": 4 bytes} so readers can detect torn or
/// bit-flipped files without a format-specific checksum.
Status AtomicWriteFileWithCrc(const std::string& path,
                              std::string_view contents);

/// Reads a whole file. NotFound if it does not exist, IoError otherwise.
Result<std::string> ReadFileToString(const std::string& path);

/// Reads a file written by AtomicWriteFileWithCrc, verifies and strips the
/// CRC footer. A missing/corrupt footer or CRC mismatch (torn write, bit
/// flip, truncation) returns Status::Corruption.
Result<std::string> ReadFileVerifyCrc(const std::string& path);

/// Creates a fresh, uniquely named directory `<system temp dir>/<prefix>`
/// plus six random characters (mkdtemp) and returns its path. The caller
/// owns it and removes it when done.
Result<std::string> MakeTempDir(const std::string& prefix);

}  // namespace xfraud

#endif  // XFRAUD_COMMON_ATOMIC_FILE_H_
