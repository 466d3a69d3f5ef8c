#ifndef LAFP_IO_FINGERPRINT_H_
#define LAFP_IO_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace lafp::io {

/// Identity of an input file as seen by the cross-query result cache:
/// path, size, mtime, and a hash of a content sample (head + tail bytes).
/// Any in-place edit that changes size, timestamp, or sampled bytes yields
/// a different fingerprint, which is what invalidates cached plan results
/// built from the file. The sample keeps fingerprinting O(1) in file size;
/// mtime catches same-size middle-of-file edits the sample could miss.
struct FileFingerprint {
  uint64_t hash = 0;       // combined digest (path + size + mtime + sample)
  int64_t size_bytes = 0;
  int64_t mtime_ns = 0;
};

/// Fingerprint `path`, sampling up to `sample_bytes` from each end of the
/// file. Fails with IOError when the file does not exist or cannot be
/// read — callers treat that as "not cacheable", not as a program error.
Result<FileFingerprint> FingerprintFile(const std::string& path,
                                        size_t sample_bytes = 4096);

/// Fingerprint an LFC columnar file: path + size + mtime + the stored
/// footer checksum read from the fixed-size trailer (stat + 24 tail
/// bytes — no content sampling needed, the writer already checksummed
/// the footer, which covers schema, chunk layout, and zone maps).
/// IOError when the file is missing or its trailer is not LFC-shaped.
Result<FileFingerprint> FingerprintLfcFile(const std::string& path);

/// Dispatching fingerprint for result-cache input keys: routes LFC files
/// (by magic sniff) to FingerprintLfcFile and everything else to
/// FingerprintFile.
Result<FileFingerprint> FingerprintInputFile(const std::string& path);

}  // namespace lafp::io

#endif  // LAFP_IO_FINGERPRINT_H_
