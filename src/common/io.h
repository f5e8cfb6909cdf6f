// File I/O primitives, durable and not.
//
// Long sweep runs write results and checkpoint journals that must never be
// observable in a torn state: a crash between open() and the final write
// would otherwise leave a file that parses but lies. atomic_write_file
// follows the standard tmp + fsync + rename protocol (rename(2) within one
// directory is atomic on POSIX), so readers see either the old contents or
// the complete new contents, never a prefix, and the new contents survive
// power loss. replace_file is the same rename without the fsyncs, for
// state that only coordinates live processes (fabric lease renewals,
// advisory progress reports): readers still never see a torn file, but
// after power loss the old contents, or none, may be what survives.
//
// Every fsync in qfab goes through fsync_fd, so fsync_count() is the exact
// number of fsyncs a code path paid for; tests pin the fabric's budget with
// it. crc32 is the frame checksum used by the sweep journal (exp/journal.h)
// and its inspection tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace qfab {

/// Write all `size` bytes to `fd`, retrying short writes and EINTR. False
/// (errno set) on failure.
bool write_all(int fd, const char* data, std::size_t size);

/// fsync(2) `fd` and count it. False (errno set) on failure.
bool fsync_fd(int fd);

/// Process-wide count of fsync_fd calls, file and directory fsyncs alike
/// (a forked child starts from its parent's count). Deterministic for a
/// given code path, so tests assert exact budgets with it; tests reset it.
long fsync_count();
void reset_fsync_count();

/// Durably replace `path` with `content`: write to a temp file in the same
/// directory, fsync it, rename over `path`, then fsync the directory so the
/// rename itself is persistent. Throws CheckError on any I/O failure (the
/// temp file is removed on error).
void atomic_write_file(const std::string& path, const std::string& content);

/// Atomically replace `path` with `content` (temp file + rename, as above)
/// without any fsync. Concurrent readers see the old or the new contents,
/// never a prefix; power loss may keep either, or neither for a new file.
/// Only for state nothing reads back as truth after a restart. Throws
/// CheckError on I/O failure.
void replace_file(const std::string& path, const std::string& content);

/// Create `path` with O_CREAT|O_EXCL and write `content` into it, without
/// fsync. False when `path` already exists; throws CheckError on any other
/// failure (a partly written file is removed). The fabric's lease claims
/// and done markers.
bool create_file_exclusive(const std::string& path,
                           const std::string& content);

/// fsync the directory containing `path`, so a file just created or renamed
/// there survives power loss. Throws CheckError on real failures; tolerates
/// filesystems that cannot fsync directories (EINVAL/ENOTSUP) and
/// directories that grant create-but-not-read permission (EACCES). Used
/// once per freshly created journal (exp/journal.h), whose records are
/// appended in place and so never pass through atomic_write_file.
void fsync_parent_dir(const std::string& path);

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention). `seed` chains
/// incremental computations: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace qfab
