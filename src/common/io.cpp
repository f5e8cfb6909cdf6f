#include "common/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace qfab {

namespace {

std::atomic<long> g_fsyncs{0};

/// Directory part of `path` ("." when there is none).
std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsync the directory containing a just-renamed file so the rename itself
/// survives power loss. A failed directory fsync means the rename may
/// silently vanish, so real failures (EIO and friends) surface as
/// CheckError with the errno instead of being swallowed. Two cases are
/// tolerated because they mean "cannot be done here", not "was lost":
/// filesystems that refuse directory fsync report EINVAL/ENOTSUP (POSIX
/// allows this), and a directory that grants create-but-not-read permission
/// cannot be opened O_RDONLY at all (EACCES).
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    QFAB_CHECK_MSG(errno == EACCES, "cannot open directory "
                                        << dir << " for fsync: "
                                        << std::strerror(errno));
    return;
  }
  const bool ok = fsync_fd(fd);
  const int err = errno;
  (void)::close(fd);
  if (!ok) {
    QFAB_CHECK_MSG(err == EINVAL || err == ENOTSUP,
                   "fsync of directory " << dir << " failed: "
                                         << std::strerror(err));
  }
}

/// Write `content` to a temp file next to `path` and rename it over `path`;
/// `durable` adds the file and directory fsyncs.
void write_and_rename(const std::string& path, const std::string& content,
                      bool durable) {
  // The temp file must live in the target directory: rename(2) is only
  // atomic within one filesystem. The pid suffix keeps concurrent writers
  // of different files from colliding; concurrent writers of the *same*
  // path last-write-win, which is the same guarantee rename gives anyway.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  QFAB_CHECK_MSG(fd >= 0, "cannot open " << tmp << " for writing: "
                                         << std::strerror(errno));
  bool ok = write_all(fd, content.data(), content.size());
  if (ok && durable && !fsync_fd(fd)) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    const int err = errno;
    (void)::unlink(tmp.c_str());
    QFAB_CHECK_MSG(false, "short write to " << tmp << ": "
                                            << std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    (void)::unlink(tmp.c_str());
    QFAB_CHECK_MSG(false, "cannot rename " << tmp << " over " << path << ": "
                                           << std::strerror(err));
  }
  if (durable) fsync_dir(dir_of(path));
}

}  // namespace

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_fd(int fd) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return ::fsync(fd) == 0;
}

long fsync_count() { return g_fsyncs.load(std::memory_order_relaxed); }

void reset_fsync_count() { g_fsyncs.store(0, std::memory_order_relaxed); }

void fsync_parent_dir(const std::string& path) { fsync_dir(dir_of(path)); }

void atomic_write_file(const std::string& path, const std::string& content) {
  write_and_rename(path, content, /*durable=*/true);
}

void replace_file(const std::string& path, const std::string& content) {
  write_and_rename(path, content, /*durable=*/false);
}

bool create_file_exclusive(const std::string& path,
                           const std::string& content) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    QFAB_CHECK_MSG(errno == EEXIST, "cannot create " << path << ": "
                                                     << std::strerror(errno));
    return false;
  }
  bool ok = write_all(fd, content.data(), content.size());
  if (::close(fd) != 0) ok = false;
  if (!ok) {
    const int err = errno;
    (void)::unlink(path.c_str());
    QFAB_CHECK_MSG(false, "cannot write " << path << ": "
                                          << std::strerror(err));
  }
  return true;
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace qfab
