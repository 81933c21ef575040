// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "common/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace graphscape {
namespace {

Status ErrnoStatus(const char* op, const std::string& path, int err) {
  const std::string message =
      StrPrintf("fs: %s %s: %s", op, path.c_str(), std::strerror(err));
  return err == ENOENT ? Status::NotFound(message)
                       : Status::Unavailable(message);
}

// open(2) with EINTR retry.
int OpenRetry(const char* path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

Status CloseChecked(int fd, const std::string& path) {
  // POSIX leaves the fd state unspecified after EINTR from close; on
  // Linux the fd is closed either way, so a retry could close a
  // stranger's fd. Call once, report everything but EINTR.
  if (::close(fd) != 0 && errno != EINTR) {
    return ErrnoStatus("close", path, errno);
  }
  return Status::Ok();
}

Status FsyncFd(int fd, const std::string& path) {
  if (failpoint::Fire("fs/fsync")) {
    return failpoint::InjectedFault("fs/fsync");
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return ErrnoStatus("fsync", path, errno);
  return Status::Ok();
}

}  // namespace

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  if (failpoint::Fire("fs/open_read")) {
    return failpoint::InjectedFault("fs/open_read");
  }
  const int fd = OpenRetry(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path, errno);
  // Size the buffer once from fstat, one byte past the end so the read
  // that sees EOF needs no growth; a file that grew meanwhile is still
  // read to EOF, growing the buffer geometrically.
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    (void)CloseChecked(fd, path);
    return ErrnoStatus("fstat", path, err);
  }
  std::string bytes(
      S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size) + 1 : 1 << 16,
      '\0');
  size_t size = 0;
  for (;;) {
    if (size == bytes.size()) bytes.resize(2 * bytes.size());
    if (failpoint::Fire("fs/read")) {
      (void)CloseChecked(fd, path);
      return failpoint::InjectedFault("fs/read");
    }
    const ssize_t got = ::read(fd, &bytes[size], bytes.size() - size);
    if (got < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      (void)CloseChecked(fd, path);
      return ErrnoStatus("read", path, err);
    }
    if (got == 0) break;
    size += static_cast<size_t>(got);
  }
  bytes.resize(size);
  const Status closed = CloseChecked(fd, path);
  if (!closed.ok()) return closed;
  // Corruption-injection seam: flip one bit mid-payload so checksum
  // verification downstream sees a read that "succeeded" with bad bytes
  // (what a failing disk or DMA error actually produces).
  if (failpoint::Fire("fs/read_corrupt") && !bytes.empty()) {
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path, const std::string& bytes,
                      bool sync) {
  if (failpoint::Fire("fs/open_write")) {
    return failpoint::InjectedFault("fs/open_write");
  }
  const int fd =
      OpenRetry(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", path, errno);
  size_t written = 0;
  while (written < bytes.size()) {
    if (failpoint::Fire("fs/write")) {
      (void)CloseChecked(fd, path);
      return failpoint::InjectedFault("fs/write");
    }
    size_t chunk = bytes.size() - written;
    // fs/short_write models a partial write(2) return; the loop must
    // absorb it and still land every byte.
    if (failpoint::Fire("fs/short_write") && chunk > 1) chunk /= 2;
    const ssize_t put = ::write(fd, bytes.data() + written, chunk);
    if (put < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      (void)CloseChecked(fd, path);
      return ErrnoStatus("write", path, err);
    }
    written += static_cast<size_t>(put);
  }
  if (sync) {
    const Status synced = FsyncFd(fd, path);
    if (!synced.ok()) {
      (void)CloseChecked(fd, path);
      return synced;
    }
  }
  return CloseChecked(fd, path);
}

Status WriteFileBytesAtomic(const std::string& path,
                            const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  Status status = WriteFileBytes(tmp, bytes, /*sync=*/true);
  if (status.ok()) status = RenameFile(tmp, path);
  if (!status.ok()) {
    (void)RemoveFile(tmp);
    return status;
  }
  const size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (failpoint::Fire("fs/rename")) {
    return failpoint::InjectedFault("fs/rename");
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename", from + " -> " + to, errno);
  }
  return Status::Ok();
}

Status RemoveFile(const std::string& path) {
  if (failpoint::Fire("fs/remove")) {
    return failpoint::InjectedFault("fs/remove");
  }
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink", path, errno);
  }
  return Status::Ok();
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

StatusOr<uint64_t> FileSizeBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return ErrnoStatus("stat", path, errno);
  }
  return static_cast<uint64_t>(st.st_size);
}

Status MakeDirs(const std::string& path) {
  std::string prefix;
  size_t start = 0;
  while (start <= path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    prefix = path.substr(0, end);
    start = end + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir", prefix, errno);
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return ErrnoStatus("opendir", dir, errno);
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    const struct dirent* entry = ::readdir(d);
    if (entry == nullptr) {
      const int err = errno;
      ::closedir(d);
      if (err != 0) return ErrnoStatus("readdir", dir, err);
      break;
    }
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 &&
        S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status SyncDir(const std::string& dir) {
  if (failpoint::Fire("fs/sync_dir")) {
    return failpoint::InjectedFault("fs/sync_dir");
  }
  const int fd = OpenRetry(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open", dir, errno);
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  // Some filesystems refuse directory fsync (EINVAL); that's not a
  // durability bug we can fix from here, so only real errors surface.
  const int err = rc != 0 ? errno : 0;
  const Status closed = CloseChecked(fd, dir);
  if (rc != 0 && err != EINVAL) return ErrnoStatus("fsync", dir, err);
  return closed;
}

}  // namespace graphscape
