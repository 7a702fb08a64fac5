// Crash-safe artifact I/O.
//
// Every on-disk artifact the framework produces (scenarios, corpus metadata,
// index files, traces) used to be written through a truncating ofstream: a
// crash mid-write leaves a corrupt partial file under the final name.  The
// durability layer routes those writers through atomicWriteFile, which writes
// a temporary sibling and rename(2)s it into place — readers observe either
// the old contents or the new, never a torn file.
//
// FileLock serializes multi-process access to a shared directory (the triage
// corpus) via flock(2); on platforms without flock it degrades to a no-op,
// which preserves single-process correctness.
#pragma once

#include <cstdio>
#include <string>

namespace mtt::core {

/// Writes `contents` to `path` atomically: the data lands in a uniquely
/// named temporary sibling (same directory, so the rename cannot cross a
/// filesystem boundary), then rename(2) replaces `path` in one step.  With
/// `syncToDisk` the temporary is fsync'd before the rename, so the contents
/// survive a power failure, not just a process crash.  Throws
/// std::runtime_error (and removes the temporary) on any failure.
void atomicWriteFile(const std::string& path, const std::string& contents,
                     bool syncToDisk = false);

/// Reads the whole of `path` into `out` (binary-safe).  False when the file
/// cannot be opened or read; errno says why.
bool readFile(const std::string& path, std::string& out);

/// RAII advisory lock on a lock file.  Creates `path` if missing and holds
/// an exclusive flock(2) until destruction; cooperating processes using the
/// same path serialize against each other.  Locking is advisory — readers
/// that do not take the lock are unaffected — and recursive acquisition in
/// one process deadlocks, so scope instances tightly.
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  /// True when the flock was actually acquired (false on platforms without
  /// flock, where the lock degrades to a no-op).
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace mtt::core
