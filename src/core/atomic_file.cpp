#include "core/atomic_file.hpp"

#include "core/fault.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define MTT_HAS_UNISTD 1
#else
#define MTT_HAS_UNISTD 0
#endif

namespace mtt::core {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

std::string tempSibling(const std::string& path) {
  // Unique per process and per call, so concurrent writers to the same
  // target never share a temporary.
  static std::atomic<unsigned long> counter{0};
  unsigned long n = counter.fetch_add(1, std::memory_order_relaxed);
#if MTT_HAS_UNISTD
  long pid = static_cast<long>(::getpid());
#else
  long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." + std::to_string(n);
}

}  // namespace

void atomicWriteFile(const std::string& path, const std::string& contents,
                     bool syncToDisk) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);

  const std::string tmp = tempSibling(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail("cannot create temporary", tmp);

  // Fault-injection seam: an injected Short writes only a prefix of the
  // contents, Fail skips the write entirely — both feed the existing
  // failure path below (temp removed, target untouched, exception thrown),
  // which is exactly the atomicity contract under test.
  using Action = FaultDecision::Action;
  const FaultDecision wfault =
      checkFault(FaultOp::DiskWrite, "core.atomic_file.write", contents.size());
  bool ok = true;
  if (wfault.action == Action::Fail) {
    errno = wfault.err != 0 ? wfault.err : ENOSPC;
    ok = false;
  } else if (wfault.action == Action::Short) {
    const std::size_t wrote = std::min(contents.size(), wfault.count);
    std::fwrite(contents.data(), 1, wrote, f);
    errno = ENOSPC;
    ok = false;
  } else {
    ok = contents.empty() ||
         std::fwrite(contents.data(), 1, contents.size(), f) ==
             contents.size();
  }
  ok = std::fflush(f) == 0 && ok;
#if MTT_HAS_UNISTD
  if (ok && syncToDisk) {
    const FaultDecision sfault =
        checkFault(FaultOp::DiskFsync, "core.atomic_file.fsync", 0);
    if (sfault.action == Action::Fail) {
      errno = sfault.err != 0 ? sfault.err : EIO;
      ok = false;
    } else {
      ok = ::fsync(::fileno(f)) == 0;
    }
  }
#else
  (void)syncToDisk;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    fail("short write to", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename into", path);
  }
}

FileLock::FileLock(const std::string& path) {
#if MTT_HAS_UNISTD
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("cannot open lock file", path);
  // Retry through signal interruption: a farm parent forwarding SIGTERM to
  // workers must not drop the corpus lock on EINTR.
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno == EINTR) continue;
    ::close(fd_);
    fd_ = -1;
    fail("cannot lock", path);
  }
#else
  (void)path;
#endif
}

FileLock::~FileLock() {
#if MTT_HAS_UNISTD
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
#endif
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), {});
  return !in.bad();
}

}  // namespace mtt::core
