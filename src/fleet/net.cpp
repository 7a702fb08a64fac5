#include "fleet/net.hpp"

#include <stdexcept>

#include "core/backoff.hpp"
#include "core/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MTT_FLEET_HAS_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#endif

namespace mtt::fleet {

Address parseAddress(const std::string& s) {
  Address a;
  const std::string unixPrefix = "unix:";
  if (s.compare(0, unixPrefix.size(), unixPrefix) == 0) {
    a.isUnix = true;
    a.path = s.substr(unixPrefix.size());
    if (a.path.empty()) {
      throw std::runtime_error(
          "fleet address \"" + s + "\" names no socket path; expected "
          "\"unix:/path/to.sock\" or \"host:port\"");
    }
    return a;
  }
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    throw std::runtime_error(
        "fleet address \"" + s + "\" is malformed; expected "
        "\"unix:/path/to.sock\" or \"host:port\"");
  }
  a.host = s.substr(0, colon);
  std::uint64_t port = 0;
  if (!wire::parseU64(std::string_view(s).substr(colon + 1), port)) {
    throw std::runtime_error("fleet address \"" + s +
                             "\" carries a non-numeric port");
  }
  if (port > 65535) {
    throw std::runtime_error("fleet address \"" + s +
                             "\" carries an out-of-range port");
  }
  a.port = static_cast<std::uint16_t>(port);
  return a;
}

std::string to_string(const Address& a) {
  if (a.isUnix) return "unix:" + a.path;
  return a.host + ":" + std::to_string(a.port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

#ifdef MTT_FLEET_HAS_SOCKETS

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void setNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

namespace {

/// A worker whose coordinator vanished sees EPIPE on write, not SIGPIPE.
void ignoreSigpipeOnce() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

sockaddr_un unixSockaddr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    throw std::runtime_error("unix socket path too long (" +
                             std::to_string(path.size()) + " bytes): " + path);
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

sockaddr_in tcpSockaddr(const Address& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(a.port);
  if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) == 1) return sa;
  // Not a dotted quad: resolve the name (getaddrinfo, IPv4).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(a.host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw std::runtime_error("cannot resolve fleet host \"" + a.host +
                             "\": " + ::gai_strerror(rc));
  }
  sa.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return sa;
}

}  // namespace

Listener::Listener(const Address& addr) : bound_(addr) {
  ignoreSigpipeOnce();
  if (addr.isUnix) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) {
      throw std::runtime_error(std::string("socket(AF_UNIX): ") +
                               std::strerror(errno));
    }
    ::unlink(addr.path.c_str());  // stale socket from a killed coordinator
    sockaddr_un sa = unixSockaddr(addr.path);
    if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      throw std::runtime_error("bind(" + addr.path +
                               "): " + std::strerror(errno));
    }
    sock_ = std::move(s);
  } else {
    Socket s(::socket(AF_INET, SOCK_STREAM, 0));
    if (!s.valid()) {
      throw std::runtime_error(std::string("socket(AF_INET): ") +
                               std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa = tcpSockaddr(bound_);
    if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      throw std::runtime_error("bind(" + to_string(addr) +
                               "): " + std::strerror(errno));
    }
    socklen_t len = sizeof sa;
    if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
      bound_.port = ntohs(sa.sin_port);  // resolve an ephemeral port 0
    }
    sock_ = std::move(s);
  }
  if (::listen(sock_.fd(), 64) != 0) {
    throw std::runtime_error("listen(" + boundAddress() +
                             "): " + std::strerror(errno));
  }
  setNonBlocking(sock_.fd());
}

Listener::~Listener() {
  if (bound_.isUnix && sock_.valid()) ::unlink(bound_.path.c_str());
}

Socket Listener::accept() {
  int fd;
  do {
    fd = ::accept(sock_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);  // a signal is not "no connection"
  if (fd < 0) return Socket();
  setNonBlocking(fd);
  int one = 1;
  if (!bound_.isUnix) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return Socket(fd);
}

std::string peerDescription(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof ss;
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0) {
    return "?";
  }
  if (ss.ss_family == AF_INET) {
    const auto* sin = reinterpret_cast<const sockaddr_in*>(&ss);
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &sin->sin_addr, ip, sizeof ip);
    return std::string(ip) + ":" + std::to_string(ntohs(sin->sin_port));
  }
  if (ss.ss_family == AF_UNIX) return "unix";
  return "?";
}

Socket connectTo(const Address& addr, std::chrono::milliseconds timeout,
                 const std::atomic<bool>* stop) {
  ignoreSigpipeOnce();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Deterministic-jitter schedule seeded by the target port (distinct
  // endpoints de-synchronize; the same endpoint retries reproducibly).  The
  // first retry comes after about 1 ms: a coordinator started alongside its
  // workers listens within milliseconds, and a short campaign can be over
  // before a coarser first retry.
  core::Backoff backoff(core::BackoffPolicy{
      std::chrono::milliseconds(1), std::chrono::milliseconds(250), 2, 0.5,
      static_cast<std::uint64_t>(addr.port) + addr.path.size()});
  std::string lastError;
  for (;;) {
    Socket s(::socket(addr.isUnix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
    if (s.valid()) {
      int rc;
      do {
        if (addr.isUnix) {
          sockaddr_un sa = unixSockaddr(addr.path);
          rc = ::connect(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof sa);
        } else {
          sockaddr_in sa = tcpSockaddr(addr);
          rc = ::connect(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof sa);
        }
        // EINTR mid-connect: retry on a fresh socket right away — the
        // interrupted attempt's state is indeterminate, but the signal is
        // not a refusal and must not consume a backoff slot.
      } while (rc != 0 && errno == EINTR &&
               (s = Socket(::socket(addr.isUnix ? AF_UNIX : AF_INET,
                                    SOCK_STREAM, 0)),
                s.valid()));
      if (rc == 0) {
        if (!addr.isUnix) {
          int one = 1;
          ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        }
        return s;
      }
      lastError = std::strerror(errno);
    } else {
      lastError = std::strerror(errno);
    }
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      throw std::runtime_error("connect to fleet coordinator at " +
                               to_string(addr) +
                               " abandoned: stop requested");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("cannot connect to fleet coordinator at " +
                               to_string(addr) + " within " +
                               std::to_string(timeout.count()) +
                               " ms: " + lastError);
    }
    std::this_thread::sleep_for(backoff.next());
  }
}

bool sendAll(int fd, const std::string& data, std::string& err,
             const char* site) {
  std::size_t budget = data.size();  // bytes an injected Sever lets through
  bool severAfterBudget = false;
  const core::FaultDecision fault =
      core::checkFault(core::FaultOp::NetSend, site, data.size());
  switch (fault.action) {
    case core::FaultDecision::Action::None:
    case core::FaultDecision::Action::Short:  // fragments; sendAll re-sends
    case core::FaultDecision::Action::Duplicate:
      break;
    case core::FaultDecision::Action::Stall:
      std::this_thread::sleep_for(fault.delay);
      break;
    case core::FaultDecision::Action::Sever:
      budget = std::min(budget, fault.count);
      severAfterBudget = true;
      break;
    case core::FaultDecision::Action::Fail:
      err = std::string("chaos: injected send failure at ") + site + " (" +
            std::strerror(fault.err != 0 ? fault.err : EIO) + ")";
      ::shutdown(fd, SHUT_RDWR);
      return false;
  }
  std::size_t off = 0;
  while (off < budget) {
    const ssize_t n = ::send(fd, data.data() + off, budget - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&p, 1, 1000);
      } while (rc < 0 && errno == EINTR);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    err = n == 0 ? "peer closed the connection" : std::strerror(errno);
    return false;
  }
  if (severAfterBudget) {
    // The peer sees a mid-frame EOF at an arbitrary byte boundary — the
    // partial-frame edge every parser above this layer must survive.
    ::shutdown(fd, SHUT_RDWR);
    err = std::string("chaos: connection severed at ") + site + " after " +
          std::to_string(off) + " of " + std::to_string(data.size()) +
          " bytes";
    return false;
  }
  return true;
}

RecvResult recvSome(int fd, char* buf, std::size_t cap, const char* site) {
  RecvResult r;
  const core::FaultDecision fault =
      core::checkFault(core::FaultOp::NetRecv, site, cap);
  switch (fault.action) {
    case core::FaultDecision::Action::None:
    case core::FaultDecision::Action::Duplicate:
      break;
    case core::FaultDecision::Action::Stall:
      std::this_thread::sleep_for(fault.delay);
      break;
    case core::FaultDecision::Action::Short:
      // Truncated read: frames upstream arrive in pieces, exercising the
      // incremental parser on every prefix the plan chooses.
      cap = std::max<std::size_t>(1, std::min(cap, fault.count));
      break;
    case core::FaultDecision::Action::Sever:
      ::shutdown(fd, SHUT_RDWR);
      r.status = RecvStatus::Error;
      r.err = std::string("chaos: connection severed at ") + site;
      return r;
    case core::FaultDecision::Action::Fail:
      r.status = RecvStatus::Error;
      r.err = std::string("chaos: injected recv failure at ") + site + " (" +
              std::strerror(fault.err != 0 ? fault.err : EIO) + ")";
      return r;
  }
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) {
      r.status = RecvStatus::Data;
      r.n = static_cast<std::size_t>(n);
      return r;
    }
    if (n == 0) {
      r.status = RecvStatus::Eof;
      return r;
    }
    if (errno == EINTR) continue;  // a signal must not look like a dead peer
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      r.status = RecvStatus::WouldBlock;
      return r;
    }
    r.status = RecvStatus::Error;
    r.err = std::strerror(errno);
    return r;
  }
}

#else  // !MTT_FLEET_HAS_SOCKETS

namespace {
[[noreturn]] void unsupported() {
  throw std::runtime_error("mtt::fleet requires POSIX sockets");
}
}  // namespace

void Socket::close() { fd_ = -1; }
void setNonBlocking(int) { unsupported(); }
Listener::Listener(const Address&) { unsupported(); }
Listener::~Listener() = default;
Socket Listener::accept() { unsupported(); }
std::string peerDescription(int) { unsupported(); }
Socket connectTo(const Address&, std::chrono::milliseconds,
                 const std::atomic<bool>*) {
  unsupported();
}
bool sendAll(int, const std::string&, std::string&, const char*) {
  unsupported();
}
RecvResult recvSome(int, char*, std::size_t, const char*) { unsupported(); }

#endif  // MTT_FLEET_HAS_SOCKETS

}  // namespace mtt::fleet
