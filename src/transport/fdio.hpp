#pragma once
/// \file fdio.hpp
/// Low-level file-descriptor helpers shared by the transport layer:
/// monotonic time, errno-to-comm_error conversion, and the Unix-domain
/// socket setup of the launcher's heartbeat channel (the monitor
/// listener, the workers' dial-with-retry, nonblocking fds).

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "transport/communicator.hpp"

namespace slipflow::transport::fdio {

inline double mono_now() {
  // det-lint: allow(wall-clock): timeout/heartbeat plumbing only —
  // never feeds observables or balancing decisions (those go through
  // the injectable obs::Clock seam).
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] inline void throw_errno(const std::string& what) {
  throw comm_error(what + ": " + std::strerror(errno));
}

inline sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SLIPFLOW_REQUIRE_MSG(path.size() + 1 <= sizeof(addr.sun_path),
                       "unix socket path too long: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

inline int make_listener(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(listener " + path + ")");
  ::unlink(path.c_str());
  const sockaddr_un addr = make_addr(path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  return fd;
}

/// Dial `path`, retrying "not there yet" failures until the deadline —
/// this is what makes worker startup order irrelevant.
inline int connect_retry(const std::string& path, double deadline,
                         const std::string& who) {
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(" + path + ")");
    const sockaddr_un addr = make_addr(path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    const int err = errno;
    ::close(fd);
    if (err != ECONNREFUSED && err != ENOENT && err != EAGAIN) {
      errno = err;
      throw_errno("connect(" + path + ")");
    }
    if (mono_now() >= deadline)
      throw comm_timeout(who + ": connect to " + path + " timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

inline void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

}  // namespace slipflow::transport::fdio
