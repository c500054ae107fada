#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace slipflow::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw serve_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw serve_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd unix_listen(const std::string& path, int backlog) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("socket");
  const sockaddr_un addr = make_addr(path);
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    fail("bind " + path);
  if (::listen(fd.get(), backlog) != 0) fail("listen " + path);
  return fd;
}

Fd unix_accept(const Fd& listener) {
  while (true) {
    const int c = ::accept4(listener.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (c >= 0) return Fd(c);
    if (errno == EINTR) continue;
    // shutdown() on the listening socket makes accept fail with EINVAL
    // — the accept loop's clean stop signal.
    if (errno == EINVAL || errno == EBADF) return Fd();
    fail("accept");
  }
}

void unix_shutdown(const Fd& listener) {
  if (listener.valid()) ::shutdown(listener.get(), SHUT_RDWR);
}

Fd unix_connect(const std::string& path, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  const sockaddr_un addr = make_addr(path);
  while (true) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid()) fail("socket");
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    if (std::chrono::steady_clock::now() >= deadline)
      fail("connect " + path);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

bool LineChannel::read_line(std::string& out) {
  while (true) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      if (buf_.empty()) return false;
      out = std::move(buf_);  // final unterminated line
      buf_.clear();
      return true;
    }
    if (errno == EINTR) continue;
    fail("recv");
  }
}

void LineChannel::write_line(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd_.get(), framed.data() + off,
                             framed.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    fail("send");
  }
}

}  // namespace slipflow::serve
