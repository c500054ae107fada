#pragma once
/// \file protocol.hpp
/// Wire layer of the campaign server: Unix-domain stream sockets with
/// line-delimited JSON framing. Every control message — submit, status,
/// wait, stats, shutdown — is one JSON document per '\n'-terminated
/// line, in both directions. Streaming responses (job progress, result
/// fragments) are just more lines on the same connection, so a client
/// needs nothing beyond "read lines, parse each as JSON".
///
/// The helpers here are deliberately minimal: RAII around the fd, a
/// listener/connector pair, and a buffered line channel. Everything
/// policy-shaped lives in server.hpp. Every socket made here is
/// close-on-exec, so the workers the daemon launches never inherit its
/// control listener or a tenant's connection.

#include <stdexcept>
#include <string>

namespace slipflow::serve {

/// Errors of the serve layer: admission rejects, malformed specs,
/// protocol violations, socket failures.
class serve_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Bind + listen on a Unix-domain stream socket at `path` (any stale
/// socket file is unlinked first). Throws serve_error on failure.
Fd unix_listen(const std::string& path, int backlog = 16);

/// Block until a client connects. Returns an invalid Fd when the
/// listener has been shut down (see unix_shutdown) — the accept loop's
/// clean exit — and throws serve_error on unexpected errors.
Fd unix_accept(const Fd& listener);

/// Wake a blocked unix_accept. Safe to call from another thread while
/// the accept loop is running; the listener stays owned by its Fd.
void unix_shutdown(const Fd& listener);

/// Connect to the server socket, retrying until `timeout_seconds` so a
/// client started moments before the daemon finished binding still
/// connects. Throws serve_error when the deadline passes.
Fd unix_connect(const std::string& path, double timeout_seconds = 5.0);

/// '\n'-delimited framing over a connected stream socket. Writes use
/// MSG_NOSIGNAL so a vanished peer surfaces as serve_error, not SIGPIPE.
class LineChannel {
 public:
  explicit LineChannel(Fd fd) : fd_(std::move(fd)) {}

  /// Read one line (without the terminator). False on clean EOF with no
  /// buffered partial line; throws serve_error on socket errors.
  bool read_line(std::string& out);

  /// Write `line` plus '\n'. Throws serve_error when the peer is gone.
  void write_line(const std::string& line);

 private:
  Fd fd_;
  std::string buf_;
};

}  // namespace slipflow::serve
