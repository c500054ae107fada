#include "transport/child_set.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "transport/fdio.hpp"

namespace slipflow::transport {

using fdio::throw_errno;

namespace {

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

ChildSet::~ChildSet() {
  kill_all();
  for (Child& c : children_) {
    close_fd(c.err_fd);
    close_fd(c.pidfd);
  }
}

void ChildSet::spawn(const std::function<void()>& body) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) < 0) throw_errno("pipe2");
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    errno = err;
    throw_errno("fork");
  }
  if (pid == 0) {
    ::close(pipefd[0]);
    ::dup2(pipefd[1], 2);  // the dup does not inherit O_CLOEXEC
    ::close(pipefd[1]);
    body();
    ::_exit(127);
  }
  ::close(pipefd[1]);
  Child c;
  c.pid = pid;
  c.err_fd = pipefd[0];
  // The raw syscall: glibc's <sys/pidfd.h> wrapper lacks C++ linkage.
  // The kernel always sets O_CLOEXEC on a pidfd. -1 (ENOSYS on kernels
  // before 5.3) leaves the child to wait()'s 10 ms cap.
  c.pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  children_.push_back(std::move(c));
  ++running_;
  fdio::set_nonblocking(children_.back().err_fd);
}

void ChildSet::wait(std::span<const int> fds, double timeout_s) {
  fds_.clear();
  bool blind = false;
  for (const Child& c : children_) {
    if (c.err_fd >= 0) fds_.push_back(pollfd{c.err_fd, POLLIN, 0});
    if (c.done) continue;
    if (c.pidfd >= 0)
      fds_.push_back(pollfd{c.pidfd, POLLIN, 0});
    else
      blind = true;
  }
  for (const int fd : fds) fds_.push_back(pollfd{fd, POLLIN, 0});
  if (blind) timeout_s = std::min(timeout_s, 0.01);
  const int ms =
      static_cast<int>(std::ceil(std::clamp(timeout_s, 0.0, 3600.0) * 1e3));
  if (::poll(fds_.data(), fds_.size(), ms) < 0 && errno != EINTR)
    throw_errno("poll");
}

void ChildSet::drain_stderr() {
  char buf[4096];
  for (Child& c : children_) {
    while (c.err_fd >= 0) {
      const ssize_t n = ::read(c.err_fd, buf, sizeof(buf));
      if (n > 0) {
        c.err.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) close_fd(c.err_fd);
      break;
    }
  }
}

std::vector<int> ChildSet::reap() {
  std::vector<int> reaped;
  for (int i = 0; i < size(); ++i) {
    Child& c = children_[static_cast<std::size_t>(i)];
    if (c.done || ::waitpid(c.pid, &c.status, WNOHANG) != c.pid) continue;
    c.done = true;
    close_fd(c.pidfd);
    --running_;
    reaped.push_back(i);
  }
  return reaped;
}

void ChildSet::kill_all() {
  for (const Child& c : children_) {
    if (c.done) continue;
    ::kill(c.pid, SIGCONT);
    ::kill(c.pid, SIGKILL);
  }
  for (Child& c : children_) {
    if (c.done) continue;
    while (::waitpid(c.pid, &c.status, 0) < 0 && errno == EINTR) {
    }
    c.done = true;
    close_fd(c.pidfd);
    --running_;
  }
}

}  // namespace slipflow::transport
