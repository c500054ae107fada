#pragma once
/// \file child_set.hpp
/// Forked children watched without a sleep tick — the supervision core
/// shared by launch_workers (fork + exec of worker binaries) and
/// run_ranks_forked (fork of an in-process body). Each child's stderr
/// goes to a close-on-exec pipe and its exit is watched through a pidfd,
/// so one poll() wakes on child output, child exit, or a readable
/// caller descriptor (the launcher's heartbeat sockets), and the
/// caller's deadlines become the poll timeout.

#include <poll.h>
#include <sys/types.h>

#include <functional>
#include <span>
#include <string>
#include <vector>

namespace slipflow::transport {

struct Child {
  pid_t pid = -1;
  int pidfd = -1;   ///< -1 once reaped, or if pidfd_open is unavailable
  int err_fd = -1;  ///< read end of the stderr pipe; -1 after EOF
  bool done = false;
  int status = 0;   ///< waitpid status once done
  std::string err;  ///< everything the child wrote to stderr
};

class ChildSet {
 public:
  ChildSet() = default;
  ChildSet(const ChildSet&) = delete;
  ChildSet& operator=(const ChildSet&) = delete;
  /// Kills and reaps any child still running, then closes every fd.
  ~ChildSet();

  /// Fork one child whose fd 2 is a pipe back to this set. The child
  /// runs `body` and must exec or _exit from it (a body that returns
  /// exits 127). Throws comm_error when pipe or fork fails.
  void spawn(const std::function<void()>& body);

  /// Block until a child exits or writes to stderr, one of the caller's
  /// `fds` is readable, or `timeout_s` elapses. If pidfds are
  /// unavailable the wait is capped at 10 ms so reap() still notices
  /// exits.
  void wait(std::span<const int> fds, double timeout_s);

  /// Read whatever the children have written to stderr so far.
  void drain_stderr();

  /// Reap every child that has exited; returns their indices in order.
  std::vector<int> reap();

  /// SIGCONT then SIGKILL every running child (a SIGSTOPped one would
  /// otherwise never act on the kill) and reap it.
  void kill_all();

  int running() const { return running_; }
  const Child& operator[](int i) const {
    return children_[static_cast<std::size_t>(i)];
  }
  int size() const { return static_cast<int>(children_.size()); }

 private:
  std::vector<Child> children_;
  std::vector<pollfd> fds_;  // wait() scratch, reused across calls
  int running_ = 0;
};

}  // namespace slipflow::transport
