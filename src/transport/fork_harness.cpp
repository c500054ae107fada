#include "transport/fork_harness.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "transport/child_set.hpp"
#include "transport/fdio.hpp"

namespace slipflow::transport {

void run_ranks_forked(int nranks, const std::function<void(int rank)>& body,
                      const ForkRunOptions& opts) {
  SLIPFLOW_REQUIRE(nranks >= 1);
  SLIPFLOW_REQUIRE(body != nullptr);

  // Parent-side buffered stdio must not leak duplicated output into the
  // children.
  std::fflush(stdout);
  std::fflush(stderr);

  ChildSet children;
  for (int r = 0; r < nranks; ++r) {
    // --- child: run the rank, report failure via exit code + stderr.
    children.spawn([&body, r] {
      int code = 0;
      try {
        body(r);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: %s\n", r, e.what());
        code = 3;
      } catch (...) {
        std::fprintf(stderr, "rank %d: unknown exception\n", r);
        code = 3;
      }
      std::fflush(nullptr);
      ::_exit(code);
    });
  }

  const double deadline = fdio::mono_now() + opts.wall_timeout;
  bool timed_out = false;
  while (children.running() > 0) {
    const double left = deadline - fdio::mono_now();
    if (left <= 0.0) {
      timed_out = true;
      children.kill_all();
      break;
    }
    children.wait({}, left);
    children.drain_stderr();
    children.reap();
  }
  children.drain_stderr();

  std::ostringstream diag;
  bool failed = timed_out;
  for (int r = 0; r < nranks; ++r) {
    const Child& c = children[r];
    if (WIFSIGNALED(c.status))
      diag << "rank " << r << " killed by signal " << WTERMSIG(c.status)
           << "\n";
    else if (WIFEXITED(c.status) && WEXITSTATUS(c.status) != 0)
      diag << "rank " << r << " exited with code " << WEXITSTATUS(c.status)
           << "\n";
    else
      continue;
    failed = true;
  }
  if (!failed) return;
  for (int r = 0; r < nranks; ++r) {
    const std::string& err = children[r].err;
    if (!err.empty()) diag << err;
  }
  if (timed_out)
    throw comm_timeout(opts.who + ": wall timeout after " +
                       std::to_string(opts.wall_timeout) + "s\n" + diag.str());
  throw comm_error(opts.who + ": rank failure\n" + diag.str());
}

}  // namespace slipflow::transport
