#pragma once
/// \file fork_harness.hpp
/// Generic forked rank harness behind run_ranks_shm_forked: forks
/// `nranks` children (no exec), each running a caller-supplied body for
/// its rank. The parent supervises
/// with a wall-clock watchdog, captures each child's stderr, and throws
/// on any child failure or on timeout with the collected per-rank
/// diagnostics. For true fresh-address-space workers use
/// transport::launch_workers with the slipflow_worker binary instead.

#include <functional>
#include <string>

namespace slipflow::transport {

struct ForkRunOptions {
  double wall_timeout = 60.0;
  /// Name used in thrown diagnostics, e.g. "run_ranks_shm_forked".
  std::string who = "run_ranks_forked";
};

/// Fork nranks children; child r runs `body(r)` and exits 0 on normal
/// return, 3 on exception (message written to the captured stderr).
/// Throws comm_timeout on wall timeout, comm_error on any rank failure.
void run_ranks_forked(int nranks, const std::function<void(int rank)>& body,
                      const ForkRunOptions& opts);

}  // namespace slipflow::transport
