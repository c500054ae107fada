/// The parallel program as REAL processes: the launcher forks+execs
/// `slipflow_worker` ranks wired over shared-memory rings, supervises
/// them with heartbeats, and (optionally) injects a kill-rank fault to
/// demonstrate the named-rank diagnostic instead of a hang.
///
///   build/examples/multiprocess_channel [--ranks=4] [--phases=200]
///       [--policy=filtered] [--nx=32] [--slow-rank=1] [--slow-factor=3]
///       [--threads=2] [--step=overlap|blocking]
///       [--shm-ring-bytes=1048576]
///       [--fault-kill-rank=2 --fault-kill-phase=20 --expect-failure]
///
/// With --expect-failure the program exits 0 exactly when the launcher
/// reports the fault (the CI fault-injection run), nonzero otherwise.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "transport/launcher.hpp"
#include "util/options.hpp"

#ifndef SLIPFLOW_WORKER_EXE
#error "SLIPFLOW_WORKER_EXE must point at the slipflow_worker binary"
#endif

using namespace slipflow;

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const int ranks = static_cast<int>(opts.get("ranks", 4LL));
  const int phases = static_cast<int>(opts.get("phases", 200LL));
  const std::string policy = opts.get("policy", std::string("filtered"));
  const long long nx = opts.get("nx", 32LL);
  const int slow_rank = static_cast<int>(opts.get("slow-rank", 1LL));
  const double slow_factor = opts.get("slow-factor", 3.0);
  const int kill_rank = static_cast<int>(opts.get("fault-kill-rank", -1LL));
  const long long kill_phase = opts.get("fault-kill-phase", -1LL);
  const bool expect_failure = opts.get("expect-failure", false);
  // Supervision budgets (transport::LaunchConfig): all settable so sweep
  // scripts and the service smoke job can tighten or relax them per run.
  const double wall_timeout = opts.get("wall-timeout", 120.0);
  const double heartbeat_interval = opts.get("heartbeat-interval", 0.2);
  const double heartbeat_grace = opts.get("heartbeat-grace", 10.0);
  const long long threads = opts.get("threads", 1LL);
  const std::string step = opts.get("step", std::string("overlap"));
  const long long shm_ring_bytes = opts.get("shm-ring-bytes", 0LL);
  const std::string worker =
      opts.get("worker", std::string(SLIPFLOW_WORKER_EXE));
  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }

  transport::LaunchConfig lc;
  lc.ranks = ranks;
  lc.worker_command = {worker,
                       "--nx=" + std::to_string(nx),
                       "--ny=16",
                       "--nz=6",
                       "--phases=" + std::to_string(phases),
                       "--policy=" + policy,
                       "--remap-interval=5",
                       "--window=4",
                       "--min-transfer=96",
                       "--recv-timeout=20",
                       "--threads=" + std::to_string(threads),
                       "--step=" + step};
  if (slow_rank >= 0 && slow_rank < ranks) {
    lc.worker_command.push_back("--slow-rank=" + std::to_string(slow_rank));
    lc.worker_command.push_back("--slow-factor=" +
                                std::to_string(slow_factor));
  }
  lc.heartbeat_interval = heartbeat_interval;
  lc.heartbeat_grace = heartbeat_grace;
  lc.wall_clock_timeout = wall_timeout;
  lc.shm_ring_bytes = shm_ring_bytes;
  if (kill_rank >= 0 && kill_phase >= 0)
    lc.extra_args[kill_rank] = {"--fault-kill-phase=" +
                                std::to_string(kill_phase)};

  std::cout << "launching " << ranks << " slipflow_worker processes, " << nx
            << "x16x6, " << phases << " phases, policy '" << policy << "'";
  if (kill_rank >= 0)
    std::cout << " (injecting SIGKILL into rank " << kill_rank << " at phase "
              << kill_phase << ")";
  std::cout << "\n\n";

  const transport::LaunchResult res = transport::launch_workers(lc);

  std::cout << (res.ok ? "run completed" : "run FAILED") << " in "
            << res.elapsed_seconds << "s; last reported phases:";
  for (int r = 0; r < ranks; ++r)
    std::cout << " rank" << r << "=" << res.last_phase[static_cast<std::size_t>(r)];
  std::cout << "\n";
  if (!res.ok)
    std::cout << "diagnostic (failed rank " << res.failed_rank << "):\n"
              << res.diagnostic << "\n";

  if (expect_failure) {
    if (res.ok) {
      std::cerr << "expected the injected fault to fail the run\n";
      return 1;
    }
    if (kill_rank >= 0 && res.failed_rank != kill_rank) {
      std::cerr << "expected rank " << kill_rank << " to be blamed, got "
                << res.failed_rank << "\n";
      return 1;
    }
    std::cout << "\ninjected fault was detected and named as expected\n";
    return 0;
  }
  return res.ok ? 0 : 1;
}
