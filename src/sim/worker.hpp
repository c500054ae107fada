#pragma once
/// \file worker.hpp
/// The `slipflow_worker` process: one rank of the parallel LBM over
/// ShmComm. The launcher (transport/launcher.hpp) forks+execs N of
/// these; each maps its shared-memory rings, runs ParallelLbm, and
/// optionally writes observables (rank 0) and per-rank metrics.
///
/// worker_main is the real entry point, kept in the library so tests can
/// exercise flag parsing, and so the observable collection below is the
/// same code in-process (ThreadComm) and out-of-process (ShmComm) —
/// which is exactly what the byte-identical determinism test compares.

#include <string>

#include "lbm/simulation.hpp"
#include "sim/parallel_lbm.hpp"
#include "transport/communicator.hpp"

namespace slipflow::sim {

/// Which observable lines collect_observables emits.
enum class ObservableSet {
  /// Everything: masses, per-rank plane ownership / migration counts,
  /// and the mid-channel profiles.
  full,
  /// Physics only: masses and profiles, NO per-rank ownership lines.
  /// This is the served-job default: physics is bit-identical across
  /// rank counts, transports, kernel backends and checkpoint resumes,
  /// while plane ownership is a scheduling detail that legitimately
  /// differs between a straight-through run and a crash-recovered one.
  physics,
};

/// Collect the run's physical + migration observables as deterministic
/// text: component masses, per-rank plane ownership and migration
/// counts (ObservableSet::full only), and the mid-channel velocity /
/// water-density y-profiles of every global plane. All floating-point
/// values print as hexfloats, so equal strings mean byte-identical
/// doubles. Timing values are deliberately excluded — they differ
/// between backends by construction.
///
/// Collective: every rank must call it; the full string materializes on
/// rank 0, other ranks return "".
std::string collect_observables(ParallelLbm& run,
                                transport::Communicator& comm,
                                const lbm::Extents& global,
                                ObservableSet set = ObservableSet::full);

/// CLI entry point of slipflow_worker (see the flag list in worker.cpp).
/// Returns 0 on success; prints the failure to stderr and returns
/// nonzero otherwise (2 = bad flags, 3 = runtime failure).
int worker_main(int argc, const char* const* argv);

}  // namespace slipflow::sim
