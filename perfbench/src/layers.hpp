#pragma once
/// \file layers.hpp
/// Probes the workloads share: the byte-for-byte output checks, the
/// 1-rank baselines,
/// and the per-layer measurements of the traced run (lbm pass spans,
/// kernel backends, measured triad, checkpoint I/O, and the sim /
/// transport / balance counters of a multi-rank run).

#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/parallel_lbm.hpp"
#include "timing_comm.hpp"
#include "transport/communicator.hpp"

namespace perfbench {

namespace sl = slipflow;

/// Fluid cells of a global problem (the cells one phase updates).
long long fluid_cells(const sl::lbm::Extents& global);

/// The observables every output check compares byte for byte: component
/// masses folded in global plane order and the mid-channel velocity
/// profile u(y) at x = nx/2, z = nz/2.
struct Observables {
  std::vector<double> masses;
  std::vector<double> profile;  ///< gathered on rank 0 only
};
/// Collective; refreshes the mixture observables first.
Observables collect_observables(sl::sim::ParallelLbm& run);
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b);
bool same_bytes(const Observables& a, const Observables& b);

/// A 1-rank run of `cfg` (SerialComm) on the scalar kernel backend for
/// `phases` phases from the seeded state: the reference every output
/// check compares against. Restores the default backend.
Observables scalar_reference(const sl::sim::RunnerConfig& cfg,
                             const DensityFn& init, int phases);

/// MLUPS of a 1-rank run of the global problem (SerialComm, policy none,
/// default backend): median over `blocks` blocks of `phases_per_block`
/// phases after a two-phase warm-up.
double one_rank_mlups(const sl::sim::RunnerConfig& cfg, const DensityFn& init,
                      int blocks, int phases_per_block);

/// Relative drift of the component masses between two snapshots (max over
/// components of |after - before| / before).
double mass_drift(const std::vector<double>& before,
                  const std::vector<double>& after);

/// Allowed relative mass drift over a timed run.
inline constexpr double kMassTolerance = 1e-10;
/// Allowed |sum of lbm pass medians / phase median - 1|.
inline constexpr double kPassSumTolerance = 0.10;

// --- per-layer probes (traced run) ---------------------------------------

/// lbm layer on a 1-rank copy of the global problem, driven through
/// lbm::step_phase and the pass functions of lbm/kernels.hpp: plan and
/// tile build times, per-pass medians (boundary planes + f halo, fused
/// collide+stream, density + density halo, force/velocity) against the
/// whole-phase median, the phase time of every supported backend, and
/// computed bytes per cell. Checks the pass/phase attribution.
void probe_lbm(const sl::lbm::Extents& global, const sl::lbm::FluidParams& fluid,
               const DensityFn& init, double budget_s, Result& res,
               Tracer& tr);

/// STREAM-style triad a = b + s*c with each array >= 4x the LLC; sets
/// lbm.triad_gbps, lbm.triad_array_mb, lbm.llc_mb and lbm.roofline_frac
/// (which needs lbm.phase_gbps from probe_lbm).
void probe_triad(Result& res, Tracer& tr);

/// obs layer: save_checkpoint, and save_checkpoint_async + flush_output,
/// of the runner's state (collective; median of three each). Fills the
/// obs.* metrics into `res`, which only rank 0 passes.
void probe_checkpoint(sl::sim::ParallelLbm& run, sl::transport::Communicator& comm,
                      Result* res, Tracer& tr);

/// One rank's cumulative counters, snapshotted around a timed region.
struct RankCounters {
  double compute_s = 0, comm_s = 0, remap_s = 0;
  double interior_s = 0, halo_wait_s = 0, plan_s = 0, remaps = 0;
  long long planes_sent = 0, planes = 0;
  TimingCounts comm_counts;
  long long futex_waits = 0, spilled_frames = 0;
  /// Busy (compute + injected slowdown) seconds of the last window.
  double last_window_compute_s = 0;
};
/// Read one rank's counters: RankStats, the counters the runner publishes
/// in its profiler's registry, the decorator's counts, and
/// ShmComm::stats() when `inner` is a ShmComm.
RankCounters read_counters(sl::sim::ParallelLbm& run, const TimingComm& timing,
                           sl::transport::Communicator& inner);
RankCounters operator-(const RankCounters& a, const RankCounters& b);

/// sim.*, transport.* (except direct_job_ms_p50) and balance.* from the
/// per-rank counter deltas over `phases` timed phases.
void report_rank_layers(const std::vector<RankCounters>& delta, long long phases,
                        Result& res);

}  // namespace perfbench
