#pragma once
/// \file parallel_lbm.hpp
/// The paper's parallel program (Figure 2) with real data: each rank owns
/// a slab of the microchannel, exchanges halos with its x-neighbors every
/// phase, and every REMAPPING_INTERVAL phases runs the remapping protocol
/// — measuring its own compute speed, exchanging load indexes with its
/// chain neighbors (or allgathering for the global policy), and migrating
/// whole yz-planes of actual lattice state between slabs.
///
/// The physical domain is x-periodic (rank 0 and rank P-1 exchange halos
/// across the wrap), while the remapping topology is the paper's *linear
/// array* — planes never migrate across the periodic seam.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "balance/remapper.hpp"
#include "lbm/kernels.hpp"
#include "lbm/observables.hpp"
#include "lbm/simulation.hpp"
#include "obs/profiler.hpp"
#include "transport/communicator.hpp"
#include "util/thread_pool.hpp"

namespace slipflow::obs {
class AsyncWriter;
}

namespace slipflow::sim {

/// Where ParallelLbm's one per-phase stage list puts its two halo waits.
/// The kernels, the pool slicing and the stage spans are the same in
/// both modes, so physics is bit-identical for any mode and thread count
/// (every lattice slot is written exactly once per phase either way).
enum class StepMode {
  /// Each wait right after its post: every exchange blocks between
  /// compute stages.
  blocking,
  /// Communication/computation overlap: each wait after the
  /// halo-independent bulk of the phase, which runs while frames are in
  /// flight.
  overlap,
};

/// Periodic on-disk output of a running simulation. Disabled by default.
/// With `async` set (the default), snapshots are packed on the phase
/// thread and handed to a background obs::AsyncWriter, so no phase ever
/// blocks on disk; bytes on disk are identical to the synchronous path.
struct OutputOptions {
  /// Phases between collective checkpoints (0 = never). Phase P writes
  /// <checkpoint_prefix>.<P>.ckpt (all ranks, one file).
  int checkpoint_every = 0;
  std::string checkpoint_prefix;
  /// Phases between VTK snapshots (0 = never). Phase P, rank R writes
  /// <vtk_prefix>.<P>.r<R>.vtk (per-rank tiles; see lbm/vtk.hpp).
  int vtk_every = 0;
  std::string vtk_prefix;
  /// false = write inline (synchronous) through save_checkpoint, whose
  /// atomic publication the campaign server's crash recovery relies on.
  bool async = true;
};

struct RunnerConfig {
  lbm::Extents global;
  lbm::FluidParams fluid;
  /// Solid walls at the y / z extents (else periodic).
  bool walls_y = true;
  bool walls_z = true;
  /// Tangential wall velocities, indexed by ChannelGeometry::Wall
  /// (y_low, y_high, z_low, z_high); all zero = resting walls.
  std::array<lbm::Vec3, 4> wall_velocity{};
  balance::BalanceConfig balance;
  /// Step schedule; see StepMode. Overlap is the default: bit-identical
  /// results, faster wall clock.
  StepMode step = StepMode::overlap;
  /// Lanes of the per-rank thread pool that sweeps the phase's bulk
  /// (stream, inner densities, inner forces). 1 = no extra threads.
  /// Results are bit-identical for any value (static write-disjoint
  /// partition).
  int threads = 1;
  /// Remap policy name: "none", "conservative", "filtered", "global".
  std::string policy = "none";
  /// Phases between remapping checks.
  int remap_interval = 10;
  /// Optional artificial per-rank slowdown for experiments on this
  /// machine: rank r sleeps slowdown[r] x (its measured compute time)
  /// after each phase's compute, emulating a node at share
  /// 1/(1+slowdown[r]). Empty = no injection.
  std::vector<double> slowdown;
  /// Shared metrics sink (one shard per rank, ranks() >= comm.size());
  /// null = each runner keeps a private registry, readable through
  /// profiler(). See DESIGN.md "Observability" for the metric schema.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-rank time source for ALL stage timing, including the compute
  /// times fed to the load predictors. Null = wall clock; tests inject
  /// obs::CountingClock so CI scheduling noise never reaches the
  /// balancer.
  obs::ClockFactory clock_factory;
  /// Periodic checkpoint/VTK output; see OutputOptions.
  OutputOptions output;
};

/// Per-rank cost/ownership summary after a run.
struct RankStats {
  int rank = 0;
  long long planes = 0;          ///< owned planes at the end
  double compute_seconds = 0.0;  ///< kernels (incl. injected slowdown)
  double comm_seconds = 0.0;     ///< halo exchanges
  double remap_seconds = 0.0;    ///< remapping protocol + migration
  long long planes_sent = 0;
  long long planes_received = 0;
};

/// One rank's instance of the parallel simulation.
class ParallelLbm {
 public:
  ParallelLbm(RunnerConfig cfg, transport::Communicator& comm);
  ~ParallelLbm();  // out of line: RingExchanger is an incomplete type here

  /// Initialize densities from a function of global coordinates (all
  /// ranks must pass the same function) and prime forces/velocities.
  void initialize(const std::function<double(std::size_t, lbm::index_t,
                                             lbm::index_t, lbm::index_t)>&
                      init_density);
  void initialize_uniform();

  /// Advance `phases` phases, remapping on the configured interval.
  /// When the last phase ran the remapping step, ends with
  /// refresh_observables(), so the profiles are readable right away.
  void run(int phases);

  const lbm::Slab& slab() const { return *slab_; }
  lbm::Slab& slab() { return *slab_; }
  const RankStats& stats() const { return stats_; }

  /// This rank's profiler (stage spans, counters, injected clock).
  obs::PhaseProfiler& profiler() { return *prof_; }
  const obs::PhaseProfiler& profiler() const { return *prof_; }

  /// Gather the per-rank stats on every rank (allgather).
  std::vector<RankStats> gather_stats();

  /// Recompute the mixture observables (total density + macroscopic
  /// velocity) from the migrated state: density-halo exchange + the
  /// force/velocity kernel. Collective. Plane migration moves f, n and
  /// ueq but reallocates the slab, so the u_macro field a migration
  /// leaves behind is zeroed; a run whose final act was a remap (or a
  /// restore that stepped zero phases) would otherwise report zero
  /// velocity profiles. The recompute is a per-cell function of state
  /// that IS migration-invariant, and on an unmigrated slab it is
  /// byte-idempotent (same inputs, same kernel, same order). run() calls
  /// it itself when its last phase remapped; call it after a restore.
  void refresh_observables();

  /// Gather a full-domain y-profile on rank 0 (empty on other ranks).
  /// All ranks must call these collectively.
  std::vector<double> gather_velocity_profile_y(lbm::index_t gx,
                                                lbm::index_t z);
  std::vector<double> gather_density_profile_y(std::size_t component,
                                               lbm::index_t gx,
                                               lbm::index_t z);

  /// Total mass of one component across all ranks (identical everywhere).
  double global_mass(std::size_t component);

  /// Component masses folded in GLOBAL PLANE ORDER instead of rank
  /// order: per-plane sums (each plane has exactly one owner, so the
  /// element-wise reduction adds exact zeros) combined x = 0..nx-1.
  /// Byte-identical across rank counts, transports and migration
  /// histories, so a crash-recovered or warm-started job reproduces a
  /// straight-through run exactly even though its migration history
  /// differs.
  std::vector<double> global_masses_ordered();

  /// Collective checkpoint: rank 0 creates <path>.tmp, every rank writes
  /// its own plane range into it, and after the completion barrier rank
  /// 0 renames it to `path` (then a final barrier). A crash mid-write
  /// can never leave a full-sized file of half-written planes under the
  /// final name. Because the format is per-plane, the checkpoint can
  /// later be restored on a *different* number of ranks.
  void save_checkpoint(const std::string& path, long long phase = 0);

  /// Collective restore: every rank loads the planes of its current
  /// extent. Counts as initialization. Returns the stored phase count.
  long long load_checkpoint(const std::string& path);

  /// Like save_checkpoint, but the plane payload goes through the
  /// background writer as one positional write (rank 0 still creates
  /// the file synchronously, then a barrier). The file is complete only
  /// after every rank's flush_output() — run() flushes at its end.
  void save_checkpoint_async(const std::string& path, long long phase = 0);

  /// Block until every queued async output is on disk; rethrows the
  /// first writer error. run() calls this at its end; call it yourself
  /// before reading an async-written file back mid-run.
  void flush_output();

 private:
  class RingExchanger;

  /// Build the slab's streaming plan (and tile layout) if it is missing
  /// (first run, or dropped by a migration rebuild); the build is
  /// recorded under the "plan" span — outside "remap", so fig09's
  /// remap-cost story stays honest.
  void ensure_plan();

  /// One phase as one stage list (spans: collide, halo_post_f,
  /// interior_stream, halo_wait_f, boundary_stream, halo_post_density,
  /// interior_force, halo_wait_density, boundary_force); blocking mode
  /// hoists each halo_wait_* to right after its post.
  void step();
  /// Injected slowdown + the per-phase stats/metrics epilogue. `t` = the
  /// clock reading that closed the last span.
  void finish_phase(double phase_begin, double t, double compute);

  /// Periodic checkpoint/VTK hook, run after the remap block of an
  /// output phase under the "io" span. Reads the clock exactly twice in
  /// both the async and sync paths, so enabling async never shifts the
  /// injected-clock sequence the load balancer sees.
  void write_outputs();

  void remap_step();
  void remap_local();
  void remap_global();
  /// Donor-side transfer: detach k planes at `side` and ship them; k may
  /// be clamped to 0, in which case an empty header still goes out so the
  /// receiver never blocks.
  void send_planes(int peer, lbm::Side side, long long k);
  void recv_planes(int peer, lbm::Side side);

  int left_neighbor() const { return comm_.rank() > 0 ? comm_.rank() - 1 : -1; }
  int right_neighbor() const {
    return comm_.rank() + 1 < comm_.size() ? comm_.rank() + 1 : -1;
  }

  RunnerConfig cfg_;
  transport::Communicator& comm_;
  std::shared_ptr<const lbm::ChannelGeometry> geom_;
  std::unique_ptr<lbm::Slab> slab_;
  std::unique_ptr<RingExchanger> halo_;
  std::shared_ptr<const balance::RemapPolicy> policy_;
  std::unique_ptr<balance::NodeBalancer> balancer_;
  std::unique_ptr<obs::PhaseProfiler> prof_;
  std::unique_ptr<obs::AsyncWriter> writer_;  ///< created on first async job
  RankStats stats_;
  double slowdown_factor_ = 0.0;
  double cells_updated_ = 0.0;  ///< fluid-cell updates, for the MLUPS gauge
  long long phases_done_ = 0;
  bool initialized_ = false;

  // Stepping state: the pool is created on the first run(); per-lane cell
  // counts and the interior/halo-wait split feed the
  // thread/<t>/cells_updated counters and the overlap_efficiency gauge
  // published at the end of each run().
  std::unique_ptr<util::ThreadPool> pool_;
  lbm::PhaseKernels kernels_;
  std::vector<double> thread_cells_;
  double interior_seconds_ = 0.0;
  double halo_wait_seconds_ = 0.0;
};

/// Convenience: the initial even decomposition (same rule as the virtual
/// cluster): returns {x_begin, nx_local} of `rank` among `size` ranks.
std::pair<lbm::index_t, lbm::index_t> initial_extent(lbm::index_t planes_total,
                                                     int size, int rank);

}  // namespace slipflow::sim
