/// slow_node_remap: the paper's scenario on real ranks. Three ShmComm
/// ranks in process (run_ranks_shm, one thread each, overlap schedule) on
/// a 96x48x12 channel, filtered remapping every 10 phases over a window
/// of 3, rank 1 slowed to half speed (slowdown {0, 1, 0}). sim, transport
/// and balance all work here. One operation is one remap window: every
/// rank's ParallelLbm::run(10), so each call ends with a remapping step.

#include <memory>

#include "layers.hpp"
#include "transport/shm_comm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace lbm = sl::lbm;
namespace sim = sl::sim;
namespace transport = sl::transport;

constexpr int kRanks = 3;
constexpr int kInterval = 10;
constexpr double kSlowdown = 1.0;
constexpr int kVerifyPhases = 2 * kInterval;
constexpr int kSetups = 3;

sim::RunnerConfig config() {
  sim::RunnerConfig cfg;
  cfg.global = lbm::Extents{96, 48, 12};
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = kInterval;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = cfg.global.plane_cells();
  cfg.step = sim::StepMode::overlap;
  cfg.threads = 1;
  cfg.slowdown = {0.0, kSlowdown, 0.0};
  return cfg;
}

/// The verification prefix on 3 ranks; observables land on rank 0.
Observables ranks_prefix(const sim::RunnerConfig& cfg, const DensityFn& init,
                         Tracer& tr, bool decorated) {
  Observables out;
  transport::run_ranks_shm(kRanks, [&](transport::Communicator& inner) {
    TimingComm timing(inner, tr);
    transport::Communicator& comm =
        decorated ? static_cast<transport::Communicator&>(timing) : inner;
    sim::ParallelLbm run(cfg, comm);
    run.initialize(init);
    const double t0 = now_s();
    run.run(kVerifyPhases);
    if (decorated) tr.record("sim.prefix", t0, now_s(), 0, -1, comm.rank());
    Observables o = collect_observables(run);
    if (comm.rank() == 0) out = std::move(o);
  });
  return out;
}

/// What rank 0 of a timed run hands back.
struct Timed {
  double setup_end = 0;
  std::vector<double> window_s;
  double wall_s = 0;
  double mass_drift = 0;
  std::vector<RankCounters> delta = std::vector<RankCounters>(kRanks);
};

/// One run_ranks_shm invocation: set-up (construction, seeded
/// initialisation, plan/tile builds, one warm-up remap window), then —
/// when `seconds` > 0 — remap windows until `seconds` passed and at least
/// `min_ops` ran. The stop decision is rank 0's, shared by an allreduce
/// after each window. `obs_probe` adds the checkpoint probe (rank 0 fills
/// `res`).
Timed timed_run(const sim::RunnerConfig& cfg, const DensityFn& init,
                double seconds, std::size_t min_ops, bool decorated, Tracer& tr,
                Result* obs_probe) {
  Timed t;
  transport::run_ranks_shm(kRanks, [&](transport::Communicator& inner) {
    TimingComm timing(inner, tr);
    transport::Communicator& comm =
        decorated ? static_cast<transport::Communicator&>(timing) : inner;
    const int rank = comm.rank();
    sim::ParallelLbm run(cfg, comm);
    run.initialize(init);
    run.run(kInterval);
    comm.barrier();
    if (rank == 0) t.setup_end = now_s();
    if (seconds <= 0) return;

    const std::vector<double> m0 = run.global_masses_ordered();
    const RankCounters c0 = read_counters(run, timing, inner);
    double last_compute = 0;
    const double start = now_s();
    for (;;) {
      const double compute0 = run.stats().compute_seconds;
      const double a = now_s();
      run.run(kInterval);
      const double b = now_s();
      last_compute = run.stats().compute_seconds - compute0;
      tr.record("sim.window", a, b, 0, -1, rank);
      bool more = false;
      if (rank == 0) {
        t.window_s.push_back(b - a);
        more = b - start < seconds || t.window_s.size() < min_ops;
      }
      if (comm.allreduce_max(more ? 1.0 : 0.0) == 0.0) break;
    }
    if (rank == 0) t.wall_s = now_s() - start;
    RankCounters c1 = read_counters(run, timing, inner);
    c1.last_window_compute_s = last_compute;
    t.delta[static_cast<std::size_t>(rank)] = c1 - c0;
    const double drift = mass_drift(m0, run.global_masses_ordered());
    if (rank == 0) t.mass_drift = drift;
    if (obs_probe != nullptr)
      probe_checkpoint(run, comm, rank == 0 ? obs_probe : nullptr, tr);
  });
  return t;
}

double cell_updates(const Timed& t, long long cells) {
  return static_cast<double>(cells) * kInterval * static_cast<double>(t.window_s.size());
}

}  // namespace

void run_slow_node_remap(const Options& opt, Result& res, Tracer& tr) {
  const sim::RunnerConfig cfg = config();
  const DensityFn init = seeded_density(cfg.fluid, opt.seed);
  const long long cells = fluid_cells(cfg.global);

  // Output checks, off the clock: 3 remapping ranks equal the scalar
  // 1-rank run byte for byte; traced, also with the decorator and spans.
  const Observables ref = scalar_reference(cfg, init, kVerifyPhases);
  Tracer off(false);
  const Observables plain = ranks_prefix(cfg, init, off, false);
  res.check(same_bytes(plain, ref),
            "slow_node_remap observables differ from the scalar 1-rank reference");
  if (opt.trace)
    res.check(same_bytes(ranks_prefix(cfg, init, tr, true), plain),
              "the timing decorator and spans changed slow_node_remap observables");

  // Counts the run's windows and returns its MLUPS.
  const auto checked = [&](const Timed& t) {
    res.check(t.mass_drift <= kMassTolerance,
              "slow_node_remap mass drift " + std::to_string(t.mass_drift));
    res.operations(static_cast<long long>(t.window_s.size()), 0);
    return cell_updates(t, cells) / t.wall_s / 1e6;
  };

  if (!opt.trace) {
    EndToEnd e;
    std::vector<double> setups;
    Timed t;
    for (int i = 0; i < kSetups; ++i) {
      const double t0 = now_s();
      t = timed_run(cfg, init, i + 1 == kSetups ? opt.seconds : 0.0,
                    kMinOperations, false, off, nullptr);
      setups.push_back(t.setup_end - t0);
    }
    e.setup_s = trimmed_mean(setups);
    checked(t);
    e.cell_updates = cell_updates(t, cells);
    e.wall_s = t.wall_s;
    e.latency_s = t.window_s;
    e.peak_rss_mb = peak_rss_mb();
    report_end_to_end(e, res);
    return;
  }

  const double plain_mlups =
      checked(timed_run(cfg, init, opt.seconds / 2, 10, false, off, nullptr));
  const Timed t = timed_run(cfg, init, opt.seconds / 2, 10, true, tr, &res);
  const double traced_mlups = checked(t);
  res.set("trace.overhead_frac", 1.0 - traced_mlups / plain_mlups, "fraction");
  report_norm_efficiency(plain_mlups, one_rank_mlups(cfg, init, 7, kInterval),
                         kRanks - 1 + 1.0 / (1.0 + kSlowdown), res);
  report_rank_layers(t.delta, kInterval * static_cast<long long>(t.window_s.size()),
                     res);
  probe_lbm(cfg.global, cfg.fluid, init, 1.0, res, tr);
  res.set("lbm.working_set_mb", peak_rss_mb(), "MB");
  probe_triad(res, tr);
  set_serve_unexercised(res);
}

}  // namespace perfbench
