/// kernel_large: one rank (SerialComm, policy none, the CPUID default
/// kernel backend) on a 160x80x16 two-component channel — the paper's
/// 400x200x20 aspect at 0.4x, ~205k cells, a working set larger than a
/// 105 MB LLC. lbm does nearly all the work, from DRAM. One operation is
/// one phase (ParallelLbm::run(1)).

#include <memory>

#include "layers.hpp"
#include "transport/serial_comm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace lbm = sl::lbm;
namespace sim = sl::sim;
namespace transport = sl::transport;

constexpr int kVerifyPhases = 4;
constexpr int kWarmupPhases = 2;
constexpr int kSetups = 5;

sim::RunnerConfig config() {
  sim::RunnerConfig cfg;
  cfg.global = lbm::Extents{160, 80, 16};
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "none";
  cfg.step = sim::StepMode::overlap;
  cfg.threads = 1;
  return cfg;
}

/// A runner over SerialComm, optionally behind the timing decorator.
/// Members are declared in dependency order (destroyed in reverse).
struct Rig {
  transport::SerialComm serial;
  std::unique_ptr<TimingComm> timing;
  std::unique_ptr<sim::ParallelLbm> run;
};

/// The set-up a user pays before the first timed phase: construction,
/// seeded initialisation, plan/tile builds and the first phases.
std::unique_ptr<Rig> set_up(const sim::RunnerConfig& cfg, const DensityFn& init,
                            Tracer& tr, bool decorated) {
  auto rig = std::make_unique<Rig>();
  rig->timing = std::make_unique<TimingComm>(rig->serial, tr);
  transport::Communicator& comm =
      decorated ? static_cast<transport::Communicator&>(*rig->timing) : rig->serial;
  rig->run = std::make_unique<sim::ParallelLbm>(cfg, comm);
  rig->run->initialize(init);
  rig->run->run(kWarmupPhases);
  return rig;
}

struct Loop {
  std::vector<double> latency_s;
  double wall_s = 0;
  double last_compute_s = 0;  ///< busy time of the last phase
};

Loop timed_loop(sim::ParallelLbm& run, double seconds, std::size_t min_ops,
                Tracer& tr) {
  Loop l;
  const double start = now_s();
  while (now_s() - start < seconds || l.latency_s.size() < min_ops) {
    const double c0 = run.stats().compute_seconds;
    const double a = now_s();
    run.run(1);
    const double b = now_s();
    l.latency_s.push_back(b - a);
    l.last_compute_s = run.stats().compute_seconds - c0;
    tr.record("sim.phase", a, b, 0, static_cast<long long>(l.latency_s.size()));
  }
  l.wall_s = now_s() - start;
  return l;
}

double loop_mlups(const Loop& l, long long cells) {
  return static_cast<double>(cells) * static_cast<double>(l.latency_s.size()) /
         l.wall_s / 1e6;
}

}  // namespace

void run_kernel_large(const Options& opt, Result& res, Tracer& tr) {
  const sim::RunnerConfig cfg = config();
  const DensityFn init = seeded_density(cfg.fluid, opt.seed);
  const long long cells = fluid_cells(cfg.global);

  // Output check, off the clock: the default backend equals the scalar
  // backend byte for byte over a short prefix.
  {
    const Observables ref = scalar_reference(cfg, init, kVerifyPhases);
    transport::SerialComm comm;
    sim::ParallelLbm run(cfg, comm);
    run.initialize(init);
    run.run(kVerifyPhases);
    res.check(same_bytes(collect_observables(run), ref),
              "kernel_large observables differ from the scalar 1-rank reference");
  }

  const auto mass_check = [&](sim::ParallelLbm& run, const std::vector<double>& m0) {
    const double drift = mass_drift(m0, run.global_masses_ordered());
    res.check(drift <= kMassTolerance,
              "kernel_large mass drift " + std::to_string(drift));
  };

  if (!opt.trace) {
    EndToEnd e;
    std::vector<double> setups;
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kSetups; ++i) {
      rig.reset();
      const double t0 = now_s();
      rig = set_up(cfg, init, tr, false);
      setups.push_back(now_s() - t0);
    }
    e.setup_s = trimmed_mean(setups);
    sim::ParallelLbm& run = *rig->run;
    const std::vector<double> m0 = run.global_masses_ordered();
    const Loop l = timed_loop(run, opt.seconds, kMinOperations, tr);
    mass_check(run, m0);
    res.operations(static_cast<long long>(l.latency_s.size()), 0);
    e.cell_updates = static_cast<double>(cells) * static_cast<double>(l.latency_s.size());
    e.wall_s = l.wall_s;
    e.latency_s = l.latency_s;
    e.sequential = true;
    e.peak_rss_mb = peak_rss_mb();
    report_end_to_end(e, res);
    return;
  }

  // Traced: half the time untraced, half behind the decorator with spans.
  double plain_mlups = 0;
  {
    auto rig = set_up(cfg, init, tr, false);
    Tracer off(false);
    plain_mlups = loop_mlups(timed_loop(*rig->run, opt.seconds / 2, 10, off), cells);
  }
  report_norm_efficiency(plain_mlups, one_rank_mlups(cfg, init, 5, 2), 1.0, res);
  {
    auto rig = set_up(cfg, init, tr, true);
    sim::ParallelLbm& run = *rig->run;
    const RankCounters c0 = read_counters(run, *rig->timing, rig->serial);
    const std::vector<double> m0 = run.global_masses_ordered();
    const Loop l = timed_loop(run, opt.seconds / 2, 10, tr);
    RankCounters c1 = read_counters(run, *rig->timing, rig->serial);
    c1.last_window_compute_s = l.last_compute_s;
    mass_check(run, m0);
    res.operations(static_cast<long long>(l.latency_s.size()), 0);
    report_rank_layers({c1 - c0}, static_cast<long long>(l.latency_s.size()), res);
    res.set("trace.overhead_frac", 1.0 - loop_mlups(l, cells) / plain_mlups,
            "fraction");
    probe_checkpoint(run, *rig->timing, &res, tr);
  }
  probe_lbm(cfg.global, cfg.fluid, init, 1.0, res, tr);
  res.set("lbm.working_set_mb", peak_rss_mb(), "MB");
  probe_triad(res, tr);
  set_serve_unexercised(res);
}

}  // namespace perfbench
