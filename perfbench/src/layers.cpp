#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>

#include "lbm/simulation.hpp"
#include "transport/serial_comm.hpp"
#include "transport/shm_comm.hpp"

namespace perfbench {

namespace lbm = sl::lbm;
namespace sim = sl::sim;
namespace transport = sl::transport;

long long fluid_cells(const lbm::Extents& global) {
  const lbm::ChannelGeometry geom(global);
  long long n = 0;
  for (lbm::index_t x = 0; x < global.nx; ++x)
    for (lbm::index_t y = 0; y < global.ny; ++y)
      for (lbm::index_t z = 0; z < global.nz; ++z)
        if (!geom.solid(x, y, z)) ++n;
  return n;
}

Observables collect_observables(sim::ParallelLbm& run) {
  run.refresh_observables();
  Observables o;
  o.masses = run.global_masses_ordered();
  const lbm::Extents& g = run.slab().geometry().global();
  o.profile = run.gather_velocity_profile_y(g.nx / 2, g.nz / 2);
  return o;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bytes(const Observables& a, const Observables& b) {
  return same_bytes(a.masses, b.masses) && same_bytes(a.profile, b.profile);
}

namespace {

/// `cfg` as one rank runs it: no slowdown vector, no remapping, no output.
sim::RunnerConfig one_rank(sim::RunnerConfig cfg) {
  cfg.slowdown.clear();
  cfg.policy = "none";
  cfg.metrics = nullptr;
  cfg.output = sim::OutputOptions{};
  return cfg;
}

}  // namespace

Observables scalar_reference(const sim::RunnerConfig& cfg, const DensityFn& init,
                             int phases) {
  const lbm::KernelBackend def = lbm::active_kernel_backend();
  lbm::set_kernel_backend(lbm::KernelBackend::scalar);
  transport::SerialComm comm;
  Observables o;
  {
    sim::ParallelLbm run(one_rank(cfg), comm);
    run.initialize(init);
    run.run(phases);
    o = collect_observables(run);
  }
  lbm::set_kernel_backend(def);
  return o;
}

double one_rank_mlups(const sim::RunnerConfig& cfg, const DensityFn& init,
                      int blocks, int phases_per_block) {
  transport::SerialComm comm;
  sim::ParallelLbm run(one_rank(cfg), comm);
  run.initialize(init);
  run.run(2);
  std::vector<double> t;
  for (int b = 0; b < blocks; ++b) {
    const double t0 = now_s();
    run.run(phases_per_block);
    t.push_back(now_s() - t0);
  }
  return static_cast<double>(fluid_cells(cfg.global)) * phases_per_block /
         median(t) / 1e6;
}

double mass_drift(const std::vector<double>& before,
                  const std::vector<double>& after) {
  if (before.size() != after.size() || before.empty())
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t c = 0; c < before.size(); ++c)
    worst = std::max(worst, std::abs(after[c] - before[c]) / std::abs(before[c]));
  return worst;
}

// --- lbm -----------------------------------------------------------------

namespace {

/// Time `fn` repeatedly: at least 10 samples, then until `budget_s` has
/// passed or 200 samples exist.
std::vector<double> sample(double budget_s, const std::function<double()>& fn) {
  std::vector<double> v;
  const double t0 = now_s();
  while (v.size() < 10 || (now_s() - t0 < budget_s && v.size() < 200))
    v.push_back(fn());
  return v;
}

}  // namespace

void probe_lbm(const lbm::Extents& global, const lbm::FluidParams& fluid,
               const DensityFn& init, double budget_s, Result& res, Tracer& tr) {
  // Plan and tile builds on three fresh slabs; the last one is probed.
  std::vector<double> plan_s, tile_s;
  std::unique_ptr<lbm::Simulation> simu;
  for (int i = 0; i < 3; ++i) {
    simu.reset();
    simu = std::make_unique<lbm::Simulation>(global, fluid);
    simu->initialize(init);
    lbm::Slab& s = simu->slab();
    plan_s.push_back(timed(tr, "lbm.plan_build", [&] { (void)s.plan(); }));
    tile_s.push_back(timed(tr, "lbm.tile_build", [&] { (void)s.tiles(); }));
  }
  res.set("lbm.plan_build_s", median(plan_s), "s");
  res.set("lbm.tile_build_s", median(tile_s), "s");

  lbm::Slab& slab = simu->slab();
  lbm::PeriodicSelfExchanger halo;
  const auto phase = [&] { lbm::step_phase(slab, halo, lbm::KernelPath::plan); };

  // Whole-phase time on every backend this build and CPU can run.
  const lbm::KernelBackend def = lbm::active_kernel_backend();
  for (const lbm::KernelBackend b :
       {lbm::KernelBackend::scalar, lbm::KernelBackend::autovec,
        lbm::KernelBackend::avx2, lbm::KernelBackend::avx512}) {
    const std::string name = std::string("lbm.phase_ms.") + lbm::to_string(b);
    if (!lbm::kernel_backend_supported(b)) {
      res.set(name, 0.0, "ms");
      continue;
    }
    lbm::set_kernel_backend(b);
    phase();
    phase();
    const std::vector<double> t =
        sample(budget_s, [&] { return timed(tr, name, phase); });
    res.set(name, 1e3 * median(t), "ms");
  }
  lbm::set_kernel_backend(def);

  // Pass attribution on the default backend: whole phases interleaved
  // with phases run pass by pass (the same calls step_phase makes).
  phase();
  std::vector<double> whole, bh, fcs, dens, force;
  (void)sample(budget_s, [&] {
    const double t = timed(tr, "lbm.phase", phase);
    whole.push_back(t);
    const long long parent = tr.reserve();
    const double p0 = now_s();
    bh.push_back(timed(tr, "lbm.boundary_halo", [&] {
      lbm::collide_boundary_planes(slab);
      halo.exchange_f(slab);
    }, parent));
    fcs.push_back(timed(tr, "lbm.fused_collide_stream",
                        [&] { lbm::fused_collide_stream(slab); }, parent));
    dens.push_back(timed(tr, "lbm.density", [&] {
      lbm::compute_density(slab);
      halo.exchange_density(slab);
    }, parent));
    force.push_back(timed(tr, "lbm.force_velocity",
                          [&] { lbm::compute_forces_and_velocity_plan(slab); },
                          parent));
    tr.record_reserved(parent, "lbm.phase_by_pass", p0, now_s());
    return t;
  });
  const double phase_s = median(whole);
  const double pass_sum =
      median(bh) + median(fcs) + median(dens) + median(force);
  res.set("lbm.boundary_halo_ms", 1e3 * median(bh), "ms");
  res.set("lbm.fused_collide_stream_ms", 1e3 * median(fcs), "ms");
  res.set("lbm.density_ms", 1e3 * median(dens), "ms");
  res.set("lbm.force_velocity_ms", 1e3 * median(force), "ms");
  res.set("lbm.phase_ms", 1e3 * phase_s, "ms");
  res.check(std::abs(pass_sum / phase_s - 1.0) <= kPassSumTolerance,
            "lbm pass medians sum to " + std::to_string(pass_sum / phase_s) +
                " x the phase median (tolerance " +
                std::to_string(kPassSumTolerance) + ")");

  // Analytic (computed) traffic of one two-component plan phase per
  // interior cell: per component, fused collide+stream reads 19 f + n +
  // 3 ueq and writes 19 f_post (42 doubles), density reads 19 f and
  // writes n (20), force reads 18 psi + 18 f + 2 n and writes 3 ueq (40);
  // plus 4 mixture writes. Cache misses and write-allocate are ignored.
  const double bytes_per_cell =
      8.0 * (static_cast<double>(fluid.num_components()) * (42 + 20 + 40) + 4);
  res.set("lbm.computed_bytes_per_cell", bytes_per_cell, "B");
  res.set("lbm.phase_gbps",
          bytes_per_cell * static_cast<double>(fluid_cells(global)) / phase_s /
              1e9,
          "GB/s");
}

void probe_triad(Result& res, Tracer& tr) {
  const std::size_t llc = llc_bytes();
  const std::size_t bytes = std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const std::size_t n = bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    best = std::min(best, timed(tr, "lbm.triad", [&] {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    }));
  }
  res.check(a[n / 2] == 7.0 && a[n - 1] == 7.0, "triad result");
  // STREAM convention: 24 bytes per element (two reads, one write).
  const double gbps = 24.0 * static_cast<double>(n) / best / 1e9;
  res.set("lbm.triad_gbps", gbps, "GB/s");
  res.set("lbm.triad_array_mb", static_cast<double>(bytes) / 1e6, "MB");
  res.set("lbm.llc_mb", static_cast<double>(llc) / 1e6, "MB");
  res.set("lbm.roofline_frac", res.value("lbm.phase_gbps") / gbps, "fraction");
}

void probe_checkpoint(sim::ParallelLbm& run, transport::Communicator& comm,
                      Result* res, Tracer& tr) {
  const std::string sync_path = work_dir() + "/probe.sync.ckpt";
  const std::string async_path = work_dir() + "/probe.async.ckpt";
  std::vector<double> sync_s, async_s;
  for (int i = 0; i < 3; ++i) {
    comm.barrier();
    double t0 = now_s();
    run.save_checkpoint(sync_path);
    comm.barrier();
    double t1 = now_s();
    sync_s.push_back(t1 - t0);
    tr.record("obs.checkpoint", t0, t1, 0, -1, comm.rank());
    comm.barrier();
    t0 = now_s();
    run.save_checkpoint_async(async_path);
    run.flush_output();
    comm.barrier();
    t1 = now_s();
    async_s.push_back(t1 - t0);
    tr.record("obs.checkpoint_async", t0, t1, 0, -1, comm.rank());
  }
  if (res != nullptr) {
    res->set("obs.checkpoint_ms", 1e3 * median(sync_s), "ms");
    res->set("obs.checkpoint_async_ms", 1e3 * median(async_s), "ms");
    res->set("obs.checkpoint_mb",
             static_cast<double>(std::filesystem::file_size(sync_path)) / 1e6,
             "MB");
    res->check(std::filesystem::file_size(sync_path) ==
                   std::filesystem::file_size(async_path),
               "sync and async checkpoints differ in size");
  }
  comm.barrier();
  if (comm.rank() == 0) {
    std::filesystem::remove(sync_path);
    std::filesystem::remove(async_path);
  }
}

// --- sim / transport / balance counters ------------------------------------

RankCounters read_counters(sim::ParallelLbm& run, const TimingComm& timing,
                           transport::Communicator& inner) {
  RankCounters c;
  const sim::RankStats& st = run.stats();
  c.compute_s = st.compute_seconds;
  c.comm_s = st.comm_seconds;
  c.remap_s = st.remap_seconds;
  c.planes_sent = st.planes_sent;
  c.planes = st.planes;
  const sl::obs::MetricsRegistry& reg = run.profiler().registry();
  const int r = run.profiler().rank();
  c.interior_s = reg.counter(r, "time/interior");
  c.halo_wait_s = reg.counter(r, "time/halo_wait");
  c.plan_s = reg.counter(r, "time/plan");
  c.remaps = reg.counter(r, "remap_invocations");
  c.comm_counts = timing.counts();
  if (const auto* shm = dynamic_cast<const transport::ShmComm*>(&inner)) {
    const transport::ShmStats s = shm->stats();
    c.futex_waits = s.futex_waits;
    c.spilled_frames = s.spilled_frames;
  }
  return c;
}

RankCounters operator-(const RankCounters& a, const RankCounters& b) {
  RankCounters d = a;  // planes and last-window time are end values
  d.compute_s -= b.compute_s;
  d.comm_s -= b.comm_s;
  d.remap_s -= b.remap_s;
  d.interior_s -= b.interior_s;
  d.halo_wait_s -= b.halo_wait_s;
  d.plan_s -= b.plan_s;
  d.remaps -= b.remaps;
  d.planes_sent -= b.planes_sent;
  d.comm_counts.messages -= b.comm_counts.messages;
  d.comm_counts.bytes -= b.comm_counts.bytes;
  d.comm_counts.wait_seconds -= b.comm_counts.wait_seconds;
  d.comm_counts.collective_seconds -= b.comm_counts.collective_seconds;
  d.futex_waits -= b.futex_waits;
  d.spilled_frames -= b.spilled_frames;
  return d;
}

void report_rank_layers(const std::vector<RankCounters>& delta, long long phases,
                        Result& res) {
  const auto over = [&](auto field) {
    std::vector<double> v;
    for (const RankCounters& c : delta) v.push_back(static_cast<double>(field(c)));
    return v;
  };
  const auto vmax = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  const auto vsum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  const double ph = static_cast<double>(phases);

  const std::vector<double> compute = over([](auto& c) { return c.compute_s; });
  res.set("sim.compute_s_max", vmax(compute), "s");
  res.set("sim.compute_s_mean", mean(compute), "s");
  res.set("sim.comm_s_max", vmax(over([](auto& c) { return c.comm_s; })), "s");
  res.set("sim.halo_wait_s", vmax(over([](auto& c) { return c.halo_wait_s; })), "s");
  const double interior = vsum(over([](auto& c) { return c.interior_s; }));
  const double waits = vsum(over([](auto& c) { return c.halo_wait_s; }));
  res.set("sim.overlap_efficiency",
          interior + waits > 0.0 ? interior / (interior + waits) : 0.0, "fraction");
  res.set("sim.plan_rebuild_s", vsum(over([](auto& c) { return c.plan_s; })), "s");

  res.set("transport.msgs_per_phase",
          vsum(over([](auto& c) { return c.comm_counts.messages; })) / ph, "count");
  res.set("transport.bytes_per_phase",
          vsum(over([](auto& c) { return c.comm_counts.bytes; })) / ph, "B");
  res.set("transport.wait_s",
          vmax(over([](auto& c) { return c.comm_counts.wait_seconds; })), "s");
  res.set("transport.collective_s",
          vmax(over([](auto& c) { return c.comm_counts.collective_seconds; })), "s");
  res.set("transport.futex_waits", vsum(over([](auto& c) { return c.futex_waits; })),
          "count");
  res.set("transport.spilled_frames",
          vsum(over([](auto& c) { return c.spilled_frames; })), "count");

  res.set("balance.remaps", delta.front().remaps, "count");
  res.set("balance.planes_migrated",
          vsum(over([](auto& c) { return c.planes_sent; })), "count");
  res.set("balance.remap_s", vmax(over([](auto& c) { return c.remap_s; })), "s");
  res.set("balance.slow_rank_planes_end",
          static_cast<double>(delta[delta.size() > 1 ? 1 : 0].planes), "count");
  const std::vector<double> last =
      over([](auto& c) { return c.last_window_compute_s; });
  res.set("balance.imbalance", mean(last) > 0.0 ? vmax(last) / mean(last) : 1.0,
          "ratio");
}

}  // namespace perfbench
