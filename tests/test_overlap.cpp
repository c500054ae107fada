// Communication/computation overlap: the overlapped, multithreaded step
// schedule must be BYTE-identical to the legacy blocking one — same
// masses, same migration history, same velocity/density profiles — for
// every backend, rank count and thread count. Determinism rests on the
// same injected CountingClocks as the cross-backend suite; the filtered
// remapping policy is left ON so the comparison covers plane migrations
// and the plan rebuilds they force mid-run.
//
// The Wavefront suite pins the density -> psi -> force plane wavefront
// and its seam pass byte for byte against the sequential legacy kernels
// for every rank x lane partition, down to one-plane slabs.
//
// Naming note: tests that fork worker processes carry "Fork" in their
// name so the TSan CI job can exclude them (fork + TSan is unsupported).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lbm/simulation.hpp"
#include "lbm/stepper.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "sim/worker.hpp"
#include "transport/launcher.hpp"
#include "transport/serial_comm.hpp"
#include "transport/thread_comm.hpp"
#include "util/thread_pool.hpp"

using namespace slipflow;

namespace {

constexpr int kPhases = 40;

/// Same lattice/remap/clock setup as the cross-backend determinism test:
/// rank 1's clock runs 4x slower, so the filtered policy migrates planes
/// (and rebuilds streaming plans) mid-run on multi-rank configurations.
sim::RunnerConfig base_config(sim::StepMode step, int threads) {
  sim::RunnerConfig cfg;
  cfg.global = lbm::Extents{16, 6, 4};
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = 5;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;
  cfg.step = step;
  cfg.threads = threads;
  cfg.clock_factory = [](int rank) -> std::shared_ptr<obs::Clock> {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  return cfg;
}

std::string run_threads(int ranks, sim::StepMode step, int threads,
                        obs::MetricsRegistry* metrics = nullptr) {
  sim::RunnerConfig cfg = base_config(step, threads);
  cfg.metrics = metrics;
  std::string observables;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(kPhases);
    const std::string obs = sim::collect_observables(run, comm, cfg.global);
    if (comm.rank() == 0) observables = obs;
  });
  return observables;
}

std::string run_serial(sim::StepMode step, int threads) {
  const sim::RunnerConfig cfg = base_config(step, threads);
  transport::SerialComm comm;
  sim::ParallelLbm run(cfg, comm);
  run.initialize_uniform();
  run.run(kPhases);
  return sim::collect_observables(run, comm, cfg.global);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "slipflow_" + name + "." +
         std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Fork real worker processes (over shared-memory rings) with the given
/// step schedule and return rank 0's observables.
std::string run_workers(int ranks, const std::string& step, int threads) {
  const std::string out = temp_path("obs_overlap_" + step);
  transport::LaunchConfig lc;
  lc.ranks = ranks;
  lc.worker_command = {SLIPFLOW_WORKER_EXE,
                       "--nx=16",
                       "--ny=6",
                       "--nz=4",
                       "--phases=" + std::to_string(kPhases),
                       "--policy=filtered",
                       "--remap-interval=5",
                       "--window=3",
                       "--min-transfer=24",
                       "--clock=counting",
                       "--clock-step=1e-3",
                       "--slow-clock-rank=1",
                       "--slow-clock-factor=4",
                       "--recv-timeout=20",
                       "--step=" + step,
                       "--threads=" + std::to_string(threads),
                       "--observables-out=" + out};
  lc.heartbeat_interval = 0.1;
  lc.heartbeat_grace = 10.0;
  lc.wall_clock_timeout = 90.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  const std::string obs = read_file(out);
  std::remove(out.c_str());
  return obs;
}

}  // namespace

// --- single rank: overlap touches only the kernel split, no halos fly ---

TEST(Overlap, SerialRankMatchesBlockingForEveryThreadCount) {
  const std::string blocking = run_serial(sim::StepMode::blocking, 1);
  ASSERT_FALSE(blocking.empty());
  for (int threads : {1, 2, 4})
    EXPECT_EQ(run_serial(sim::StepMode::overlap, threads), blocking)
        << "overlap with " << threads << " threads diverged on SerialComm";
}

// --- thread backend: ranks x threads sweep, migrations included ---

class OverlapThreadRanks : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, OverlapThreadRanks, ::testing::Values(2, 4),
                         [](const auto& pinfo) {
                           return "Ranks" + std::to_string(pinfo.param);
                         });

TEST_P(OverlapThreadRanks, OverlapMatchesBlockingForEveryThreadCount) {
  const int ranks = GetParam();
  const std::string blocking =
      run_threads(ranks, sim::StepMode::blocking, 1);
  ASSERT_FALSE(blocking.empty());
  // the slowed rank must actually migrate planes, or this test would not
  // cover the mid-run plan rebuild path
  if (ranks == 4) {
    EXPECT_EQ(blocking.find("rank 1 planes 4 sent 0"), std::string::npos)
        << "expected rank 1 to shed planes:\n"
        << blocking.substr(0, 300);
  }
  for (int threads : {1, 2, 4})
    EXPECT_EQ(run_threads(ranks, sim::StepMode::overlap, threads), blocking)
        << "overlap with " << threads << " threads diverged at " << ranks
        << " ranks";
}

// --- overlap metrics: the new counters are published and consistent ---

TEST(Overlap, PublishesInteriorHaloWaitAndPerLaneCounters) {
  constexpr int kRanks = 2, kThreads = 2;
  obs::MetricsRegistry reg(kRanks);
  run_threads(kRanks, sim::StepMode::overlap, kThreads, &reg);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_GT(reg.counter(r, "time/interior"), 0.0);
    EXPECT_GT(reg.counter(r, "time/halo_wait"), 0.0);
    ASSERT_TRUE(reg.has_gauge(r, "overlap_efficiency"));
    const double eff = reg.gauge(r, "overlap_efficiency");
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 1.0);
    // every fluid cell's collide+stream belongs to exactly one lane, so
    // the per-lane counters partition the rank's cells_updated total
    double lane_sum = 0.0;
    for (int t = 0; t < kThreads; ++t)
      lane_sum += reg.counter(r, "thread/" + std::to_string(t) +
                                     "/cells_updated");
    EXPECT_DOUBLE_EQ(lane_sum, reg.counter(r, "cells_updated"));
  }
}

TEST(Overlap, BlockingModePublishesNoOverlapMetrics) {
  obs::MetricsRegistry reg(2);
  run_threads(2, sim::StepMode::blocking, 1, &reg);
  EXPECT_EQ(reg.counter(0, "time/interior"), 0.0);
  EXPECT_EQ(reg.counter(0, "time/halo_wait"), 0.0);
  EXPECT_FALSE(reg.has_gauge(0, "overlap_efficiency"));
}

// --- real processes (named "Fork" so the TSan job can skip them) ---

TEST(OverlapFork, WorkersMatchThreadBackendByByte) {
  // A 4-rank overlapped run with live plane migrations and mid-run plan
  // rebuilds must produce byte-identical observables whether halos ride
  // threads or shared-memory rings between processes.
  const std::string fork_obs = run_workers(4, "overlap", 2);
  ASSERT_FALSE(fork_obs.empty());
  EXPECT_EQ(fork_obs, run_threads(4, sim::StepMode::overlap, 2))
      << "overlapped worker processes diverged from in-process reference";
}

TEST(OverlapFork, BlockingFlagStillSupported) {
  const std::string fork_obs = run_workers(2, "blocking", 1);
  ASSERT_FALSE(fork_obs.empty());
  EXPECT_EQ(fork_obs, run_threads(2, sim::StepMode::blocking, 1));
}

// --- plane wavefront: every rank x lane partition vs the legacy oracle ---

namespace {

constexpr int kWavefrontPhases = 6;

// nx = 5 gives slabs of 1, 2, 3 and 5 planes over 1-3 ranks, so lanes
// get empty blocks and one-plane blocks with a seam on each side; nx = 13
// gives multi-plane blocks whose seams sit between two lanes.
const lbm::Extents kWavefrontGrids[] = {{5, 6, 5}, {13, 6, 5}};

struct WavefrontFluid {
  const char* name;
  lbm::FluidParams fluid;
};

std::vector<WavefrontFluid> wavefront_fluids() {
  lbm::FluidParams mrt = lbm::FluidParams::microchannel_defaults();
  mrt.components[1].collision = lbm::CollisionModel::mrt;
  return {{"microchannel", lbm::FluidParams::microchannel_defaults()},
          {"liquid_vapor", lbm::FluidParams::liquid_vapor()},
          {"mrt_component", mrt}};
}

/// Non-uniform, decomposition-invariant initial densities, so every
/// psi gradient and force is non-trivial.
std::function<double(std::size_t, lbm::index_t, lbm::index_t, lbm::index_t)>
wavefront_init(const lbm::FluidParams& p) {
  return [p](std::size_t c, lbm::index_t gx, lbm::index_t gy,
             lbm::index_t gz) {
    const auto h = static_cast<double>((3 * gx + 5 * gy + 7 * gz) % 11);
    return p.components[c].init_density * (1.0 + 0.05 * h / 11.0);
  };
}

/// Every plane's full state, indexed by global x: the migration record
/// (f, n, ueq per component) plus the total density and velocity the
/// force pass writes.
using PlaneStates = std::vector<std::vector<double>>;

void record_planes(const lbm::Slab& slab, PlaneStates& out) {
  const lbm::index_t pc = slab.plane_cells();
  for (lbm::index_t gx = slab.x_begin(); gx < slab.x_end(); ++gx) {
    std::vector<double> v(static_cast<std::size_t>(slab.migration_doubles(1)));
    slab.pack_owned_plane(gx, v);
    const lbm::index_t first = slab.local_x(gx) * pc;
    for (lbm::index_t cell = first; cell < first + pc; ++cell) {
      const lbm::Vec3 u = slab.velocity().at(cell);
      v.insert(v.end(), {slab.total_density()[cell], u.x, u.y, u.z});
    }
    out[static_cast<std::size_t>(gx)] = std::move(v);
  }
}

/// First global plane whose bytes differ, or -1.
long first_differing_plane(const PlaneStates& a, const PlaneStates& b) {
  for (std::size_t gx = 0; gx < a.size(); ++gx) {
    if (a[gx].size() != b[gx].size() ||
        std::memcmp(a[gx].data(), b[gx].data(),
                    a[gx].size() * sizeof(double)) != 0)
      return static_cast<long>(gx);
  }
  return -1;
}

PlaneStates legacy_states(std::shared_ptr<const lbm::ChannelGeometry> geom,
                          const lbm::FluidParams& fluid) {
  lbm::Simulation seq(geom, fluid);
  seq.set_kernel_path(lbm::KernelPath::legacy);
  seq.initialize(wavefront_init(fluid));
  seq.run(kWavefrontPhases);
  PlaneStates s(static_cast<std::size_t>(geom->global().nx));
  record_planes(seq.slab(), s);
  return s;
}

/// The runner on SerialComm (ranks == 0) or on `ranks` ThreadComm ranks.
PlaneStates runner_states(const lbm::Extents& grid,
                          const lbm::FluidParams& fluid, int ranks,
                          sim::StepMode step, int threads) {
  sim::RunnerConfig cfg;
  cfg.global = grid;
  cfg.fluid = fluid;
  cfg.step = step;
  cfg.threads = threads;
  PlaneStates s(static_cast<std::size_t>(grid.nx));
  std::mutex mu;
  const auto body = [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize(wavefront_init(fluid));
    run.run(kWavefrontPhases);
    std::lock_guard<std::mutex> lk(mu);
    record_planes(run.slab(), s);
  };
  if (ranks == 0) {
    transport::SerialComm comm;
    body(comm);
  } else {
    transport::run_ranks(ranks, body);
  }
  return s;
}

/// Halo exchange among slabs that tile the x-periodic domain inside one
/// thread, in the runner's direction convention; one slab wraps onto
/// itself like PeriodicSelfExchanger.
class SlabRing final : public lbm::HaloExchanger {
 public:
  explicit SlabRing(std::vector<std::unique_ptr<lbm::Slab>>& slabs)
      : slabs_(slabs) {}
  void exchange_f(lbm::Slab& s) override {
    buf_.resize(static_cast<std::size_t>(s.f_halo_doubles()));
    left_of(s).extract_f_halo(lbm::Side::right, buf_);
    s.insert_f_halo(lbm::Side::left, buf_);
    right_of(s).extract_f_halo(lbm::Side::left, buf_);
    s.insert_f_halo(lbm::Side::right, buf_);
  }
  void exchange_density(lbm::Slab& s) override {
    buf_.resize(static_cast<std::size_t>(s.density_halo_doubles()));
    left_of(s).extract_density_halo(lbm::Side::right, buf_);
    s.insert_density_halo(lbm::Side::left, buf_);
    right_of(s).extract_density_halo(lbm::Side::left, buf_);
    s.insert_density_halo(lbm::Side::right, buf_);
  }

 private:
  std::size_t index_of(const lbm::Slab& s) const {
    for (std::size_t i = 0; i < slabs_.size(); ++i)
      if (slabs_[i].get() == &s) return i;
    throw std::logic_error("slab not in ring");
  }
  lbm::Slab& left_of(const lbm::Slab& s) {
    return *slabs_[(index_of(s) + slabs_.size() - 1) % slabs_.size()];
  }
  lbm::Slab& right_of(const lbm::Slab& s) {
    return *slabs_[(index_of(s) + 1) % slabs_.size()];
  }

  std::vector<std::unique_ptr<lbm::Slab>>& slabs_;
  std::vector<double> buf_;
};

/// The runner's stage list driven straight through lbm::PhaseKernels,
/// for geometries RunnerConfig cannot express: `ranks` slabs in the
/// runner's initial decomposition, each piece run on `threads` lanes.
PlaneStates piece_states(std::shared_ptr<const lbm::ChannelGeometry> geom,
                         const lbm::FluidParams& fluid, int ranks,
                         int threads) {
  const lbm::index_t nx = geom->global().nx;
  std::vector<std::unique_ptr<lbm::Slab>> slabs;
  for (int r = 0; r < ranks; ++r) {
    const auto [begin, mine] = sim::initial_extent(nx, ranks, r);
    slabs.push_back(std::make_unique<lbm::Slab>(geom, fluid, begin, mine));
  }
  SlabRing ring(slabs);
  for (auto& s : slabs) s->initialize(wavefront_init(fluid));
  for (auto& s : slabs) lbm::prime(*s, ring);

  util::ThreadPool pool(threads);
  std::vector<lbm::PhaseKernels> k(slabs.size());
  for (int phase = 0; phase < kWavefrontPhases; ++phase) {
    for (std::size_t i = 0; i < slabs.size(); ++i) {
      k[i].bind(*slabs[i]);
      lbm::collide_boundary_planes(*slabs[i]);
    }
    for (auto& s : slabs) ring.exchange_f(*s);
    for (auto& ki : k) {
      pool.run([&](int lane, int lanes) { (void)ki.stream(lane, lanes); });
      ki.finish_stream();
      ki.edge_density();
    }
    for (auto& s : slabs) ring.exchange_density(*s);
    for (auto& ki : k) {
      pool.run([&](int lane, int lanes) { ki.interior_force(lane, lanes); });
      pool.run([&](int lane, int lanes) { ki.seam_force(lane, lanes); });
      ki.finish_force();
    }
  }
  PlaneStates s(static_cast<std::size_t>(nx));
  for (const auto& slab : slabs) record_planes(*slab, s);
  return s;
}

}  // namespace

TEST(Wavefront, RunnerMatchesSequentialLegacyForEveryPartition) {
  for (const WavefrontFluid& w : wavefront_fluids())
    for (const lbm::Extents& grid : kWavefrontGrids) {
      const PlaneStates ref = legacy_states(
          std::make_shared<lbm::ChannelGeometry>(grid), w.fluid);
      for (int ranks : {0, 1, 2, 3})  // 0 = one SerialComm rank
        for (const sim::StepMode step :
             {sim::StepMode::blocking, sim::StepMode::overlap})
          for (int threads : {1, 2, 3, 4}) {
            const long gx = first_differing_plane(
                runner_states(grid, w.fluid, ranks, step, threads), ref);
            EXPECT_EQ(gx, -1)
                << w.name << " nx=" << grid.nx << " ranks=" << ranks
                << (step == sim::StepMode::blocking ? " blocking" : " overlap")
                << " threads=" << threads << ": plane " << gx
                << " differs from the legacy oracle";
          }
    }
}

TEST(Wavefront, ObstaclePiecesMatchSequentialLegacyForEveryPartition) {
  const lbm::FluidParams fluid = lbm::FluidParams::microchannel_defaults();
  for (const lbm::Extents& grid : kWavefrontGrids) {
    const auto geom = std::make_shared<lbm::ChannelGeometry>(
        grid, [](lbm::index_t gx, lbm::index_t gy, lbm::index_t gz) {
          return gx >= 1 && gx < 3 && gy >= 2 && gy < 4 && gz >= 1 && gz < 3;
        });
    const PlaneStates ref = legacy_states(geom, fluid);
    for (int ranks : {1, 2, 3})
      for (int threads : {1, 2, 3, 4}) {
        const long gx = first_differing_plane(
            piece_states(geom, fluid, ranks, threads), ref);
        EXPECT_EQ(gx, -1) << "nx=" << grid.nx << " ranks=" << ranks
                          << " threads=" << threads << ": plane " << gx
                          << " differs from the legacy oracle";
      }
  }
}
