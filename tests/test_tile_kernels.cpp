// Equivalence and structural tests for the SIMD tile kernel path.
//
// Every KernelBackend this build/CPU supports must reproduce the scalar
// plan path to within 1e-13 per population across a sweep of odd/prime
// grid extents (chosen so runs leave every possible tile-tail length),
// geometries, component counts and collision operators — and the
// density pass must be bit-identical (pure additions in a fixed order).
// Structurally, the TileLayout must chop the plan's interior runs into
// tiles that cover every run cell exactly once, never span a run, and
// file each plane's force tiles over the same cells as the plan's; the
// fused kernel's write pattern replayed over tiles (plus the plan's
// boundary links and halo pulls) must hit every fluid slot exactly
// once. Finally a migrating multi-rank run on a SIMD backend must match
// the sequential scalar reference, pinning partition invariance.

#include <gtest/gtest.h>

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "lbm/observables.hpp"
#include "lbm/plan.hpp"
#include "lbm/simulation.hpp"
#include "lbm/tile.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_lbm.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::lbm;

namespace {

constexpr double kTol = 1e-13;

/// Pin the process-global backend for a scope; restores scalar (the
/// reference) on exit so test order cannot leak a SIMD backend.
struct BackendGuard {
  explicit BackendGuard(KernelBackend b) { set_kernel_backend(b); }
  ~BackendGuard() { set_kernel_backend(KernelBackend::scalar); }
};

std::vector<KernelBackend> simd_backends() {
  std::vector<KernelBackend> out;
  for (KernelBackend b : supported_kernel_backends())
    if (b != KernelBackend::scalar) out.push_back(b);
  return out;
}

// Odd/prime extents: nz in {3, 5, 7, 11} leaves interior runs of every
// short length, so every backend exercises every masked-tail width; the
// {6,5,16} case gives runs longer than one tile plus a tail.
const Extents kGrids[] = {
    {7, 5, 3}, {5, 3, 7}, {3, 4, 5}, {6, 5, 16}, {4, 7, 11},
};

struct GeoCase {
  const char* name;
  bool walls_y = false;
  bool walls_z = false;
  bool obstacle = false;
  bool moving = false;
  bool patterned = false;
};

const GeoCase kGeoCases[] = {
    {"periodic", false, false},
    {"channel", true, true},
    {"obstacles", true, true, /*obstacle=*/true},
    {"moving_walls", true, true, false, /*moving=*/true},
    {"patterned", true, true, false, false, /*patterned=*/true},
};

std::shared_ptr<const ChannelGeometry> make_geom(const GeoCase& gc,
                                                 const Extents& e) {
  std::function<bool(index_t, index_t, index_t)> obstacle;
  if (gc.obstacle) {
    // one solid cell near the middle — enough to split runs on any grid
    const index_t ox = e.nx / 2, oy = e.ny / 2, oz = e.nz / 2;
    obstacle = [ox, oy, oz](index_t gx, index_t gy, index_t gz) {
      return gx == ox && gy == oy && gz == oz;
    };
  }
  auto g = std::make_shared<ChannelGeometry>(e, obstacle, gc.walls_y,
                                             gc.walls_z);
  if (gc.moving) {
    g->set_wall_velocity(ChannelGeometry::Wall::z_low, {0.02, 0.01, 0.0});
    g->set_wall_velocity(ChannelGeometry::Wall::y_high, {-0.01, 0.0, 0.005});
  }
  return g;
}

FluidParams make_params(int ncomp, CollisionModel cm, const GeoCase& gc) {
  FluidParams p = ncomp == 1
                      ? FluidParams::single_component(/*tau=*/0.8, 1e-5)
                      : FluidParams::microchannel_defaults(0.1, 1.5, 0.05,
                                                           1.0, 2e-5);
  if (ncomp == 1 && (gc.walls_y || gc.walls_z))
    p.components[0].wall_accel = 0.15;
  if (gc.patterned) {
    p.wall_pattern = [](index_t gx, index_t gy, index_t gz) {
      return 1.0 + 0.5 * static_cast<double>((gx + gy + gz) % 2);
    };
  }
  for (auto& c : p.components) c.collision = cm;
  return p;
}

double init_density(const FluidParams& p, std::size_t c, index_t gx,
                    index_t gy, index_t gz) {
  const double base = p.components[c].init_density;
  const auto h = static_cast<double>((3 * gx + 5 * gy + 7 * gz) % 11);
  return base * (1.0 + 0.05 * h / 11.0);
}

void expect_slabs_match(const Slab& tile_s, const Slab& ref_s) {
  const Extents& e = tile_s.storage();
  for (index_t lx = 1; lx <= tile_s.nx_local(); ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        for (std::size_t c = 0; c < tile_s.num_components(); ++c) {
          for (int d = 0; d < kQ; ++d)
            ASSERT_NEAR(tile_s.f(c).at(d, cell), ref_s.f(c).at(d, cell), kTol)
                << "f c=" << c << " d=" << d << " @(" << lx << "," << y << ","
                << z << ")";
          ASSERT_NEAR(tile_s.density(c)[cell], ref_s.density(c)[cell], kTol)
              << "n c=" << c;
          const Vec3 ua = tile_s.ueq(c).at(cell);
          const Vec3 ub = ref_s.ueq(c).at(cell);
          ASSERT_NEAR(ua.x, ub.x, kTol) << "ueq.x c=" << c;
          ASSERT_NEAR(ua.y, ub.y, kTol) << "ueq.y c=" << c;
          ASSERT_NEAR(ua.z, ub.z, kTol) << "ueq.z c=" << c;
        }
        const Vec3 va = tile_s.velocity().at(cell);
        const Vec3 vb = ref_s.velocity().at(cell);
        ASSERT_NEAR(va.x, vb.x, kTol) << "u.x";
        ASSERT_NEAR(va.y, vb.y, kTol) << "u.y";
        ASSERT_NEAR(va.z, vb.z, kTol) << "u.z";
      }
}

void run_sim(Simulation& sim, const FluidParams& params, int phases) {
  const auto init = [&params](std::size_t c, index_t gx, index_t gy,
                              index_t gz) {
    return init_density(params, c, gx, gy, gz);
  };
  sim.initialize(init);
  sim.run(phases);
}

}  // namespace

// -- backend equivalence: {5 grids} x {5 geometries} x {1,2 comp} x
//    {BGK, MRT} x every supported SIMD backend vs scalar ----------------

TEST(TileKernels, BackendsMatchScalarAcrossMatrix) {
  const auto backends = simd_backends();
  ASSERT_FALSE(backends.empty()) << "no SIMD backend compiled in";
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases)
      for (int ncomp : {1, 2})
        for (CollisionModel cm : {CollisionModel::bgk, CollisionModel::mrt}) {
          const auto geom = make_geom(gc, e);
          const FluidParams params = make_params(ncomp, cm, gc);
          Simulation ref(geom, params);
          ref.set_kernel_path(KernelPath::plan);
          {
            BackendGuard g(KernelBackend::scalar);
            run_sim(ref, params, 10);
          }
          for (KernelBackend b : backends) {
            SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) +
                         "x" + std::to_string(e.ny) + "x" +
                         std::to_string(e.nz) + " ncomp=" +
                         std::to_string(ncomp) + " " +
                         (cm == CollisionModel::bgk ? "bgk" : "mrt") + " " +
                         to_string(b));
            Simulation tile_sim(geom, params);
            tile_sim.set_kernel_path(KernelPath::plan);
            BackendGuard g(b);
            run_sim(tile_sim, params, 10);
            expect_slabs_match(tile_sim.slab(), ref.slab());
          }
        }
}

TEST(TileKernels, DensityBitIdenticalAcrossBackends) {
  // the density pass is pure additions in a fixed order: from the same
  // populations, every backend must produce the exact same bits
  const Extents e{6, 5, 11};
  const auto geom = make_geom(kGeoCases[1], e);
  const FluidParams params = make_params(2, CollisionModel::bgk, kGeoCases[1]);
  Simulation probe(geom, params);
  probe.set_kernel_path(KernelPath::plan);
  {
    BackendGuard gs(KernelBackend::scalar);
    run_sim(probe, params, 6);
  }
  Slab& ps = probe.slab();
  std::vector<std::vector<double>> scalar_n;
  {
    BackendGuard gs(KernelBackend::scalar);
    compute_density(ps);
    for (std::size_t c = 0; c < ps.num_components(); ++c)
      scalar_n.emplace_back(ps.density(c).data().begin(),
                            ps.density(c).data().end());
  }
  for (KernelBackend b : simd_backends()) {
    SCOPED_TRACE(to_string(b));
    BackendGuard gb(b);
    compute_density(ps);
    for (std::size_t c = 0; c < ps.num_components(); ++c)
      for (index_t cell = 0; cell < ps.storage().cells(); ++cell)
        ASSERT_EQ(ps.density(c)[cell], scalar_n[c][cell])
            << "density not bit-identical, c=" << c << " cell=" << cell;
  }
}

// -- structural invariants of the TileLayout ---------------------------

namespace {

void expect_tiles_partition_runs(const StreamingPlan& plan,
                                 const TileLayout& layout) {
  // stream tiles: walking the tiles in order must walk the runs in
  // order, cell for cell, with every tile inside exactly one run
  std::size_t ri = 0;
  index_t consumed = 0;
  for (const Tile& t : layout.stream_tiles()) {
    ASSERT_GE(t.count, 1);
    ASSERT_LE(t.count, kTileWidth);
    ASSERT_LT(ri, plan.stream_interior().size());
    const auto& run = plan.stream_interior()[ri];
    ASSERT_EQ(t.cell, run.cell + consumed) << "tile not contiguous in run";
    ASSERT_EQ(t.yz, run.yz + consumed);
    ASSERT_EQ(t.gx, run.gx);
    ASSERT_LE(consumed + t.count, run.count) << "tile spans two runs";
    consumed += t.count;
    if (consumed == run.count) {
      ++ri;
      consumed = 0;
    }
  }
  ASSERT_EQ(ri, plan.stream_interior().size());
  ASSERT_EQ(consumed, 0);

  // force tiles: same partition property, plus each plane's tile slice
  // must cover exactly the cells of that plane's run slice
  ri = 0;
  consumed = 0;
  index_t total = 0;
  for (const Tile& t : layout.force_tiles()) {
    ASSERT_GE(t.count, 1);
    ASSERT_LE(t.count, kTileWidth);
    ASSERT_LT(ri, plan.force_interior().size());
    const auto& run = plan.force_interior()[ri];
    ASSERT_EQ(t.cell, run.cell + consumed);
    ASSERT_LE(consumed + t.count, run.count);
    consumed += t.count;
    total += t.count;
    if (consumed == run.count) {
      ++ri;
      consumed = 0;
    }
  }
  ASSERT_EQ(ri, plan.force_interior().size());

  const index_t pc = plan.storage().plane_cells();
  for (index_t lx = 1; lx <= plan.nx_local(); ++lx) {
    const auto [tb, te] = layout.force_tile_planes().planes(lx, lx + 1);
    const auto [rb, re] = plan.force_interior_planes().planes(lx, lx + 1);
    index_t tile_cells = 0, run_cells = 0;
    for (std::size_t i = tb; i < te; ++i) {
      const Tile& t = layout.force_tiles()[i];
      ASSERT_EQ(t.cell / pc, lx) << "tile " << i << " filed under plane " << lx;
      tile_cells += t.count;
    }
    for (std::size_t i = rb; i < re; ++i)
      run_cells += plan.force_interior()[i].count;
    EXPECT_EQ(tile_cells, run_cells) << "plane " << lx;
  }
  EXPECT_EQ(layout.stream_cells(), [&] {
    index_t n = 0;
    for (const auto& r : plan.stream_interior()) n += r.count;
    return n;
  }());
  EXPECT_EQ(layout.force_cells(), total);
}

// Replay the fused kernel's write pattern with tiles in place of runs
// and count how many times each (direction, cell) slot of f would be
// written — every fluid slot must come out exactly 1.
void expect_full_coverage_tiles(const ChannelGeometry& geom, index_t x_begin,
                                index_t nx_local) {
  const StreamingPlan plan(geom, x_begin, nx_local);
  const TileLayout layout(plan);
  const Extents& e = plan.storage();
  std::vector<int> writes(static_cast<std::size_t>(kQ) *
                              static_cast<std::size_t>(e.cells()),
                          0);
  const auto slot = [&](int d, index_t cell) -> int& {
    return writes[static_cast<std::size_t>(d) *
                      static_cast<std::size_t>(e.cells()) +
                  static_cast<std::size_t>(cell)];
  };
  for (const Tile& t : layout.stream_tiles())
    for (index_t i = 0; i < t.count; ++i)
      for (int d = 0; d < kQ; ++d)
        slot(d, t.cell + i + plan.dir_offset(d)) += 1;
  for (const auto& b : plan.stream_boundary()) {
    slot(0, b.cell) += 1;
    for (std::uint32_t l = b.link_begin; l < b.link_end; ++l)
      slot(plan.links()[l].dest_dir, plan.links()[l].dest) += 1;
  }
  for (const auto& h : plan.halo_pulls()) slot(h.dir, h.dest) += 1;

  std::vector<char> solid(static_cast<std::size_t>(e.cells()), 0);
  for (index_t s : plan.solids()) solid[static_cast<std::size_t>(s)] = 1;

  for (index_t lx = 0; lx < e.nx; ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        const bool owned = lx >= 1 && lx <= nx_local;
        for (int d = 0; d < kQ; ++d) {
          const int expected =
              owned && !solid[static_cast<std::size_t>(cell)] ? 1 : 0;
          ASSERT_EQ(slot(d, cell), expected)
              << "d=" << d << " @(" << lx << "," << y << "," << z << ")";
        }
      }
}

}  // namespace

TEST(TileStructure, TilesPartitionRunsExactly) {
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases) {
      SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) + "x" +
                   std::to_string(e.ny) + "x" + std::to_string(e.nz));
      const auto geom = make_geom(gc, e);
      for (index_t nx_local : {e.nx, index_t{2}, index_t{1}}) {
        const StreamingPlan plan(*geom, 0, nx_local);
        expect_tiles_partition_runs(plan, TileLayout(plan));
      }
    }
}

namespace {

/// The per-plane tile slices must partition force_tiles() in plane
/// order, each holding exactly the tiles of its plane, and the inner
/// planes [2, nx_local) must map to the slice the former inner markers
/// named: from the first tile past plane 1 to the first tile of plane
/// nx_local (no inner planes, and no markers, below two planes).
void expect_tile_plane_index(const TileLayout& layout, const Extents& storage) {
  const PlaneIndex& index = layout.force_tile_planes();
  const std::vector<Tile>& tiles = layout.force_tiles();
  const index_t nxl = storage.nx - 2;
  const index_t pc = storage.plane_cells();
  ASSERT_EQ(index.first.size(), static_cast<std::size_t>(nxl + 1));
  EXPECT_EQ(index.first.front(), 0u);
  EXPECT_EQ(index.first.back(), tiles.size());
  for (index_t lx = 1; lx <= nxl; ++lx) {
    const auto [b, e] = index.planes(lx, lx + 1);
    ASSERT_LE(b, e) << "plane " << lx;
    for (std::size_t i = b; i < e; ++i)
      ASSERT_EQ(tiles[i].cell / pc, lx) << "tile " << i;
  }
  if (nxl < 2) return;
  std::size_t before_inner = 0, before_last = 0;
  for (const Tile& t : tiles) {
    before_inner += t.cell / pc < 2 ? 1 : 0;
    before_last += t.cell / pc < nxl ? 1 : 0;
  }
  const auto [ib, ie] = index.planes(2, nxl);
  EXPECT_EQ(ib, before_inner);
  EXPECT_EQ(ie, before_last);
}

}  // namespace

TEST(TileStructure, PlaneIndexPartitionsForceTilesByPlane) {
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases) {
      SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) + "x" +
                   std::to_string(e.ny) + "x" + std::to_string(e.nz));
      const auto geom = make_geom(gc, e);
      for (index_t nx_local : {e.nx, index_t{2}, index_t{1}}) {
        const StreamingPlan plan(*geom, 0, nx_local);
        expect_tile_plane_index(TileLayout(plan), plan.storage());
      }

      // a plane migration drops both layouts; the rebuilt ones must
      // index exactly like layouts built fresh on the new extents
      const FluidParams params = make_params(2, CollisionModel::bgk, gc);
      Slab left(geom, params, 0, e.nx - 1);
      Slab right(geom, params, e.nx - 1, 1);
      (void)left.tiles();
      (void)right.tiles();
      std::vector<double> buf(
          static_cast<std::size_t>(left.migration_doubles(1)));
      left.detach_planes(Side::right, 1, buf);
      right.attach_planes(Side::left, 1, buf);
      for (const Slab* slab : {&left, &right}) {
        expect_tile_plane_index(slab->tiles(), slab->storage());
        const StreamingPlan fresh(*geom, slab->x_begin(), slab->nx_local());
        EXPECT_EQ(slab->tiles().force_tile_planes().first,
                  TileLayout(fresh).force_tile_planes().first);
      }
    }
}

TEST(TileStructure, EveryFluidSlotWrittenExactlyOnceViaTiles) {
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases) {
      SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) + "x" +
                   std::to_string(e.ny) + "x" + std::to_string(e.nz));
      const auto geom = make_geom(gc, e);
      expect_full_coverage_tiles(*geom, 0, e.nx);         // full domain
      expect_full_coverage_tiles(*geom, 1, e.nx - 2);     // mid slab
      expect_full_coverage_tiles(*geom, e.nx - 1, 1);     // 1-plane slab
    }
}

// -- partition invariance: migrating multi-rank run on a SIMD backend --

TEST(TileKernels, ParallelSimdRunMatchesSequentialScalar) {
  const auto backends = simd_backends();
  ASSERT_FALSE(backends.empty());
  const KernelBackend backend = backends.back();  // widest supported
  const Extents grid{18, 6, 4};

  sim::RunnerConfig cfg;
  cfg.global = grid;
  cfg.fluid = FluidParams::microchannel_defaults(0.05, 1.5, 0.03, 1.0, 2e-5);
  cfg.policy = "filtered";
  cfg.remap_interval = 4;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;  // one yz-plane of this grid
  cfg.slowdown = {0.0, 3.0, 0.0};
  obs::MetricsRegistry reg(3);
  cfg.metrics = &reg;
  const int phases = 40;

  Simulation seq(grid, cfg.fluid);
  seq.set_kernel_path(KernelPath::plan);
  {
    BackendGuard g(KernelBackend::scalar);
    seq.initialize_uniform();
    seq.run(phases);
  }
  std::vector<std::vector<double>> ref_w, ref_a, ref_u;
  for (index_t gx = 0; gx < grid.nx; ++gx) {
    ref_w.push_back(density_profile_y(seq.slab(), 0, gx, 2));
    ref_a.push_back(density_profile_y(seq.slab(), 1, gx, 2));
    ref_u.push_back(velocity_profile_y(seq.slab(), gx, 2));
  }

  std::vector<std::vector<double>> par_w(grid.nx), par_a(grid.nx),
      par_u(grid.nx);
  long long migrated = 0;
  std::mutex mu;
  BackendGuard g(backend);  // all rank-threads share the process global
  transport::run_ranks(3, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(phases);  // refreshes u_macro if the last phase migrated
    auto stats = run.gather_stats();
    for (index_t gx = 0; gx < grid.nx; ++gx) {
      auto w = run.gather_density_profile_y(0, gx, 2);
      auto a = run.gather_density_profile_y(1, gx, 2);
      auto u = run.gather_velocity_profile_y(gx, 2);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        const auto i = static_cast<std::size_t>(gx);
        par_w[i] = std::move(w);
        par_a[i] = std::move(a);
        par_u[i] = std::move(u);
      }
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      for (const auto& s : stats) migrated += s.planes_sent;
    }
  });

  EXPECT_GT(migrated, 0);  // the run really crossed plan+tile rebuilds
  for (std::size_t gx = 0; gx < par_w.size(); ++gx) {
    ASSERT_EQ(par_w[gx].size(), ref_w[gx].size());
    for (std::size_t j = 0; j < par_w[gx].size(); ++j) {
      EXPECT_NEAR(par_w[gx][j], ref_w[gx][j], kTol) << gx << "," << j;
      EXPECT_NEAR(par_a[gx][j], ref_a[gx][j], kTol) << gx << "," << j;
      EXPECT_NEAR(par_u[gx][j], ref_u[gx][j], kTol) << gx << "," << j;
    }
  }
}
