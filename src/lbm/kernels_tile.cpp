/// \file kernels_tile.cpp
/// Dispatcher of the tile/SIMD kernel path: binds Slab state into the
/// plain-pointer contexts of kernels_tile.hpp and forwards tile ranges
/// to the backend picked by KernelBackend. Also hosts the pieces that
/// stay scalar inside the tile path — MRT components (the moment-space
/// collision is not worth vectorizing at D3Q19 sizes) sweep the same
/// tiles cell by cell so coverage is identical either way — and the
/// density pass, whose scalar loop is the one backend-free branch.

#include "lbm/kernels.hpp"
#include "lbm/kernels_tile.hpp"
#include "lbm/mrt.hpp"
#include "lbm/plan.hpp"
#include "lbm/tile.hpp"

namespace slipflow::lbm {

namespace {

const tilek::Backend* tile_backend(KernelBackend b) {
  switch (b) {
    case KernelBackend::scalar:
      return nullptr;
    case KernelBackend::autovec:
      return tilek::tile_backend_autovec();
    case KernelBackend::avx2:
      return tilek::tile_backend_avx2();
    case KernelBackend::avx512:
      return tilek::tile_backend_avx512();
  }
  return nullptr;
}

/// Scalar MRT collide+push over tiles [tb, te) — the same per-cell body
/// fused_collide_stream_range runs over interior runs.
void mrt_stream_tiles(Slab& slab, std::size_t c, std::size_t tb,
                      std::size_t te) {
  const StreamingPlan& plan = slab.plan();
  const std::vector<Tile>& tiles = slab.tiles().stream_tiles();
  index_t off[kQ];
  for (int d = 0; d < kQ; ++d) off[d] = plan.dir_offset(d);

  const ComponentParams& cp = slab.params().components[c];
  const ScalarField& n = slab.density(c);
  const VectorField& ueq = slab.ueq(c);
  const DistField& f = slab.f(c);
  DistField& fp = slab.f_post(c);
  const MrtOperator& op = MrtOperator::instance();
  const MrtRates rates = MrtRates::for_tau(cp.tau);
  double fin[kQ], fout[kQ];
  for (std::size_t t = tb; t < te; ++t) {
    const Tile& tile = tiles[t];
    for (std::int32_t i = 0; i < tile.count; ++i) {
      const index_t cell = tile.cell + i;
      for (int d = 0; d < kQ; ++d) fin[d] = f.at(d, cell);
      op.collide_cell(fin, fout, n[cell], ueq.at(cell), rates);
      fp.at(0, cell) = fout[0];
      for (int d = 1; d < kQ; ++d) fp.at(d, cell + off[d]) = fout[d];
    }
  }
}

double eval_wall_pattern(const void* state, std::int64_t gx, std::int64_t y,
                         std::int64_t z) {
  const auto& fn =
      *static_cast<const std::function<double(index_t, index_t, index_t)>*>(
          state);
  return fn(gx, y, z);
}

}  // namespace

void fused_collide_stream_tiles(Slab& slab, KernelBackend backend,
                                std::size_t tile_begin, std::size_t tile_end) {
  const tilek::Backend* k = tile_backend(backend);
  SLIPFLOW_REQUIRE_MSG(k != nullptr,
                       "fused_collide_stream_tiles needs a tile backend");
  const StreamingPlan& plan = slab.plan();
  const std::vector<Tile>& tiles = slab.tiles().stream_tiles();
  SLIPFLOW_REQUIRE(tile_begin <= tile_end && tile_end <= tiles.size());

  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const ComponentParams& cp = slab.params().components[c];
    if (cp.collision == CollisionModel::mrt) {
      mrt_stream_tiles(slab, c, tile_begin, tile_end);
      continue;
    }
    tilek::StreamCtx ctx{};
    ctx.tiles = tiles.data();
    for (int d = 0; d < kQ; ++d) {
      ctx.f[d] = slab.f(c).dir(d).data();
      ctx.fp[d] = slab.f_post(c).dir(d).data();
      ctx.off[d] = plan.dir_offset(d);
    }
    ctx.n = slab.density(c).data().data();
    ctx.ux = slab.ueq(c).x().data().data();
    ctx.uy = slab.ueq(c).y().data().data();
    ctx.uz = slab.ueq(c).z().data().data();
    ctx.inv_tau = 1.0 / cp.tau;
    k->stream(ctx, tile_begin, tile_end);
  }
}

void compute_forces_tiles(Slab& slab, const PsiPointers& psi,
                          KernelBackend backend, std::size_t tile_begin,
                          std::size_t tile_end) {
  const tilek::Backend* k = tile_backend(backend);
  SLIPFLOW_REQUIRE_MSG(k != nullptr,
                       "compute_forces_tiles needs a tile backend");
  const StreamingPlan& plan = slab.plan();
  const std::vector<Tile>& tiles = slab.tiles().force_tiles();
  SLIPFLOW_REQUIRE(tile_begin <= tile_end && tile_end <= tiles.size());
  const FluidParams& prm = slab.params();
  const std::size_t nc = slab.num_components();
  SLIPFLOW_REQUIRE(nc <= tilek::kMaxComp);

  tilek::ForceCtx ctx{};
  ctx.tiles = tiles.data();
  ctx.ncomp = static_cast<int>(nc);
  for (int d = 0; d < kQ; ++d) ctx.off[d] = plan.dir_offset(d);
  ctx.nz = slab.storage().nz;
  for (std::size_t c = 0; c < nc; ++c) {
    const ComponentParams& cp = prm.components[c];
    ctx.psi[c] = psi[c];
    ctx.n[c] = slab.density(c).data().data();
    for (int d = 0; d < kQ; ++d) ctx.f[c][d] = slab.f(c).dir(d).data();
    ctx.ueq_x[c] = slab.ueq(c).x().data().data();
    ctx.ueq_y[c] = slab.ueq(c).y().data().data();
    ctx.ueq_z[c] = slab.ueq(c).z().data().data();
    ctx.mass[c] = cp.molecular_mass;
    ctx.tau[c] = cp.tau;
    ctx.wall_accel[c] = cp.wall_accel;
    for (std::size_t c2 = 0; c2 < nc; ++c2) ctx.g[c][c2] = prm.g(c, c2);
  }
  ctx.rho_tot = slab.total_density().data().data();
  ctx.u_x = slab.velocity().x().data().data();
  ctx.u_y = slab.velocity().y().data().data();
  ctx.u_z = slab.velocity().z().data().data();
  ctx.wall_unit = &slab.wall_accel_unit(0);
  ctx.gravity_x = prm.gravity_x;
  ctx.max_force_shift = prm.max_force_shift;
  if (prm.wall_pattern) {
    ctx.pattern = &eval_wall_pattern;
    ctx.pattern_state = &prm.wall_pattern;
  }
  k->forces(ctx, tile_begin, tile_end);
}

void compute_density_planes(Slab& slab, KernelBackend backend,
                            index_t plane_begin, index_t plane_end) {
  SLIPFLOW_REQUIRE(plane_begin >= 1 && plane_end <= slab.nx_local() + 1 &&
                   plane_begin <= plane_end);
  const Extents& st = slab.storage();
  const index_t first = plane_begin * st.plane_cells();
  const index_t count = (plane_end - plane_begin) * st.plane_cells();
  if (const tilek::Backend* k = tile_backend(backend)) {
    for (std::size_t c = 0; c < slab.num_components(); ++c) {
      tilek::DensityCtx ctx{};
      for (int d = 0; d < kQ; ++d) ctx.f[d] = slab.f(c).dir(d).data();
      ctx.n = slab.density(c).data().data();
      k->density(ctx, first, count);
    }
    return;
  }
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const DistField& f = slab.f(c);
    ScalarField& n = slab.density(c);
    std::span<double> nd = n.data().subspan(static_cast<std::size_t>(first),
                                            static_cast<std::size_t>(count));
    std::span<const double> f0 =
        f.dir(0).subspan(static_cast<std::size_t>(first),
                         static_cast<std::size_t>(count));
    for (index_t i = 0; i < count; ++i) nd[i] = f0[i];
    for (int d = 1; d < kQ; ++d) {
      std::span<const double> fd =
          f.dir(d).subspan(static_cast<std::size_t>(first),
                           static_cast<std::size_t>(count));
      for (index_t i = 0; i < count; ++i) nd[i] += fd[i];
    }
  }
}

// Fallback stubs for backends whose translation unit is not in this
// build (the CMake gates and these #if guards always agree).
#if !defined(SLIPFLOW_HAVE_AVX2)
namespace tilek {
const Backend* tile_backend_avx2() { return nullptr; }
}  // namespace tilek
#endif
#if !defined(SLIPFLOW_HAVE_AVX512)
namespace tilek {
const Backend* tile_backend_avx512() { return nullptr; }
}  // namespace tilek
#endif

}  // namespace slipflow::lbm
