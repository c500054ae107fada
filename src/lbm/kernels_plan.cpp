/// \file kernels_plan.cpp
/// Plan-based hot kernels: fused collide+stream over the StreamingPlan's
/// interior runs and boundary link tables, and the psi-cached force
/// kernel. Every per-cell expression is kept textually identical to the
/// legacy kernels in kernels.cpp so the two paths (and interior vs.
/// boundary classification, which changes with the decomposition) produce
/// bit-identical populations.

#include <algorithm>
#include <cmath>
#include <vector>

#include "lbm/kernels.hpp"
#include "lbm/kernels_tile.hpp"
#include "lbm/mrt.hpp"
#include "lbm/plan.hpp"
#include "util/thread_pool.hpp"

namespace slipflow::lbm {

namespace {
/// Densities below this are treated as vacuum when dividing by rho
/// (same constant as kernels.cpp).
constexpr double kTinyDensity = 1e-12;

/// BGK relaxation of one cell into out[0..18] — the exact expressions of
/// the legacy collide(), shared by the boundary-plane pre-collide and the
/// fused kernel so every path relaxes a cell to the same bits.
inline void bgk_cell(const DistField& f, index_t cell, double nc,
                     const Vec3& u, double inv_tau, double* out) {
  const double u2 = u.norm2();
  for (int d = 0; d < kQ; ++d) {
    const double cu = kCx[d] * u.x + kCy[d] * u.y + kCz[d] * u.z;
    const double feq =
        kWeight[d] * nc * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
    const double fold = f.at(d, cell);
    out[d] = fold - (fold - feq) * inv_tau;
  }
}
}  // namespace

void collide_boundary_planes(Slab& slab) {
  const Extents& st = slab.storage();
  const index_t pc = st.plane_cells();
  const index_t planes[2] = {1, slab.nx_local()};
  const int nplanes = slab.nx_local() == 1 ? 1 : 2;
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const ComponentParams& cp = slab.params().components[c];
    const ScalarField& n = slab.density(c);
    const VectorField& ueq = slab.ueq(c);
    const DistField& f = slab.f(c);
    DistField& fp = slab.f_post(c);
    const bool mrt = cp.collision == CollisionModel::mrt;
    const MrtOperator& op = MrtOperator::instance();
    const MrtRates rates = MrtRates::for_tau(cp.tau);
    const double inv_tau = 1.0 / cp.tau;
    double fin[kQ], fout[kQ];
    for (int p = 0; p < nplanes; ++p) {
      const index_t first = planes[p] * pc;
      const index_t last = first + pc;
      for (index_t cell = first; cell < last; ++cell) {
        if (mrt) {
          for (int d = 0; d < kQ; ++d) fin[d] = f.at(d, cell);
          op.collide_cell(fin, fout, n[cell], ueq.at(cell), rates);
        } else {
          bgk_cell(f, cell, n[cell], ueq.at(cell), inv_tau, fout);
        }
        for (int d = 0; d < kQ; ++d) fp.at(d, cell) = fout[d];
      }
    }
  }
}

namespace {

/// Collide+stream the slices [run_begin, run_end) of
/// plan.stream_interior() and [cell_begin, cell_end) of
/// plan.stream_boundary(). Reads only owned f/n/ueq; writes only the
/// f_post slots those cells' pushes and links own. No halo data is
/// touched: every stream cell (boundary ones included) is
/// halo-independent — the exchanged planes enter only through the halo
/// pulls of PhaseKernels::finish_stream.
void fused_collide_stream_range(Slab& slab, std::size_t run_begin,
                                std::size_t run_end, std::size_t cell_begin,
                                std::size_t cell_end) {
  const StreamingPlan& plan = slab.plan();
  index_t off[kQ];
  for (int d = 0; d < kQ; ++d) off[d] = plan.dir_offset(d);

  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const ComponentParams& cp = slab.params().components[c];
    const ScalarField& n = slab.density(c);
    const VectorField& ueq = slab.ueq(c);
    const DistField& f = slab.f(c);
    DistField& fp = slab.f_post(c);
    const bool mrt = cp.collision == CollisionModel::mrt;
    const MrtOperator& op = MrtOperator::instance();
    const MrtRates rates = MrtRates::for_tau(cp.tau);
    const double inv_tau = 1.0 / cp.tau;

    // Scratch is local so disjoint slices can run on pool threads.
    double fin[kQ], fout[kQ];
    const auto collide_one = [&](index_t cell) {
      if (mrt) {
        for (int d = 0; d < kQ; ++d) fin[d] = f.at(d, cell);
        op.collide_cell(fin, fout, n[cell], ueq.at(cell), rates);
      } else {
        bgk_cell(f, cell, n[cell], ueq.at(cell), inv_tau, fout);
      }
    };

    // Interior: every push lands at a fixed offset — collide the source
    // once and scatter the 19 outputs, no conditionals. This re-collides
    // the cells collide_boundary_planes already handled only when a run
    // touches them, which it never does (plane 1 / nx_local cells are
    // never stream-interior).
    const auto& runs = plan.stream_interior();
    for (std::size_t ri = run_begin; ri < run_end; ++ri) {
      const InteriorRun& r = runs[ri];
      for (index_t i = 0; i < r.count; ++i) {
        const index_t cell = r.cell + i;
        collide_one(cell);
        fp.at(0, cell) = fout[0];
        for (int d = 1; d < kQ; ++d) fp.at(d, cell + off[d]) = fout[d];
      }
    }

    // Boundary: walk the precomputed link table. Bounce-back links point
    // back at the cell itself with the moving-wall correction term's
    // c·u_wall baked in at plan-build time.
    const auto& links = plan.links();
    const auto& bcells = plan.stream_boundary();
    for (std::size_t bi = cell_begin; bi < cell_end; ++bi) {
      const StreamBoundaryCell& b = bcells[bi];
      collide_one(b.cell);
      fp.at(0, b.cell) = fout[0];
      for (std::uint32_t l = b.link_begin; l < b.link_end; ++l) {
        const StreamLink& lk = links[l];
        double v = fout[lk.out_dir];
        if (lk.wall_cu != 0.0)
          v += 2.0 * kWeight[lk.dest_dir] * n[b.cell] * lk.wall_cu / kCs2;
        fp.at(lk.dest_dir, lk.dest) = v;
      }
    }
  }
}

/// Force/velocity for the slices [run_begin, run_end) of
/// plan.force_interior() and [cell_begin, cell_end) of
/// plan.force_boundary(). Each cell writes only its own ueq / total
/// density / velocity entries. The caller guarantees every psi value the
/// slice gathers is ready (inner-plane slices need owned psi only;
/// edge-plane slices need the halo planes too).
void compute_forces_plan_range(Slab& slab, const PsiPointers& psi,
                               std::size_t run_begin, std::size_t run_end,
                               std::size_t cell_begin, std::size_t cell_end) {
  const StreamingPlan& plan = slab.plan();
  const FluidParams& prm = slab.params();
  const std::size_t nc = slab.num_components();
  SLIPFLOW_REQUIRE(nc <= 8);
  const index_t nz = slab.storage().nz;
  const bool patterned = static_cast<bool>(prm.wall_pattern);

  index_t off[kQ];
  for (int d = 0; d < kQ; ++d) off[d] = plan.dir_offset(d);

  // Everything after the psi gather is identical for interior and
  // boundary cells; `grad` holds the Shan-Chen neighbor sums.
  Vec3 p[8];  // per-component first moments, computed once and reused
  const auto finish_cell = [&](index_t cell, index_t yz, index_t gx,
                               const Vec3* grad) {
    // First moments and the common velocity u' (Section 2.1):
    // u' = sum_c (m_c / tau_c) p_c  /  sum_c (m_c / tau_c) n_c.
    Vec3 unum{};
    double uden = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
      const auto& cp = prm.components[c];
      const DistField& f = slab.f(c);
      Vec3 pc{};
      for (int d = 1; d < kQ; ++d) {
        const double fd = f.at(d, cell);
        pc.x += fd * kCx[d];
        pc.y += fd * kCy[d];
        pc.z += fd * kCz[d];
      }
      p[c] = pc;
      const double w = cp.molecular_mass / cp.tau;
      unum += w * pc;
      uden += w * slab.density(c)[cell];
    }
    const Vec3 uprime = uden > kTinyDensity ? (1.0 / uden) * unum : Vec3{};

    Vec3 wall_a = slab.wall_accel_unit(yz);
    if (patterned) wall_a = prm.wall_pattern(gx, yz / nz, yz % nz) * wall_a;
    double rho_tot = 0.0;
    Vec3 rho_u{};
    Vec3 force_sum{};
    for (std::size_t c = 0; c < nc; ++c) {
      const auto& cp = prm.components[c];
      const double ncur = slab.density(c)[cell];
      const double rho = cp.molecular_mass * ncur;

      // interaction force F = -psi_c sum_c' G_{cc'} grad[c']
      Vec3 F{};
      const double psi_c = psi[c][static_cast<std::size_t>(cell)];
      for (std::size_t c2 = 0; c2 < nc; ++c2) {
        const double g = prm.g(c, c2);
        if (g != 0.0) F += (-psi_c * g) * grad[c2];
      }
      // hydrophobic wall force (mass density times wall acceleration)
      F += (rho * cp.wall_accel) * wall_a;
      // streamwise driving force
      F.x += rho * prm.gravity_x;

      // equilibrium velocity u_eq = u' + tau F / rho, with the shift
      // clamped so near-vacuum trace cells cannot blow up
      Vec3 ue = uprime;
      if (rho > kTinyDensity) {
        Vec3 shift = (cp.tau / rho) * F;
        const double s2 = shift.norm2();
        const double smax = prm.max_force_shift;
        if (s2 > smax * smax) shift = (smax / std::sqrt(s2)) * shift;
        ue += shift;
      }
      slab.ueq(c).set(cell, ue);

      rho_tot += rho;
      force_sum += F;
      rho_u += cp.molecular_mass * p[c];
    }

    // mixture observables: rho u = sum_c m_c p_c + (1/2) sum_c F_c
    slab.total_density()[cell] = rho_tot;
    Vec3 u_out{};
    if (rho_tot > kTinyDensity)
      u_out = (1.0 / rho_tot) * (rho_u + 0.5 * force_sum);
    slab.velocity().set(cell, u_out);
  };

  Vec3 grad[8];
  const auto& runs = plan.force_interior();
  for (std::size_t ri = run_begin; ri < run_end; ++ri) {
    const InteriorRun& r = runs[ri];
    for (index_t i = 0; i < r.count; ++i) {
      const index_t cell = r.cell + i;
      for (std::size_t c2 = 0; c2 < nc; ++c2) {
        const double* ps = psi[c2];
        Vec3 g{};
        for (int d = 1; d < kQ; ++d) {
          const double psv = ps[static_cast<std::size_t>(cell + off[d])];
          g.x += kWeight[d] * psv * kCx[d];
          g.y += kWeight[d] * psv * kCy[d];
          g.z += kWeight[d] * psv * kCz[d];
        }
        grad[c2] = g;
      }
      finish_cell(cell, r.yz + i, r.gx, grad);
    }
  }
  const auto& nbrs = plan.force_neighbors();
  const auto& bcells = plan.force_boundary();
  for (std::size_t bi = cell_begin; bi < cell_end; ++bi) {
    const ForceBoundaryCell& b = bcells[bi];
    for (std::size_t c2 = 0; c2 < nc; ++c2) {
      const double* ps = psi[c2];
      Vec3 g{};
      for (int d = 1; d < kQ; ++d) {
        const index_t nb = nbrs[b.nbr_begin + static_cast<std::uint32_t>(d) - 1];
        if (nb < 0) continue;  // psi = 0 inside walls / solids
        const double psv = ps[static_cast<std::size_t>(nb)];
        g.x += kWeight[d] * psv * kCx[d];
        g.y += kWeight[d] * psv * kCy[d];
        g.z += kWeight[d] * psv * kCz[d];
      }
      grad[c2] = g;
    }
    finish_cell(b.cell, b.yz, b.gx, grad);
  }
}

}  // namespace

void PhaseKernels::bind(Slab& slab, KernelBackend backend) {
  slab_ = &slab;
  backend_ = backend;
  (void)slab.plan();
  if (tiled()) (void)slab.tiles();
}

index_t PhaseKernels::stream(int lane, int lanes) {
  const StreamingPlan& plan = slab_->plan();
  const auto [cb, ce] =
      util::ThreadPool::slice(plan.stream_boundary().size(), lane, lanes);
  index_t cells = static_cast<index_t>(ce - cb);
  if (tiled()) {
    // Interior cells through the SIMD backend, boundary cells through the
    // link tables as ever (run range empty).
    const std::vector<Tile>& tiles = slab_->tiles().stream_tiles();
    const auto [tb, te] = util::ThreadPool::slice(tiles.size(), lane, lanes);
    fused_collide_stream_tiles(*slab_, backend_, tb, te);
    fused_collide_stream_range(*slab_, 0, 0, cb, ce);
    for (std::size_t t = tb; t < te; ++t) cells += tiles[t].count;
  } else {
    const std::vector<InteriorRun>& runs = plan.stream_interior();
    const auto [rb, re] = util::ThreadPool::slice(runs.size(), lane, lanes);
    fused_collide_stream_range(*slab_, rb, re, cb, ce);
    for (std::size_t r = rb; r < re; ++r) cells += runs[r].count;
  }
  return cells;
}

void PhaseKernels::finish_stream() {
  Slab& slab = *slab_;
  const StreamingPlan& plan = slab.plan();
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    // Populations arriving from the x-neighbors: plain copies out of the
    // exchanged halo planes (disjoint from every slot the pushes wrote).
    DistField& fp = slab.f_post(c);
    for (const HaloPull& h : plan.halo_pulls())
      fp.at(h.dir, h.dest) = fp.at(h.dir, h.src);
  }

  // The post-streaming state was assembled in f_post; swap it into f and
  // pin solid cells to zero exactly as the legacy stream() does.
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    slab.f(c).swap(slab.f_post(c));
    DistField& f = slab.f(c);
    for (index_t cell : plan.solids())
      for (int d = 0; d < kQ; ++d) f.at(d, cell) = 0.0;
  }
}

void PhaseKernels::bind_psi() {
  const std::size_t nc = slab_->num_components();
  SLIPFLOW_REQUIRE(nc <= psi_.size());
  // For the paper's psi = n the density storage *is* the cache; for the
  // exponential form evaluate 1 - exp(-n) once per cell per step instead
  // of once per neighbor read (the legacy kernel pays up to 18 exp calls
  // per cell).
  const bool cached = slab_->params().psi_form == PsiForm::shan_chen;
  psi_scratch_.resize(cached ? nc : 0);
  for (std::size_t c = 0; c < nc; ++c) {
    std::span<const double> n = slab_->density(c).data();
    if (cached) psi_scratch_[c].resize(n.size());
    psi_[c] = cached ? psi_scratch_[c].data() : n.data();
  }
}

void PhaseKernels::psi_planes(index_t lx_begin, index_t lx_end) {
  const index_t pc = slab_->storage().plane_cells();
  for (std::size_t c = 0; c < psi_scratch_.size(); ++c) {
    std::span<const double> n = slab_->density(c).data();
    for (index_t i = lx_begin * pc; i < lx_end * pc; ++i) {
      const auto u = static_cast<std::size_t>(i);
      psi_scratch_[c][u] = 1.0 - std::exp(-n[u]);
    }
  }
}

void PhaseKernels::density_psi(index_t lx_begin, index_t lx_end) {
  compute_density_planes(*slab_, backend_, lx_begin, lx_end);
  psi_planes(lx_begin, lx_end);
}

void PhaseKernels::force_planes(index_t lx_begin, index_t lx_end) {
  const StreamingPlan& plan = slab_->plan();
  const auto [cb, ce] = plan.force_boundary_planes().planes(lx_begin, lx_end);
  if (tiled()) {
    const auto [tb, te] =
        slab_->tiles().force_tile_planes().planes(lx_begin, lx_end);
    compute_forces_tiles(*slab_, psi_, backend_, tb, te);
    compute_forces_plan_range(*slab_, psi_, 0, 0, cb, ce);
  } else {
    const auto [rb, re] =
        plan.force_interior_planes().planes(lx_begin, lx_end);
    compute_forces_plan_range(*slab_, psi_, rb, re, cb, ce);
  }
}

void PhaseKernels::edge_density() {
  const index_t nxl = slab_->nx_local();
  bind_psi();
  density_psi(1, 2);
  if (nxl > 1) density_psi(nxl, nxl + 1);
}

PhaseKernels::Block PhaseKernels::inner_block(int lane, int lanes) const {
  const index_t nxl = slab_->nx_local();
  const auto [pb, pe] = util::ThreadPool::slice(
      static_cast<std::size_t>(std::max<index_t>(nxl - 2, 0)), lane, lanes);
  Block b{};
  b.begin = 2 + static_cast<index_t>(pb);
  b.end = 2 + static_cast<index_t>(pe);
  // A block end is a seam when its outer psi neighbour is another lane's
  // inner plane; the edge planes 1 and nx_local are ready beforehand.
  b.lo = std::min(b.begin + (b.begin > 2 ? 1 : 0), b.end);
  b.hi = std::max(b.end - (b.end < nxl ? 1 : 0), b.lo);
  return b;
}

void PhaseKernels::interior_force(int lane, int lanes) {
  const Block b = inner_block(lane, lanes);
  if (b.begin == b.end) return;
  density_psi(b.begin, b.begin + 1);
  for (index_t x = b.begin; x < b.end; ++x) {
    if (x + 1 < b.end) density_psi(x + 1, x + 2);
    if (x >= b.lo && x < b.hi) force_planes(x, x + 1);
  }
}

void PhaseKernels::seam_force(int lane, int lanes) {
  const Block b = inner_block(lane, lanes);
  if (b.begin < b.lo) force_planes(b.begin, b.lo);
  if (b.hi < b.end) force_planes(b.hi, b.end);
}

void PhaseKernels::finish_force() {
  const index_t nxl = slab_->nx_local();
  psi_planes(0, 1);
  psi_planes(nxl + 1, nxl + 2);
  force_planes(1, 2);
  if (nxl > 1) force_planes(nxl, nxl + 1);
}

void fused_collide_stream(Slab& slab) {
  PhaseKernels k;
  k.bind(slab);
  k.stream(0, 1);
  k.finish_stream();
}

void compute_forces_and_velocity_plan(Slab& slab) {
  static thread_local PhaseKernels k;  // keeps the psi scratch allocated
  k.bind(slab);
  k.bind_psi();
  k.psi_planes(0, slab.nx_local() + 2);
  k.force_planes(1, slab.nx_local() + 1);
}

}  // namespace slipflow::lbm
