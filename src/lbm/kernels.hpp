#pragma once
/// \file kernels.hpp
/// The per-phase compute kernels of the multicomponent lattice Boltzmann
/// method (Section 2.1), each operating on the owned planes of a Slab.
///
/// One LBM phase executes, in order (Figure 2 of the paper):
///   1. collide()                      — local
///   2. f-halo exchange                — communication (Slab::*_f_halo)
///   3. stream()                       — local, includes wall bounce-back
///   4. compute_density()              — local
///   5. density-halo exchange          — communication (Slab::*_density_halo)
///   6. compute_forces_and_velocity()  — local (Shan–Chen + wall + gravity)
/// The equilibrium velocities stored by step 6 feed step 1 of the next
/// phase, exactly as the velocity computed on line 17 of the paper's
/// pseudo-code is used by the collision on line 4 of the next iteration.

#include <array>
#include <vector>

#include "lbm/simd.hpp"
#include "lbm/slab.hpp"

namespace slipflow::lbm {

/// Second-order D3Q19 Maxwell–Boltzmann equilibrium for direction d at
/// number density n and velocity u (lattice units).
inline double equilibrium(int d, double n, const Vec3& u) {
  const double cu = kCx[d] * u.x + kCy[d] * u.y + kCz[d] * u.z;
  const double u2 = u.norm2();
  return kWeight[d] * n * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
}

/// BGK collision for every component on the owned planes:
/// f_post = f - (f - f_eq(n, ueq)) / tau, using the number density and
/// equilibrium velocity stored by the previous phase's force step.
void collide(Slab& slab);

/// Pull-streaming of post-collision populations into f, applying the
/// half-way bounce-back rule at the channel walls (and at any interior
/// obstacle). Requires the f-halo planes of f_post to be filled.
void stream(Slab& slab);

/// Recompute each component's number density n = sum_i f_i on the owned
/// planes from the post-streaming populations.
void compute_density(Slab& slab);

/// Compute, on the owned planes: the common velocity u', the per-component
/// forces (Shan–Chen inter-component interaction + hydrophobic wall force
/// + driving body force), the per-component equilibrium velocities
/// ueq = u' + tau F / rho, and the mixture observables (total density and
/// force-corrected macroscopic velocity). Requires density halos filled.
void compute_forces_and_velocity(Slab& slab);

/// Total mass of a component over the owned planes (sum of n times
/// molecular mass) — a conserved quantity used by tests.
double owned_mass(const Slab& slab, std::size_t component);

// --- plan-based kernel path (kernels_plan.cpp) -------------------------
// The same phase, restructured around the slab's StreamingPlan so the hot
// loops are branch-free. The plan path produces bit-identical populations
// to the legacy kernels above (tests/test_plan_kernels.cpp pins this).
// Whenever active_kernel_backend() != scalar (simd.hpp) the interior
// cells run as vector-width tiles (Slab::tiles()) on that backend;
// boundary cells, halo pulls and MRT components keep the per-cell path.

/// Collide only the two boundary-adjacent owned planes into f_post — the
/// minimum the f-halo exchange needs before fused_collide_stream re-does
/// collision and streaming in one fused pass.
void collide_boundary_planes(Slab& slab);

/// Fused collide + stream: collide every owned fluid cell once (BGK or
/// MRT) and push its 19 outputs directly to their streaming destinations
/// — interior cells over contiguous plan runs with no conditionals,
/// boundary cells through precomputed link tables (bounce-back and
/// moving-wall corrections resolved at plan build). Finishes by pulling
/// the exchanged halo populations and swapping f_post into f. Requires
/// collide_boundary_planes + the f-halo exchange to have run.
void fused_collide_stream(Slab& slab);

/// Plan-based force/velocity kernel: identical physics and bit-identical
/// results to compute_forces_and_velocity, but the per-component psi
/// field is cached once per step (no per-neighbor exp) and the wall /
/// periodic / obstacle masks come from the plan's neighbor tables.
void compute_forces_and_velocity_plan(Slab& slab);

// --- the phase in pieces (kernels_plan.cpp) ---------------------------

/// One phase's plan kernels cut into the pieces a scheduler interleaves
/// with the two halo exchanges. The parallel runner runs them around its
/// posts and waits; the whole-slab wrappers above are the same pieces
/// run back to back on one lane, so each pass's tile-vs-run choice is
/// made here once. bind() ties the object to a slab and a kernel backend
/// for one phase and picks the interior work unit: tiles on a SIMD
/// backend, plan runs on scalar. The stream pass slices those units
/// across lanes and the force pass slices whole planes, so no slice
/// splits a tile and every cell takes the same code path for any
/// rank x lane partition. Each f_post slot, density, psi and force cell
/// is written by exactly one piece, so any partition, threaded included,
/// is bit-identical to the wrappers. A (lane, lanes) piece does the
/// lane's util::ThreadPool::slice share; distinct lanes may run
/// concurrently.
///
/// Order within a phase, after collide_boundary_planes:
///   stream(lane)          any time: reads owned f/n/ueq only
///   finish_stream         once the f halo landed
///   edge_density          n and psi of planes 1 and nx_local (the
///                         density-halo payload)
///   interior_force(lane)  the plane wavefront over the lane's block of
///                         the inner planes [2, nx_local): n and psi of
///                         plane x+1, then the force of plane x, so the
///                         force re-reads f(x) from cache instead of DRAM
///   seam_force(lane)      after every lane's wavefront: the force of the
///                         lane's seam planes, the block ends whose psi
///                         neighbour another lane computes
///   finish_force          once the density halo landed: psi of the halo
///                         planes, then the force of planes 1, nx_local
class PhaseKernels {
 public:
  /// Bind to `slab` for one phase. Builds its plan and, on a tile
  /// backend, its tile layout on the calling thread, so the pieces may
  /// then run on pool lanes.
  void bind(Slab& slab, KernelBackend backend = active_kernel_backend());

  /// Fused collide+stream of the lane's share of every stream cell (no
  /// halo data is touched). Returns the number of cells it updated.
  index_t stream(int lane, int lanes);
  /// Copy the plan's halo pulls, swap f_post into f and pin solid cells.
  void finish_stream();
  void edge_density();
  void interior_force(int lane, int lanes);
  void seam_force(int lane, int lanes);
  void finish_force();

 private:
  /// The whole-slab force pass: psi of every stored plane, then the
  /// force of every owned plane, over densities that already exist.
  friend void compute_forces_and_velocity_plan(Slab& slab);

  bool tiled() const { return backend_ != KernelBackend::scalar; }
  /// The lane's block [begin, end) of the inner planes, and the planes
  /// [lo, hi) of it whose force its wavefront computes; the rest are
  /// seam planes.
  struct Block {
    index_t begin, lo, hi, end;
  };
  Block inner_block(int lane, int lanes) const;
  /// Point psi_ at this phase's psi storage: the densities for the
  /// paper's psi = n, a per-cell cache of 1 - exp(-n) otherwise.
  void bind_psi();
  /// n, then psi, of owned planes [lx_begin, lx_end).
  void density_psi(index_t lx_begin, index_t lx_end);
  /// psi of stored planes [lx_begin, lx_end) (halo planes included).
  void psi_planes(index_t lx_begin, index_t lx_end);
  /// Force/velocity of owned planes [lx_begin, lx_end).
  void force_planes(index_t lx_begin, index_t lx_end);

  Slab* slab_ = nullptr;
  KernelBackend backend_ = KernelBackend::scalar;
  std::array<const double*, 8> psi_{};
  std::vector<std::vector<double>> psi_scratch_;
};

}  // namespace slipflow::lbm
