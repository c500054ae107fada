#pragma once
/// \file tile.hpp
/// TileLayout — the StreamingPlan's interior runs re-chopped into
/// vector-width AoSoA tiles, the iteration unit of the SIMD kernels.
///
/// The direction-major DistField already stores each direction as one
/// contiguous scalar array with z unit-stride, so W z-consecutive cells
/// of one run give the kernels W-wide unit-stride loads of every f[d]
/// and unit-stride stores at the fixed push offset — a register-blocked
/// AoSoA view over the existing storage, no gather/scatter needed away
/// from tile edges. The layout chops every interior run into tiles of at
/// most kTileWidth cells: full tiles take the vector body, the short
/// tail of a run takes the same vector kernel with masked loads/stores
/// over its live lanes (masked-off lanes read +0.0 and are never
/// written), so every cell runs the identical per-lane operation
/// sequence.
///
/// Tiles never span two runs and a slice of tile indices never splits a
/// tile, so when the overlap runner slices tiles across pool lanes every
/// cell takes the same code path (full vs masked tail is a property of
/// the tile, not of the partition) — which keeps results bit-identical
/// for any rank x thread count, the same argument the run slicing made. Like the plan, a layout depends only on (geometry,
/// x_begin, nx_local); Slab caches one lazily and drops it on migration.

#include <cstdint>
#include <vector>

#include "lbm/simd.hpp"
#include "lbm/types.hpp"

namespace slipflow::lbm {

class StreamingPlan;  // plan.hpp

/// Up to kTileWidth z-consecutive interior cells of one run.
struct Tile {
  index_t cell = 0;        ///< storage index of the first cell
  index_t yz = 0;          ///< in-plane index (y*nz+z) of the first cell
  index_t gx = 0;          ///< global x of the plane (wall patterns)
  std::int32_t count = 0;  ///< cells in the tile, 1..kTileWidth
};

class TileLayout {
 public:
  explicit TileLayout(const StreamingPlan& plan);

  /// Tiles of the fused collide+stream kernel (plan.stream_interior()).
  const std::vector<Tile>& stream_tiles() const { return stream_; }
  /// Tiles of the Shan-Chen force kernel (plan.force_interior()).
  const std::vector<Tile>& force_tiles() const { return force_; }

  /// Tile-index analogue of StreamingPlan::force_interior_planes(): the
  /// force tiles of owned planes [lx_begin, lx_end) are one contiguous
  /// slice, since tiles never span runs and runs never span planes.
  const PlaneIndex& force_tile_planes() const { return force_planes_; }

  /// Cell totals (== the sums over the corresponding plan runs).
  index_t stream_cells() const { return stream_cells_; }
  index_t force_cells() const { return force_cells_; }

 private:
  std::vector<Tile> stream_, force_;
  PlaneIndex force_planes_;
  index_t stream_cells_ = 0, force_cells_ = 0;
};

}  // namespace slipflow::lbm
