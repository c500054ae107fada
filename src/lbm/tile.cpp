#include "lbm/tile.hpp"

#include <algorithm>

#include "lbm/plan.hpp"

namespace slipflow::lbm {

namespace {
/// Chop runs [run_begin, run_end) into tiles of at most kTileWidth cells.
void chop_runs(const std::vector<InteriorRun>& runs, std::size_t run_begin,
               std::size_t run_end, std::vector<Tile>& out, index_t& cells) {
  for (std::size_t ri = run_begin; ri < run_end; ++ri) {
    const InteriorRun& r = runs[ri];
    for (index_t i = 0; i < r.count; i += kTileWidth) {
      const index_t n = std::min<index_t>(kTileWidth, r.count - i);
      out.push_back(
          Tile{r.cell + i, r.yz + i, r.gx, static_cast<std::int32_t>(n)});
    }
    cells += r.count;
  }
}
}  // namespace

TileLayout::TileLayout(const StreamingPlan& plan) {
  chop_runs(plan.stream_interior(), 0, plan.stream_interior().size(), stream_,
            stream_cells_);
  // Force tiles are chopped plane by plane, so each plane's tiles cover
  // exactly the cells of its runs.
  const auto& fr = plan.force_interior();
  const PlaneIndex& runs = plan.force_interior_planes();
  for (index_t lx = 1; lx <= plan.nx_local(); ++lx) {
    force_planes_.first.push_back(force_.size());
    const auto [rb, re] = runs.planes(lx, lx + 1);
    chop_runs(fr, rb, re, force_, force_cells_);
  }
  force_planes_.first.push_back(force_.size());
}

}  // namespace slipflow::lbm
