#pragma once
/// \file types.hpp
/// Basic geometric types for the lattice Boltzmann module.
///
/// Conventions used throughout slipflow (matching the paper's Figure 5):
///  - x is the streamwise (flow) direction; it is periodic and it is the
///    direction the domain is decomposed along (1-D slice decomposition).
///  - y spans the channel *width* (side walls at the y extents).
///  - z spans the channel *depth* (top/bottom walls at the z extents).
///  - cell (x,y,z) is linearized x-major so a yz-plane (fixed x) is
///    contiguous; planes are the unit of halo exchange and of lattice-point
///    migration.

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace slipflow::lbm {

/// Index type for lattice coordinates and linear cell indices.
using index_t = std::int64_t;

/// A small 3-vector of doubles (velocity, force, ...).
struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  friend Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
  friend Vec3 operator*(double s, const Vec3& v) {
    return {s * v.x, s * v.y, s * v.z};
  }
  friend double dot(const Vec3& a, const Vec3& b) {
    return a.x * b.x + a.y * b.y + a.z * b.z;
  }
  double norm2() const { return x * x + y * y + z * z; }
};

/// Dimensions of a 3-D lattice box.
struct Extents {
  index_t nx = 0, ny = 0, nz = 0;

  index_t cells() const { return nx * ny * nz; }
  /// Number of cells in one yz-plane (the migration / halo unit).
  index_t plane_cells() const { return ny * nz; }

  /// Linear index of cell (x,y,z); x-major so fixed-x planes are contiguous.
  index_t idx(index_t x, index_t y, index_t z) const {
    return (x * ny + y) * nz + z;
  }

  bool operator==(const Extents&) const = default;
};

/// Offsets into a vector whose entries are appended plane by plane:
/// first[lx - 1] is where owned plane lx (1-based) starts and
/// first[nx_local] is the end. Built once with the vector it indexes,
/// so a per-plane lookup never scans.
struct PlaneIndex {
  std::vector<std::size_t> first;

  /// [begin, end) of the entries of owned planes [lx_begin, lx_end).
  std::pair<std::size_t, std::size_t> planes(index_t lx_begin,
                                             index_t lx_end) const {
    return {first[static_cast<std::size_t>(lx_begin - 1)],
            first[static_cast<std::size_t>(lx_end - 1)]};
  }
};

}  // namespace slipflow::lbm
