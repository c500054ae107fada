#pragma once
/// \file collectives.hpp
/// Deterministic collectives built from point-to-point send/recv,
/// used by the real-process transport (ShmComm).
///
/// allgather runs as a binomial gather tree to rank 0 followed by a
/// binomial broadcast, concatenating contributions in rank order — the
/// exact layout ThreadComm's shared-memory allgather produces, so ShmComm's
/// collective results are byte-identical to ThreadComm's.

#include <map>
#include <span>
#include <vector>

#include "transport/communicator.hpp"

namespace slipflow::transport {

/// Reserved tags of the collective trees; user tags are non-negative.
inline constexpr int kTagGatherTree = -101;
inline constexpr int kTagBcastTree = -102;

/// Rank-ordered allgather over `comm`'s point-to-point primitives.
/// Handles ragged per-rank contribution sizes exactly.
// det-lint: rank-ordered — contributions are keyed by rank in an
// ordered map and concatenated 0..n-1 regardless of arrival order.
inline std::vector<double> binomial_allgather(Communicator& comm,
                                              std::span<const double> mine) {
  const int n = comm.size();
  const int me = comm.rank();
  if (n == 1) return {mine.begin(), mine.end()};

  // Binomial gather toward rank 0. Each message packs the sender's
  // collected contiguous rank range as [k, (rank_i, count_i)*k, payloads
  // in listed order], which keeps ragged contribution sizes exact.
  std::map<int, std::vector<double>> parts;
  parts[me] = {mine.begin(), mine.end()};
  for (int step = 1; step < n; step <<= 1) {
    if (me & step) {
      std::vector<double> msg;
      msg.push_back(static_cast<double>(parts.size()));
      for (const auto& [r, v] : parts) {
        msg.push_back(static_cast<double>(r));
        msg.push_back(static_cast<double>(v.size()));
      }
      for (const auto& [r, v] : parts) {
        (void)r;
        msg.insert(msg.end(), v.begin(), v.end());
      }
      comm.send(me - step, kTagGatherTree, msg);
      parts.clear();
      break;
    }
    if (me + step < n) {
      const std::vector<double> msg = comm.recv(me + step, kTagGatherTree);
      SLIPFLOW_REQUIRE(!msg.empty());
      const auto k = static_cast<std::size_t>(msg[0]);
      std::size_t off = 1 + 2 * k;
      for (std::size_t i = 0; i < k; ++i) {
        const int r = static_cast<int>(msg[1 + 2 * i]);
        const auto cnt = static_cast<std::size_t>(msg[2 + 2 * i]);
        SLIPFLOW_REQUIRE(r >= 0 && r < n && off + cnt <= msg.size());
        parts[r].assign(msg.begin() + static_cast<std::ptrdiff_t>(off),
                        msg.begin() + static_cast<std::ptrdiff_t>(off + cnt));
        off += cnt;
      }
    }
  }

  // Rank 0 concatenates in rank order, then a binomial broadcast.
  std::vector<double> result;
  if (me == 0) {
    SLIPFLOW_REQUIRE_MSG(static_cast<int>(parts.size()) == n,
                         "allgather: missing contributions");
    for (int r = 0; r < n; ++r) {
      const auto& v = parts.at(r);
      result.insert(result.end(), v.begin(), v.end());
    }
  }
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  bool have = me == 0;
  for (int step = 1 << (rounds - 1); step >= 1; step >>= 1) {
    if (have && me % (2 * step) == 0 && me + step < n)
      comm.send(me + step, kTagBcastTree, result);
    else if (!have && me % (2 * step) == step) {
      result = comm.recv(me - step, kTagBcastTree);
      have = true;
    }
  }
  return result;
}

}  // namespace slipflow::transport
