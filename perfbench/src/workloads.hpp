#pragma once
/// \file workloads.hpp
/// The benchmark's three workloads. Each fills `res` with the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run, spans in
/// `tr`), and counts its operations and output checks.

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

void run_kernel_large(const Options& opt, Result& res, Tracer& tr);
void run_slow_node_remap(const Options& opt, Result& res, Tracer& tr);
void run_served_sweep(const Options& opt, Result& res, Tracer& tr);

/// Timed operations an untraced run performs at least, so that p95 has
/// kMinTail samples beyond it.
inline constexpr std::size_t kMinOperations = 200;

/// The end-to-end numbers every workload reports.
struct EndToEnd {
  double cell_updates = 0;       ///< fluid-cell updates in the timed loop
  double wall_s = 0;             ///< wall time of the timed loop
  std::vector<double> latency_s; ///< one per timed operation
  double setup_s = 0;
  double peak_rss_mb = 0;
  /// Operations run one after another, each doing the same work: the
  /// loop may then be cut into windows (see report_end_to_end).
  bool sequential = false;
};
/// Sets mlups, job_latency_ms_p50/p95, jobs_per_s, setup_s, peak_rss_mb.
/// A sequential loop is cut into as many consecutive windows as hold
/// kMinOperations operations each; every rate and percentile is then the
/// median over the windows of that window's value, so a host stall that
/// covers one window out of three or more does not move it. Otherwise
/// (or with a single window) they come from the whole loop.
void report_end_to_end(const EndToEnd& e, Result& res);

/// Fig. 8's normalized efficiency, a per-layer metric: (mlups / the
/// 1-rank MLUPS of the same global problem) / (P - 1 + 1/(1+s)). Sets
/// sim.norm_efficiency and sim.one_rank_mlups.
void report_norm_efficiency(double mlups, double one_rank_mlups, double ideal_ranks,
                            Result& res);

/// Metrics of the serve layer and of direct launches, for the workloads
/// that run neither (reported as 0).
void set_serve_unexercised(Result& res);

/// Where the traced run's Chrome trace goes (.bench_build/traces/...).
std::string trace_path(const Options& opt);

}  // namespace perfbench
