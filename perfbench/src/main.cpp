/// perfbench — the slipflow repository benchmark.
///
///   perfbench --workload=<kernel_large|slow_node_remap|served_sweep>
///             --seed=<n> --seconds=<s> --trace=<0|1>
///
/// Prints a host/build fingerprint line, then, as the last line, one JSON
/// object {correct, attempted, failed, metrics}: the end-to-end metrics
/// untraced (--trace=0), the per-layer metrics traced (--trace=1, which
/// also writes a Chrome trace under .bench_build/traces/). Run it from the
/// repository root; perfbench/run.py builds it and does so. See
/// perfbench/README.md for the workloads and metric definitions.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <numeric>

#include "layers.hpp"
#include "util/options.hpp"
#include "workloads.hpp"

namespace perfbench {

void report_end_to_end(const EndToEnd& e, Result& res) {
  const std::size_t ops = e.latency_s.size();
  const std::size_t windows = e.sequential ? std::max<std::size_t>(1, ops / kMinOperations) : 1;
  std::vector<double> mlups, p50, p95, rate;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = e.latency_s.begin() + static_cast<std::ptrdiff_t>(w * ops / windows);
    const auto last = e.latency_s.begin() + static_cast<std::ptrdiff_t>((w + 1) * ops / windows);
    const std::vector<double> lat(first, last);
    const double n = static_cast<double>(lat.size());
    // One window is the whole loop, timed end to end; a window of a
    // sequential loop is the sum of its operations.
    const double wall = windows == 1 ? e.wall_s : std::accumulate(first, last, 0.0);
    mlups.push_back(e.cell_updates * n / static_cast<double>(ops) / wall / 1e6);
    p50.push_back(require_percentile(lat, 0.5, "job latency"));
    p95.push_back(require_percentile(lat, 0.95, "job latency"));
    rate.push_back(n / wall);
  }
  res.set("mlups", median(mlups), "MLUPS");
  res.set("job_latency_ms_p50", 1e3 * median(p50), "ms");
  res.set("job_latency_ms_p95", 1e3 * median(p95), "ms");
  res.set("jobs_per_s", median(rate), "1/s");
  res.set("setup_s", e.setup_s, "s");
  res.set("peak_rss_mb", e.peak_rss_mb, "MB");
}

void report_norm_efficiency(double mlups, double one_rank_mlups, double ideal_ranks,
                            Result& res) {
  res.set("sim.one_rank_mlups", one_rank_mlups, "MLUPS");
  res.set("sim.norm_efficiency", mlups / one_rank_mlups / ideal_ranks, "fraction");
}

void set_serve_unexercised(Result& res) {
  for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
           {"serve.queue_wait_ms_p50", "ms"},
           {"serve.queue_wait_ms_p95", "ms"},
           {"serve.start_to_done_ms_p50", "ms"},
           {"serve.cold_latency_ms_p50", "ms"},
           {"serve.warm_latency_ms_p50", "ms"},
           {"serve.ckpt_latency_ms_p50", "ms"},
           {"serve.warm_hit_frac", "fraction"},
           {"serve.attempts_per_job", "count"},
           {"serve.overhead_ms", "ms"},
           {"transport.direct_job_ms_p50", "ms"}})
    res.set(name, 0.0, unit);
}

std::string trace_path(const Options& opt) {
  std::filesystem::create_directories(".bench_build/traces");
  return ".bench_build/traces/" + opt.workload + "-seed" + std::to_string(opt.seed) +
         ".trace.json";
}

namespace {

/// The statistics this benchmark reports, checked on known samples.
void self_test(Result& res) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  res.check(percentile(v, 0.95) == 190.0, "p95 of 1..200 is 190");
  res.check(percentile(v, 0.5) == 100.0, "p50 of 1..200 is 100");
  v.pop_back();
  res.check(!percentile(v, 0.95), "p95 refused with 9 samples beyond it");
  res.check(min_samples_for(0.95) == 200 && min_samples_for(0.5) == 20,
            "samples needed for p95 / p50");
  res.check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5, "median");
  res.check(trimmed_mean({9, 1, 2, 3, 0}) == 2.0, "trimmed mean");

  // A sequential loop of 3 windows whose last window stalled 10x.
  EndToEnd e;
  e.sequential = true;
  for (std::size_t i = 0; i < 3 * kMinOperations; ++i)
    e.latency_s.push_back(i < 2 * kMinOperations ? 1.0 : 10.0);
  e.cell_updates = 1e6 * static_cast<double>(e.latency_s.size());
  e.wall_s = std::accumulate(e.latency_s.begin(), e.latency_s.end(), 0.0);
  Result windowed;
  report_end_to_end(e, windowed);
  res.check(windowed.value("job_latency_ms_p95") == 1e3 &&
                windowed.value("mlups") == 1.0 && windowed.value("jobs_per_s") == 1.0,
            "window medians ignore one stalled window of three");
}

struct Workload {
  void (*run)(const Options&, Result&, Tracer&);
  /// Confine the whole run (threads, daemon, workers) to one CPU. On a
  /// virtualised host a wake-up that crosses vCPUs waits for the host to
  /// schedule the target vCPU, a delay that varies several-fold from
  /// minute to minute; served jobs hand off between processes hundreds
  /// of times. slow_node_remap keeps its ranks on separate CPUs, which
  /// is its point.
  bool pin;
};
const std::map<std::string, Workload> kWorkloads = {
    {"kernel_large", {run_kernel_large, true}},
    {"slow_node_remap", {run_slow_node_remap, false}},
    {"served_sweep", {run_served_sweep, true}},
};

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto args = slipflow::util::Options::parse(argc, argv);
  Options opt;
  opt.workload = args.get("workload", std::string{});
  opt.seed = static_cast<std::uint64_t>(args.get("seed", 1LL));
  opt.seconds = args.get("seconds", 10.0);
  opt.trace = args.get("trace", 0LL) != 0;
  if (const std::string diag = args.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }
  const auto it = kWorkloads.find(opt.workload);
  if (it == kWorkloads.end() || opt.seconds <= 0) {
    std::cerr << "usage: perfbench --workload=<kernel_large|slow_node_remap|"
                 "served_sweep> --seed=<n> --seconds=<s> --trace=<0|1>\n";
    return 2;
  }
  if (it->second.pin) opt.pinned_cpu = pin_to_one_cpu();
  std::cout << fingerprint_json(opt) << std::endl;

  int rc = 0;
  try {
    Result res;
    Tracer tr(opt.trace);
    (void)work_dir();  // creates $TMPDIR, where run_ranks_shm puts its rings
    self_test(res);
    it->second.run(opt, res, tr);
    if (opt.trace) tr.write_chrome_trace(trace_path(opt), "perfbench " + opt.workload);
    std::cerr << "perfbench: " << opt.workload << " seed " << opt.seed << ": "
              << res.attempted() << " attempted, " << res.failed()
              << " failed (failed_frac "
              << static_cast<double>(res.failed()) / static_cast<double>(res.attempted())
              << ")\n";
    std::cout << res.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir(), ec);
  return rc;
}
