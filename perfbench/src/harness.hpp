#pragma once
/// \file harness.hpp
/// Shared plumbing of the benchmark: command line, wall clock, the
/// statistics it reports (medians and tail-guarded percentiles), the
/// result it prints, the in-memory span recorder behind the traced run,
/// and the host/build fingerprint.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "lbm/params.hpp"
#include "lbm/types.hpp"

namespace perfbench {

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int pinned_cpu = -1;  ///< the one CPU the run is confined to (-1 = none)
};

// --- statistics ----------------------------------------------------------

/// Samples a percentile needs beyond it before it is reported.
inline constexpr std::size_t kMinTail = 10;

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Mean without the smallest and the largest sample (needs three or
/// more). The set-up time estimator: a set-up that ends with a served job
/// is seen through the launcher's 50 ms reap poll, so single set-ups take
/// values 50 ms apart and a median jumps between them; the trimmed mean
/// moves smoothly and still ignores one stalled set-up.
double trimmed_mean(std::vector<double> v);

/// Nearest-rank q-quantile (q in (0,1)): the ceil(q*n)-th smallest
/// sample. Reported only when at least kMinTail samples lie beyond that
/// rank (n - ceil(q*n) >= kMinTail); nullopt otherwise.
std::optional<double> percentile(std::vector<double> v, double q);

/// percentile() that throws when the sample is too small to support q.
double require_percentile(const std::vector<double>& v, double q,
                          const std::string& what);

/// Smallest sample count whose q-percentile percentile() reports.
std::size_t min_samples_for(double q);

// --- result --------------------------------------------------------------

/// What one invocation prints as its last line: output-check verdict,
/// operation counts and the metrics of the requested mode.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);

  /// Count one attempted operation; `ok == false` counts it as failed.
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void operations(long long attempted, long long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// One off-the-clock output check; a failure is counted as a failed
  /// operation and makes the run incorrect.
  void check(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  /// Value of a metric already set (throws when absent).
  double value(const std::string& name) const { return metrics_.at(name).value; }

  /// One JSON object: correct, attempted, failed, metrics.
  std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool correct_ = true;
};

// --- tracing -------------------------------------------------------------

/// In-memory span recorder. Disabled, every call is a no-op. Enabled,
/// spans are kept until write_chrome_trace() dumps them once at exit.
/// Thread-safe: rank threads and client threads record concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Record a closed span; returns its id (0 when disabled). `parent` is
  /// the id of the span that caused it (0 = none); `job` groups the spans
  /// of one request (-1 = none); `lane` is the Chrome-trace thread row.
  long long record(const std::string& name, double begin, double end,
                   long long parent = 0, long long job = -1, int lane = 0);
  /// Reserve an id for a span whose end is not known yet (children can
  /// name it as parent); close it with record_reserved().
  long long reserve();
  void record_reserved(long long id, const std::string& name, double begin,
                       double end, long long parent = 0, long long job = -1,
                       int lane = 0);

  void write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  struct Span {
    long long id, parent, job;
    int lane;
    std::string name;
    double begin, end;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  long long next_id_ = 1;    // guarded by mu_
};

/// Times `fn` and records it as a span; returns the duration in seconds.
double timed(Tracer& tr, const std::string& name, const std::function<void()>& fn,
             long long parent = 0, int lane = 0);

// --- host ----------------------------------------------------------------

/// Peak resident set (VmHWM) of a process in MB; 0 when unreadable.
double peak_rss_mb(int pid = 0);
/// Confine this process, and every thread and child it starts later, to
/// the highest-numbered CPU it may run on. Returns that CPU, -1 on failure.
int pin_to_one_cpu();
/// Last-level cache size in bytes (0 when the host does not say).
std::size_t llc_bytes();
/// One-line JSON host/build fingerprint: CPU model, nproc, the default
/// kernel backend CPUID picks, compiler, build type, workload, seed and
/// the pinned CPU.
std::string fingerprint_json(const Options& opt);

// --- inputs --------------------------------------------------------------

using DensityFn =
    std::function<double(std::size_t, slipflow::lbm::index_t,
                         slipflow::lbm::index_t, slipflow::lbm::index_t)>;

/// The seeded initial density: each component's uniform density times
/// 1 + 0.01*u with u in [-1, 1) a hash of (seed, component, global cell),
/// so every decomposition sees the same field.
DensityFn seeded_density(const slipflow::lbm::FluidParams& fluid,
                         std::uint64_t seed);

/// Working directory of this invocation, inside the checkout
/// ($TMPDIR, relative to the repository root); created on first call.
const std::string& work_dir();

}  // namespace perfbench
