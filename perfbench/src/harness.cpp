#include "harness.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "lbm/simd.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string read_first_line_with(const std::string& path,
                                 const std::string& key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line))
    if (line.compare(0, key.size(), key) == 0) return line;
  return {};
}

}  // namespace

// --- statistics ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::logic_error("mean of an empty sample");
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double trimmed_mean(std::vector<double> v) {
  if (v.size() < 3) throw std::logic_error("trimmed mean needs three samples");
  std::sort(v.begin(), v.end());
  return mean(std::vector<double>(v.begin() + 1, v.end() - 1));
}

namespace {
std::size_t rank_of(std::size_t n, double q) {
  return static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
}
}  // namespace

std::optional<double> percentile(std::vector<double> v, double q) {
  if (!(q > 0.0 && q < 1.0)) throw std::logic_error("percentile needs 0<q<1");
  const std::size_t n = v.size();
  const std::size_t k = rank_of(n, q);
  if (n == 0 || k == 0 || n - k < kMinTail) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   v.end());
  return v[k - 1];
}

double require_percentile(const std::vector<double>& v, double q,
                          const std::string& what) {
  const std::optional<double> p = percentile(v, q);
  if (!p)
    throw std::runtime_error(what + ": " + std::to_string(v.size()) +
                             " samples cannot support p" +
                             fmt_number(100.0 * q) + " (needs " +
                             std::to_string(min_samples_for(q)) + ")");
  return *p;
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (n - std::min(n, rank_of(n, q)) < kMinTail) ++n;
  return n;
}

// --- result --------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit};
}

void Result::check(bool ok, const std::string& what) {
  operation(ok);
  if (!ok) {
    correct_ = false;
    std::cerr << "perfbench: output check failed: " << what << "\n";
  }
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << fmt_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// --- tracing -------------------------------------------------------------

long long Tracer::reserve() {
  if (!enabled_) return 0;
  std::lock_guard lk(mu_);
  return next_id_++;
}

void Tracer::record_reserved(long long id, const std::string& name,
                             double begin, double end, long long parent,
                             long long job, int lane) {
  if (!enabled_) return;
  std::lock_guard lk(mu_);
  spans_.push_back(Span{id, parent, job, lane, name, begin, end});
}

long long Tracer::record(const std::string& name, double begin, double end,
                         long long parent, long long job, int lane) {
  if (!enabled_) return 0;
  std::lock_guard lk(mu_);
  const long long id = next_id_++;
  spans_.push_back(Span{id, parent, job, lane, name, begin, end});
  return id;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& process_name) const {
  std::lock_guard lk(mu_);
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  double t0 = 0.0;
  if (!spans_.empty()) {
    t0 = spans_.front().begin;
    for (const Span& s : spans_) t0 = std::min(t0, s.begin);
  }
  f << "{\"traceEvents\": [\n{\"ph\": \"M\", \"name\": \"process_name\", "
       "\"pid\": 0, \"tid\": 0, \"args\": {\"name\": "
    << json_string(process_name) << "}}";
  for (const Span& s : spans_) {
    f << ",\n{\"ph\": \"X\", \"pid\": 0, \"tid\": " << s.lane
      << ", \"name\": " << json_string(s.name)
      << ", \"ts\": " << fmt_number((s.begin - t0) * 1e6)
      << ", \"dur\": " << fmt_number((s.end - s.begin) * 1e6)
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"job\": " << s.job << "}}";
  }
  f << "\n]}\n";
}

double timed(Tracer& tr, const std::string& name,
             const std::function<void()>& fn, long long parent, int lane) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  tr.record(name, t0, t1, parent, -1, lane);
  return t1 - t0;
}

// --- host ----------------------------------------------------------------

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  const std::string line = read_first_line_with(path, "VmHWM:");
  if (line.empty()) return 0.0;
  return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
}

int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpu = c;
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::size_t llc_bytes() {
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  double n = std::strtod(s.c_str(), nullptr);
  const char unit = s.back();
  if (unit == 'K') n *= 1024.0;
  if (unit == 'M') n *= 1024.0 * 1024.0;
  return static_cast<std::size_t>(n);
}

std::string fingerprint_json(const Options& opt) {
  std::string cpu = read_first_line_with("/proc/cpuinfo", "model name");
  if (const std::size_t colon = cpu.find(':'); colon != std::string::npos)
    cpu = cpu.substr(colon + 2);
  std::ostringstream os;
  os << "{\"fingerprint\": {\"workload\": " << json_string(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"cpu\": " << json_string(cpu)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"llc_bytes\": " << llc_bytes() << ", \"kernel_backend\": "
     << json_string(slipflow::lbm::to_string(
            slipflow::lbm::default_kernel_backend()))
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"pinned_cpu\": " << opt.pinned_cpu << "}}";
  return os.str();
}

// --- inputs --------------------------------------------------------------

DensityFn seeded_density(const slipflow::lbm::FluidParams& fluid,
                         std::uint64_t seed) {
  std::vector<double> base;
  for (const auto& c : fluid.components) base.push_back(c.init_density);
  return [base, seed](std::size_t c, slipflow::lbm::index_t x,
                      slipflow::lbm::index_t y, slipflow::lbm::index_t z) {
    std::uint64_t h = seed * 0x9E3779B97F4A7C15ull;
    for (const std::uint64_t k :
         {static_cast<std::uint64_t>(c), static_cast<std::uint64_t>(x),
          static_cast<std::uint64_t>(y), static_cast<std::uint64_t>(z)})
      h = (h ^ k) * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull;
    slipflow::util::Rng rng(h);
    return base[c] * (1.0 + 0.01 * rng.uniform(-1.0, 1.0));
  };
}

const std::string& work_dir() {
  static const std::string dir = [] {
    const char* tmp = std::getenv("TMPDIR");
    std::string d = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
    d += "/perfbench." + std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

}  // namespace perfbench
