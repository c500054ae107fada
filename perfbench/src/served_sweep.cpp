/// served_sweep: a closed loop of 3 clients against `slipflow_served
/// --slots=2` over its control socket. Each client is its own tenant and
/// submits its next spec only when the previous one is done, so one job
/// runs while the other two tenants' jobs queue. Jobs are
/// 2-rank shm runs of 50 to 150 phases on a 32x12x8 grid; from the seed,
/// about half are cold (gravity and length from a seeded pool,
/// warm_phases=0), a quarter warm hits (the physics primed into the cache
/// during set-up, warm_phases=80) and a quarter checkpointed
/// (checkpoint_every=25, sync atomic writes). Kernel work is tiny, so launch and rendezvous
/// dominate. One operation is one job, timed from submit until the
/// client sees it done.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/job_spec.hpp"
#include "transport/launcher.hpp"
#include "transport/shm_comm.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace lbm = sl::lbm;
namespace serve = sl::serve;
namespace sim = sl::sim;
namespace transport = sl::transport;
using sl::util::JsonValue;

constexpr int kSlots = 2;
constexpr int kClients = 3;
constexpr int kGravityPool = 8;
constexpr int kWarmLengths = 4;
constexpr int kSetups = 7;
constexpr std::size_t kOverheadSamples = 20;

enum class Kind { cold, warm, ckpt };
const char* kind_name(Kind k) {
  return k == Kind::cold ? "cold" : k == Kind::warm ? "warm" : "ckpt";
}

/// What a job varies: its physics and its length.
struct Draw {
  double gravity = 0;
  int phases = 100;
};

serve::JobSpec make_spec(Kind kind, const Draw& d) {
  serve::JobSpec s;
  s.nx = 32;
  s.ny = 12;
  s.nz = 8;
  s.phases = d.phases;
  s.ranks = 2;
  s.transport = "shm";
  s.gravity = d.gravity;
  s.warm_phases = kind == Kind::warm ? 80 : 0;
  s.checkpoint_every = kind == Kind::ckpt ? 25 : 0;
  s.wall_clock_budget = 60.0;
  return s;
}

/// The job pools. The seed draws the cold/ckpt gravities (in [1e-5,
/// 3e-5)) and the primed warm physics (gravity in [3e-5, 5e-5)). Lengths
/// are evenly spaced and the same for every seed, so the seed does not
/// change the mean work of a job: the cold/ckpt pool spans 50 to 150
/// phases, the warm jobs 90 to 150 (10 to 70 run after the cached 80).
/// Lengths vary because the launcher sees a job end on a 50 ms poll: jobs
/// of one length all cross a poll tick together when the host slows a
/// little, which moved the p95 latency by half between runs minutes
/// apart; spread over more than a tick, they cross a few at a time.
struct Mix {
  std::vector<Draw> pool, warm;
  double warm_gravity = 0;
  explicit Mix(std::uint64_t seed) {
    sl::util::Rng rng(seed);
    for (int i = 0; i < kGravityPool; ++i)
      pool.push_back({rng.uniform(1e-5, 3e-5), 50 + 100 * i / (kGravityPool - 1)});
    warm_gravity = rng.uniform(3e-5, 5e-5);
    for (int i = 0; i < kWarmLengths; ++i)
      warm.push_back({warm_gravity, 90 + 60 * i / (kWarmLengths - 1)});
  }
  /// The set-up's cache-priming job: the warm physics, run in full.
  Draw prime() const { return {warm_gravity, 100}; }
};

/// The campaign daemon as a child process, started from the benchmark's
/// working directory. The destructor shuts it down and reaps it.
class Daemon {
 public:
  explicit Daemon(const std::string& dir) : socket_(dir + "/ctl.sock") {
    fs::create_directories(dir);
    const std::string log = dir + "/daemon.log";
    const std::vector<std::string> args = {
        PERFBENCH_SERVED_EXE, "--socket=" + socket_, "--work-dir=" + dir + "/srv",
        "--slots=" + std::to_string(kSlots)};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    // Bound: the socket answers a stats request.
    const double deadline = now_s() + 20.0;
    for (;;) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("slipflow_served exited during start-up; see " + log);
      }
      try {
        serve::Client(socket_, 0.05).stats();
        return;
      } catch (const std::exception&) {
        if (now_s() > deadline) {
          stop();
          throw std::runtime_error("slipflow_served never answered on " + socket_);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  double peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

 private:
  void stop() noexcept {
    if (pid_ <= 0) return;
    try {
      serve::Client(socket_, 1.0).shutdown();
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    const double deadline = now_s() + 60.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  std::string socket_;
  pid_t pid_ = -1;
};

/// One served job as the client saw it.
struct Job {
  Kind kind = Kind::cold;
  Draw draw;
  long long id = -1;
  double submit = 0, started = 0, completed = 0, done = 0;
  std::string state, error, observables;
  long long attempts = 0, phases_executed = 0;
  bool warm_hit = false;
  double latency() const { return done - submit; }
};

Job run_job(serve::Client& client, const std::string& tenant, Kind kind,
            const Draw& draw, Tracer& tr, int lane) {
  Job j;
  j.kind = kind;
  j.draw = draw;
  j.submit = now_s();
  try {
    const JsonValue rec = client.run(
        tenant, make_spec(kind, draw), &j.id, [&](const JsonValue& ev) {
          const std::string e = ev.string_or("event", "");
          if (e == "started") j.started = now_s();
          if (e == "completed") j.completed = now_s();
        });
    j.done = now_s();
    j.state = rec.string_or("state", "?");
    j.attempts = rec.int_or("attempts", 0);
    j.phases_executed = rec.int_or("phases_executed", 0);
    j.warm_hit = rec.bool_or("warm_hit", false);
    j.observables = rec.string_or("observables", "");
  } catch (const std::exception& e) {
    j.done = now_s();
    j.error = e.what();
  }
  if (tr.enabled()) {
    const long long span = tr.reserve();
    if (j.started > 0) tr.record("serve.queue_wait", j.submit, j.started, span, j.id, lane);
    if (j.completed > j.started && j.started > 0)
      tr.record("serve.run", j.started, j.completed, span, j.id, lane);
    if (j.completed > 0) tr.record("serve.done", j.completed, j.done, span, j.id, lane);
    tr.record_reserved(span, std::string("serve.job.") + kind_name(kind), j.submit,
                       j.done, 0, j.id, lane);
  }
  return j;
}

/// The closed loop: kClients client threads until `seconds` passed and
/// at least `min_jobs` jobs finished; in-flight jobs complete.
/// `at_min_jobs` runs once, as soon as `min_jobs` jobs have finished.
struct Sweep {
  std::vector<Job> jobs;
  double wall_s = 0;
};

Sweep closed_loop(const std::string& socket, const Mix& mix, std::uint64_t seed,
                  double seconds, std::size_t min_jobs, Tracer& tr,
                  const std::function<void()>& at_min_jobs = {}) {
  Sweep s;
  std::mutex mu;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> finished{0};
  const double start = now_s();
  std::vector<std::thread> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      sl::util::Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(k) + 1);
      serve::Client client(socket, 5.0);
      const std::string tenant = "tenant" + std::to_string(k);
      while (!stop.load()) {
        const double u = rng.uniform();
        const Kind kind = u < 0.5 ? Kind::cold : u < 0.75 ? Kind::warm : Kind::ckpt;
        const Draw& d = kind == Kind::warm ? mix.warm[rng.below(mix.warm.size())]
                                           : mix.pool[rng.below(mix.pool.size())];
        Job j = run_job(client, tenant, kind, d, tr, 10 + k);
        std::lock_guard lk(mu);
        s.jobs.push_back(std::move(j));
        finished.fetch_add(1);
      }
    });
  }
  bool sampled = false;
  while (now_s() - start < seconds || finished.load() < min_jobs) {
    if (!sampled && finished.load() >= min_jobs && at_min_jobs) {
      at_min_jobs();
      sampled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!sampled && at_min_jobs) at_min_jobs();
  stop.store(true);
  for (std::thread& c : clients) c.join();
  s.wall_s = now_s() - start;
  return s;
}

/// slipflow_submit --direct for one spec, in process: the same
/// spec-to-argv lowering, launched here. Returns observables and latency.
std::pair<std::string, double> direct_run(const serve::JobSpec& spec,
                                          const std::string& out) {
  serve::JobPaths paths;
  paths.observables_out = out;
  const double t0 = now_s();
  const transport::LaunchResult r =
      transport::launch_workers(serve::make_launch_config(spec, PERFBENCH_WORKER_EXE, paths));
  const double dt = now_s() - t0;
  if (!r.ok) throw std::runtime_error("direct run failed: " + r.diagnostic);
  std::ifstream f(out, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return {os.str(), dt};
}

/// Output checks of a sweep: every job done in one attempt, warm hits
/// execute phases - warm_phases, and every distinct spec's served
/// observables equal a direct run of that spec.
void check_sweep(const Sweep& s, Result& res) {
  long long bad = 0;
  std::map<std::tuple<int, double, int>, std::vector<const Job*>> by_spec;
  for (const Job& j : s.jobs) {
    bool ok = j.error.empty() && j.state == "done" && j.attempts == 1;
    const serve::JobSpec spec = make_spec(j.kind, j.draw);
    const long long expect =
        j.kind == Kind::warm ? spec.phases - spec.warm_phases : spec.phases;
    ok = ok && j.warm_hit == (j.kind == Kind::warm) && j.phases_executed == expect;
    if (!ok) {
      ++bad;
      std::cerr << "perfbench: job " << j.id << " (" << kind_name(j.kind)
                << "): state " << j.state << ", attempts " << j.attempts
                << ", warm_hit " << j.warm_hit << ", phases " << j.phases_executed
                << (j.error.empty() ? "" : ", error " + j.error) << "\n";
    }
    by_spec[{static_cast<int>(j.kind), j.draw.gravity, j.draw.phases}].push_back(&j);
  }
  res.operations(static_cast<long long>(s.jobs.size()), bad);
  if (bad > 0) res.check(false, std::to_string(bad) + " served jobs failed their checks");
  int n = 0;
  for (const auto& [key, jobs] : by_spec) {
    const std::string out = work_dir() + "/direct_" + std::to_string(n++) + ".txt";
    const Job& first = *jobs.front();
    const std::string direct = direct_run(make_spec(first.kind, first.draw), out).first;
    bool same = true;
    for (const Job* j : jobs)
      if (j->state == "done") same = same && j->observables == direct;
    res.check(same, std::string("served ") + kind_name(first.kind) +
                        " jobs differ from --direct");
  }
}

/// Fluid-cell updates of the sweep's completed jobs.
double cell_updates(const Sweep& s) {
  const serve::JobSpec spec = make_spec(Kind::cold, {});
  const auto cells = static_cast<double>(
      fluid_cells(lbm::Extents{spec.nx, spec.ny, spec.nz}));
  double updates = 0;
  for (const Job& j : s.jobs) updates += cells * static_cast<double>(j.phases_executed);
  return updates;
}

double sweep_mlups(const Sweep& s) { return cell_updates(s) / s.wall_s / 1e6; }

/// The served job's physics as an in-process runner config.
sim::RunnerConfig job_config() {
  const serve::JobSpec spec = make_spec(Kind::cold, {2e-5, 100});
  sim::RunnerConfig cfg;
  cfg.global = lbm::Extents{spec.nx, spec.ny, spec.nz};
  cfg.fluid = lbm::FluidParams::microchannel_defaults(
      spec.wall_accel, spec.wall_decay, spec.air_fraction, spec.coupling_g,
      spec.gravity);
  cfg.policy = spec.policy;
  cfg.remap_interval = spec.remap_interval;
  cfg.balance.window = spec.window;
  cfg.balance.min_transfer_points = spec.min_transfer;
  cfg.threads = spec.threads;
  return cfg;
}

DensityFn uniform_density(const lbm::FluidParams& fluid) {
  return [fluid](std::size_t c, lbm::index_t, lbm::index_t, lbm::index_t) {
    return fluid.components[c].init_density;
  };
}

/// Start a daemon and prime the warm cache with the warm physics.
std::unique_ptr<Daemon> set_up(int rep, const Mix& mix, Result& res, Tracer& tr) {
  auto d = std::make_unique<Daemon>(work_dir() + "/d" + std::to_string(rep));
  serve::Client client(d->socket(), 5.0);
  const Job prime = run_job(client, "prime", Kind::warm, mix.prime(), tr, 9);
  res.check(prime.state == "done" && !prime.warm_hit &&
                prime.phases_executed == mix.prime().phases,
            "cache-priming job did not complete as a cold warm-cache producer: " +
                prime.state + " " + prime.error);
  return d;
}

}  // namespace

void run_served_sweep(const Options& opt, Result& res, Tracer& tr) {
  const Mix mix(opt.seed);
  const sim::RunnerConfig jcfg = job_config();
  const DensityFn uniform = uniform_density(jcfg.fluid);
  Tracer off(false);

  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    const double t0 = now_s();
    daemon = set_up(i, mix, res, tr);
    setups.push_back(now_s() - t0);
  }

  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = trimmed_mean(setups);
    // The daemon's peak is read after a fixed number of jobs: it grows
    // with every job served, so a later read would scale with throughput.
    double daemon_rss_mb = 0;
    const Sweep s = closed_loop(daemon->socket(), mix, opt.seed, opt.seconds,
                                kMinOperations, off,
                                [&] { daemon_rss_mb = daemon->peak_rss_mb(); });
    e.wall_s = s.wall_s;
    e.cell_updates = cell_updates(s);
    for (const Job& j : s.jobs) e.latency_s.push_back(j.latency());
    check_sweep(s, res);
    // Benchmark process + daemon + a full slot pool of workers, each at
    // the largest peak among this process's reaped descendants (the
    // direct-run workers and earlier set-up daemons).
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    e.peak_rss_mb = peak_rss_mb() + daemon_rss_mb +
                    kSlots * static_cast<double>(ru.ru_maxrss) / 1024.0;
    report_end_to_end(e, res);
    return;
  }

  // Traced: half the time untraced, half with spans.
  const double plain = sweep_mlups(closed_loop(daemon->socket(), mix, opt.seed,
                                               opt.seconds / 2, kMinOperations, off));
  const Sweep s = closed_loop(daemon->socket(), mix, opt.seed + 1, opt.seconds / 2,
                              kMinOperations, tr);
  res.set("trace.overhead_frac", 1.0 - sweep_mlups(s) / plain, "fraction");
  // Every process of the run shares one CPU (see main.cpp), so the
  // ideal is one core's worth of 1-rank updates.
  report_norm_efficiency(plain, one_rank_mlups(jcfg, uniform, 9, 50), 1.0, res);
  check_sweep(s, res);

  std::vector<double> queue, start_done;
  std::map<Kind, std::vector<double>> by_kind;
  double warm = 0, hits = 0, attempts = 0;
  for (const Job& j : s.jobs) {
    queue.push_back(j.started - j.submit);
    start_done.push_back(j.done - j.started);
    by_kind[j.kind].push_back(j.latency());
    attempts += static_cast<double>(j.attempts);
    if (j.kind == Kind::warm) {
      warm += 1;
      hits += j.warm_hit ? 1 : 0;
    }
  }
  res.set("serve.queue_wait_ms_p50", 1e3 * require_percentile(queue, 0.5, "queue wait"), "ms");
  res.set("serve.queue_wait_ms_p95", 1e3 * require_percentile(queue, 0.95, "queue wait"), "ms");
  res.set("serve.start_to_done_ms_p50",
          1e3 * require_percentile(start_done, 0.5, "start to done"), "ms");
  for (const Kind k : {Kind::cold, Kind::warm, Kind::ckpt})
    res.set(std::string("serve.") + kind_name(k) + "_latency_ms_p50",
            1e3 * require_percentile(by_kind[k], 0.5, kind_name(k)), "ms");
  res.set("serve.warm_hit_frac", warm > 0 ? hits / warm : 0.0, "fraction");
  res.set("serve.attempts_per_job", attempts / static_cast<double>(s.jobs.size()), "count");

  // Served minus direct, uncontended, for one cold spec.
  const serve::JobSpec spec = make_spec(Kind::cold, mix.pool.front());
  std::vector<double> served_s, direct_s;
  {
    serve::Client client(daemon->socket(), 5.0);
    for (std::size_t i = 0; i < kOverheadSamples; ++i) {
      const Job j = run_job(client, "solo", Kind::cold, mix.pool.front(), tr, 8);
      res.check(j.state == "done", "uncontended served job failed: " + j.error);
      served_s.push_back(j.latency());
    }
  }
  for (std::size_t i = 0; i < kOverheadSamples; ++i) {
    const double t0 = now_s();
    direct_s.push_back(direct_run(spec, work_dir() + "/direct_solo.txt").second);
    tr.record("transport.direct_job", t0, now_s(), 0, -1, 8);
  }
  const double direct_p50 = require_percentile(direct_s, 0.5, "direct job");
  res.set("transport.direct_job_ms_p50", 1e3 * direct_p50, "ms");
  res.set("serve.overhead_ms",
          1e3 * (require_percentile(served_s, 0.5, "served job") - direct_p50), "ms");
  res.operations(2 * static_cast<long long>(kOverheadSamples), 0);
  daemon.reset();

  // sim / transport / balance / obs as the job uses them: the job's
  // physics on 2 in-process shm ranks for its 100 phases.
  std::vector<RankCounters> delta(2);
  transport::run_ranks_shm(2, [&](transport::Communicator& inner) {
    TimingComm timing(inner, tr);
    sim::ParallelLbm run(jcfg, timing);
    run.initialize(uniform);
    const RankCounters c0 = read_counters(run, timing, inner);
    run.run(95);
    const double compute0 = run.stats().compute_seconds;
    run.run(5);
    RankCounters c1 = read_counters(run, timing, inner);
    c1.last_window_compute_s = run.stats().compute_seconds - compute0;
    delta[static_cast<std::size_t>(timing.rank())] = c1 - c0;
    probe_checkpoint(run, timing, timing.rank() == 0 ? &res : nullptr, tr);
  });
  report_rank_layers(delta, 100, res);
  probe_lbm(jcfg.global, jcfg.fluid, uniform, 0.5, res, tr);
  res.set("lbm.working_set_mb", peak_rss_mb(), "MB");
  probe_triad(res, tr);
}

}  // namespace perfbench
