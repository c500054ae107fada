/// Reproduces Figure 8: speedup and normalized efficiency vs the number
/// of fixed slow nodes (20 000 phases, 20 nodes, filtered dynamic
/// remapping vs no remapping).
///
/// The paper: speedup ~19 dedicated, ~16 with one slow node, still ~13
/// with five; normalized efficiency >= 0.9 below four slow nodes and 0.8
/// at five, while no-remapping collapses.
///
///   usage: fig08_speedup_efficiency [--phases=20000] [--csv=path]
///
/// --transport=shm switches to a companion measurement on this machine:
/// the same ParallelLbm phase loop timed over in-process ThreadComm vs
/// real forked slipflow_worker processes on shared-memory rings, best of
/// --reps runs per point, so the thread-vs-process transport overhead is
/// tracked across PRs (written to BENCH_fig08_shm.json).
///
///   usage: fig08_speedup_efficiency --transport=shm [--phases=150]
///            [--max-ranks=4] [--reps=3] [--nx=48] [--ny=16] [--nz=8]
///
/// --transport=overlap measures the hybrid runner on this machine: the
/// blocking vs overlapped step schedule over ThreadComm at 1/2/4 ranks,
/// the overlapped one additionally at 1/2/4 interior-sweep threads per
/// rank, with each configuration's overlap_efficiency gauge (fraction of
/// the halo window covered by compute) alongside the wall time (written
/// to BENCH_fig08_overlap.json).
///
///   usage: fig08_speedup_efficiency --transport=overlap [--phases=150]
///            [--max-ranks=4] [--nx=48] [--ny=16] [--nz=8]

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_common.hpp"
#include "cluster/scenario.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_lbm.hpp"
#include "transport/launcher.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::cluster;

namespace {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The in-process reference: identical problem + policy to the worker
/// flags below, timed end to end including thread spawn/join so the
/// comparison against fork+exec+rendezvous is symmetric. `efficiency_out`
/// (optional) receives rank 0's overlap_efficiency gauge.
double time_over_threads(const lbm::Extents& global, int ranks, int phases,
                         sim::StepMode step = sim::StepMode::overlap,
                         int threads = 1, double* efficiency_out = nullptr) {
  sim::RunnerConfig cfg;
  cfg.global = global;
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = 5;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;
  cfg.step = step;
  cfg.threads = threads;
  obs::MetricsRegistry reg(ranks);
  if (efficiency_out != nullptr) cfg.metrics = &reg;
  const double t0 = wall_seconds();
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(phases);
  });
  const double elapsed = wall_seconds() - t0;
  if (efficiency_out != nullptr)
    *efficiency_out =
        reg.has_gauge(0, "overlap_efficiency")
            ? reg.gauge(0, "overlap_efficiency")
            : 0.0;
  return elapsed;
}

/// The hybrid-runner companion: blocking vs overlap wall time over
/// ThreadComm, the overlapped schedule also with a threaded interior
/// sweep. On a single hardware core the thread variants measure
/// scheduling overhead, not parallel speedup — the table says what it
/// measured either way.
int run_overlap_mode(const util::Options& opts) {
  const int phases = static_cast<int>(opts.get("phases", 150LL));
  const int max_ranks = static_cast<int>(opts.get("max-ranks", 4LL));
  const lbm::Extents global{opts.get("nx", 48LL), opts.get("ny", 16LL),
                            opts.get("nz", 8LL)};
  bench::check_options(opts);

  util::Table table("Figure 8 companion — blocking vs overlapped halo "
                    "exchange (" + std::to_string(phases) + " phases, " +
                    std::to_string(global.nx) + "x" +
                    std::to_string(global.ny) + "x" +
                    std::to_string(global.nz) + ")");
  table.header({"ranks", "blocking_s", "overlap_t1_s", "overlap_t2_s",
                "overlap_t4_s", "overlap_speedup", "overlap_efficiency"});

  bench::Summary summary("fig08_overlap");
  summary.add("phases", static_cast<long long>(phases));
  summary.add("nx", static_cast<long long>(global.nx));
  for (int p = 1; p <= max_ranks; p *= 2) {
    const double blocking =
        time_over_threads(global, p, phases, sim::StepMode::blocking, 1);
    double eff = 0.0;
    const double t1 = time_over_threads(global, p, phases,
                                        sim::StepMode::overlap, 1, &eff);
    const double t2 =
        time_over_threads(global, p, phases, sim::StepMode::overlap, 2);
    const double t4 =
        time_over_threads(global, p, phases, sim::StepMode::overlap, 4);
    table.row({static_cast<long long>(p), blocking, t1, t2, t4,
               t1 > 0.0 ? blocking / t1 : 0.0, eff});
    if (p == max_ranks) {
      summary.add("blocking_seconds", blocking);
      summary.add("overlap_seconds", t1);
      summary.add("overlap_speedup", t1 > 0.0 ? blocking / t1 : 0.0);
      summary.add("overlap_efficiency", eff);
    }
  }
  bench::emit(table, opts);
  summary.add_table("overlap", table);
  summary.write(opts);

  std::cout << "overlap_speedup = blocking / overlap_t1 wall time at each "
               "rank count; overlap_efficiency = interior compute / (interior "
               "+ halo wait) on rank 0. Physics is byte-identical across all "
               "columns (see test_overlap).\n";
  return 0;
}

/// The same run as real processes through the launcher; elapsed time
/// includes fork+exec, the ring rendezvous and teardown.
double time_over_processes(const lbm::Extents& global, int ranks,
                           int phases) {
  transport::LaunchConfig lc;
  lc.ranks = ranks;
  lc.worker_command = {SLIPFLOW_WORKER_EXE,
                       "--nx=" + std::to_string(global.nx),
                       "--ny=" + std::to_string(global.ny),
                       "--nz=" + std::to_string(global.nz),
                       "--phases=" + std::to_string(phases),
                       "--policy=filtered",
                       "--remap-interval=5",
                       "--window=3",
                       "--min-transfer=24",
                       "--recv-timeout=30"};
  lc.wall_clock_timeout = 300.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  if (!res.ok) {
    std::cerr << "process run failed: " << res.diagnostic << "\n";
    std::exit(1);
  }
  return res.elapsed_seconds;
}

/// Threads vs forked shm workers, same problem: best of `reps` runs of
/// each, interleaved thread/process/thread/process so a burst of machine
/// load cannot poison all of one column's samples.
int run_process_mode(const util::Options& opts) {
  const int phases = static_cast<int>(opts.get("phases", 150LL));
  const int max_ranks = static_cast<int>(opts.get("max-ranks", 4LL));
  const int reps = static_cast<int>(opts.get("reps", 3LL));
  const lbm::Extents global{opts.get("nx", 48LL), opts.get("ny", 16LL),
                            opts.get("nz", 8LL)};
  bench::check_options(opts);

  util::Table table("Figure 8 companion — thread vs real-process transport "
                    "overhead (" + std::to_string(phases) + " phases, " +
                    std::to_string(global.nx) + "x" +
                    std::to_string(global.ny) + "x" +
                    std::to_string(global.nz) + ", best of " +
                    std::to_string(reps) + ")");
  table.header({"ranks", "thread_seconds", "process_seconds",
                "process_over_thread"});

  bench::Summary summary("fig08_shm");
  summary.add("phases", static_cast<long long>(phases));
  summary.add("nx", static_cast<long long>(global.nx));
  summary.add("reps", static_cast<long long>(reps));
  for (int p = 1; p <= max_ranks; p *= 2) {
    double threads = time_over_threads(global, p, phases);
    double procs = time_over_processes(global, p, phases);
    for (int i = 1; i < reps; ++i) {
      threads = std::min(threads, time_over_threads(global, p, phases));
      procs = std::min(procs, time_over_processes(global, p, phases));
    }
    const double ratio = threads > 0.0 ? procs / threads : 0.0;
    table.row({static_cast<long long>(p), threads, procs, ratio});
    if (p == max_ranks) {
      summary.add("thread_seconds", threads);
      summary.add("process_seconds", procs);
      summary.add("process_over_thread", ratio);
    }
  }
  bench::emit(table, opts);
  summary.add_table("overhead", table);
  summary.write(opts);

  std::cout << "process runs carry fork+exec, the ring rendezvous and "
               "frame encode/decode on top of the in-process thread "
               "backend; physics is byte-identical (see test_multiprocess).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const std::string transport = opts.get("transport", std::string("virtual"));
  if (transport == "overlap") return run_overlap_mode(opts);
  if (transport == "shm") return run_process_mode(opts);
  if (transport != "virtual") {
    std::cerr << "unknown --transport=" << transport
              << " (expected virtual|overlap|shm)\n";
    return 2;
  }

  const int phases = static_cast<int>(opts.get("phases", 20000LL));
  const std::string csv = opts.get("csv", std::string{});
  (void)csv;
  bench::check_options(opts);

  util::Table table("Figure 8 — speedup and normalized efficiency vs slow "
                    "nodes (" + std::to_string(phases) + " phases)");
  table.header({"slow_nodes", "speedup_filtered", "speedup_no_remap",
                "efficiency_filtered", "efficiency_no_remap"});

  for (int m = 0; m <= 5; ++m) {
    double speedup[2];
    int i = 0;
    for (const char* policy : {"filtered", "none"}) {
      ClusterSim sim(paper::base_config(),
                     balance::RemapPolicy::create(policy));
      add_fixed_slow_nodes(sim, paper::slow_node_set(m));
      const auto r = sim.run(phases);
      speedup[i++] = sim.sequential_time(phases) / r.makespan;
    }
    table.row({static_cast<long long>(m), speedup[0], speedup[1],
               normalized_efficiency(speedup[0], 20, m),
               normalized_efficiency(speedup[1], 20, m)});
  }
  bench::emit(table, opts);
  bench::Summary summary("fig08_speedup_efficiency");
  summary.add_table("scaling", table);
  summary.write(opts);

  std::cout << "paper (Fig 8): filtered speedup ~19/16/13 at 0/1/5 slow "
               "nodes; efficiency ~0.9 for m<4 and ~0.8 at m=5; "
               "no-remapping drops dramatically.\n";
  return 0;
}
