// The campaign server (src/serve): spec parsing + admission, fair-share
// scheduling, the warm-state cache, and — end to end, over the real
// control socket with real forked workers — the service guarantees the
// design doc promises:
//
//   * concurrent tenant jobs produce observables byte-identical to a
//     direct standalone launch of the same spec (make_launch_config is
//     the shared argv builder, and the physics is decomposition-
//     invariant, so this is structural — the test pins it anyway);
//   * a killed rank is named in the diagnostic and the job recovers
//     from its newest complete checkpoint, converging to the same bytes
//     as a clean run;
//   * a warm-cache hit provably skips the equilibration prefix
//     (phases_executed == phases - warm_phases) across rank counts.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/client.hpp"
#include "serve/job_spec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/warm_cache.hpp"
#include "transport/launcher.hpp"
#include "util/json.hpp"

#ifndef SLIPFLOW_WORKER_EXE
#error "SLIPFLOW_WORKER_EXE must point at the slipflow_worker binary"
#endif
#ifndef SLIPFLOW_SUBMIT_EXE
#error "SLIPFLOW_SUBMIT_EXE must point at the slipflow_submit binary"
#endif

using namespace slipflow;
using serve::JobSpec;
using util::JsonValue;

namespace {

std::string temp_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "slipflow_serve_" + name + "." +
                        std::to_string(::getpid());
  std::filesystem::create_directories(d);
  return d;
}

/// Short socket path (sun_path is 108 bytes; TempDir may be deep).
std::string socket_path(const std::string& name) {
  return "/tmp/sf_" + name + "." + std::to_string(::getpid()) + ".sock";
}

JobSpec small_spec() {
  JobSpec s;
  s.nx = 16;
  s.ny = 6;
  s.nz = 4;
  s.phases = 20;
  s.ranks = 2;
  s.wall_clock_budget = 60.0;
  return s;
}

/// Run the spec standalone — the same argv builder the server uses —
/// and return the observables bytes.
std::string run_direct(const JobSpec& spec, const std::string& dir) {
  serve::JobPaths paths;
  paths.observables_out = dir + "/obs_direct.txt";
  const transport::LaunchConfig lc =
      serve::make_launch_config(spec, SLIPFLOW_WORKER_EXE, paths);
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  std::ifstream f(paths.observables_out, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing " << paths.observables_out;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr
};

/// Run a shell command, capturing stdout + stderr and the exit code.
CommandResult run_command(const std::string& cmd) {
  CommandResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[256];
  while (fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

/// Run slipflow_submit with `args` on the small spec (written to `dir`).
CommandResult run_submit(const std::string& dir, const std::string& args) {
  const std::string spec = dir + "/spec.json";
  std::ofstream(spec) << small_spec().to_json().dump();
  return run_command(std::string(SLIPFLOW_SUBMIT_EXE) + " --spec=" + spec +
                     " " + args);
}

/// Thread stacks mapped in this process: a one-page PROT_NONE guard
/// directly below a read-write mapping. An exited std::thread keeps its
/// stack mapped until it is joined; joined stacks go back to the C
/// library's bounded stack cache.
int mapped_thread_stacks() {
  std::ifstream maps("/proc/self/maps");
  const unsigned long page = static_cast<unsigned long>(::sysconf(_SC_PAGESIZE));
  int stacks = 0;
  bool prev_guard = false;
  unsigned long prev_end = 0;
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long begin = 0, end = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &begin, &end, perms) != 3)
      continue;
    const std::string p(perms);
    if (prev_guard && begin == prev_end && p.starts_with("rw")) ++stacks;
    prev_guard = p == "---p" && end - begin == page;
    prev_end = end;
  }
  return stacks;
}

}  // namespace

// ---------------------------------------------------------------- spec --

TEST(Serve, JobSpecDefaultsAndRoundTrip) {
  const JobSpec defaults = JobSpec::from_json(util::json_parse("{}"));
  EXPECT_EQ(defaults.nx, 16);
  EXPECT_EQ(defaults.components, 2);
  EXPECT_EQ(defaults.transport, "shm");
  EXPECT_EQ(defaults.observables, "physics");

  JobSpec s = small_spec();
  s.wall_accel = 0.3;
  s.gravity = 1e-5;
  s.warm_phases = 8;
  s.stream_every = 5;
  s.fault_kill_rank = 1;
  s.fault_kill_phase = 7;
  const JobSpec back = JobSpec::from_json(s.to_json());
  EXPECT_EQ(back.to_json().dump(), s.to_json().dump());
}

TEST(Serve, JobSpecRejectsUnknownKeys) {
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"phasez":10})")),
               serve::serve_error);
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"geometry":{"nx":16,"nw":2}})")),
      serve::serve_error);
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"params":{"gravty":1e-5}})")),
      serve::serve_error);
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"fault":{"kill_node":1}})")),
      serve::serve_error);
}

TEST(Serve, JobSpecValidatesValues) {
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"components":3})")),
               serve::serve_error);
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"transport":"tcp"})")),
               serve::serve_error);
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"step":"fused"})")),
               serve::serve_error);
  // One plane per rank minimum: nx must cover the rank count.
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"geometry":{"nx":4},"ranks":8})")),
      serve::serve_error);
  // Warm prefix cannot exceed the run itself.
  EXPECT_THROW(JobSpec::from_json(
                   util::json_parse(R"({"phases":10,"warm_phases":11})")),
               serve::serve_error);
}

TEST(Serve, WarmKeyIgnoresSchedulingFields) {
  JobSpec a = small_spec();
  a.warm_phases = 10;
  JobSpec b = a;
  // Everything the equilibrated state is invariant to: decomposition,
  // threading, policy, step mode — and the total phase count.
  b.ranks = 4;
  b.threads = 2;
  b.policy = "greedy";
  b.step = "blocking";
  b.phases = 200;
  b.stream_every = 5;
  b.checkpoint_every = 5;
  EXPECT_EQ(a.warm_key(), b.warm_key());

  JobSpec c = a;
  c.wall_accel += 0.1;  // different physics → different entry
  EXPECT_NE(a.warm_key(), c.warm_key());
  JobSpec d = a;
  d.nx = 32;
  EXPECT_NE(a.warm_key(), d.warm_key());
  JobSpec e = a;
  e.warm_phases = 12;  // same physics, different equilibration depth
  EXPECT_NE(a.warm_key(), e.warm_key());
}

// ------------------------------------------------------------- lowering --

TEST(Serve, MakeLaunchConfigLowersSpec) {
  JobSpec s = small_spec();
  s.checkpoint_every = 5;
  s.fault_kill_rank = 1;
  s.fault_kill_phase = 12;
  serve::JobPaths paths;
  paths.observables_out = "/tmp/o.txt";
  paths.checkpoint_prefix = "/tmp/ck";
  const transport::LaunchConfig lc =
      serve::make_launch_config(s, "worker", paths);
  EXPECT_EQ(lc.ranks, 2);
  const auto has = [&](const std::string& arg) {
    for (const std::string& a : lc.worker_command)
      if (a == arg) return true;
    return false;
  };
  EXPECT_TRUE(has("--nx=16"));
  EXPECT_TRUE(has("--wall-accel=0.2"));
  EXPECT_TRUE(has("--gravity=2e-05"));
  EXPECT_TRUE(has("--observables=physics"));
  // Checkpointing jobs are forced onto the sync path, whose
  // save_checkpoint publishes by rename: recovery must never seed from a
  // torn file.
  EXPECT_TRUE(has("--io=sync"));
  // The injected fault reaches only the guilty rank's argv.
  ASSERT_EQ(lc.extra_args.count(1), 1u);
  EXPECT_EQ(lc.extra_args.at(1).front(), "--fault-kill-phase=12");
  EXPECT_EQ(lc.extra_args.count(0), 0u);
}

// ------------------------------------------------------------ fair share --

TEST(Serve, PickNextJobFairShare) {
  using serve::QueuedJob;
  const std::map<std::string, int> none;
  EXPECT_EQ(serve::pick_next_job({}, none, 8), -1);

  // Nothing fits the gap.
  EXPECT_EQ(serve::pick_next_job({{1, "a", 4}}, none, 2), -1);

  // A wide job never blocks a narrower one behind it.
  EXPECT_EQ(serve::pick_next_job({{1, "a", 8}, {2, "b", 2}}, none, 4), 1);

  // Fair share: the tenant holding fewer running slots wins even when
  // queued later.
  const std::map<std::string, int> loads{{"a", 4}, {"b", 0}};
  EXPECT_EQ(serve::pick_next_job({{1, "a", 2}, {2, "b", 2}}, loads, 4), 1);

  // Equal load → submission order.
  EXPECT_EQ(serve::pick_next_job({{1, "a", 2}, {2, "b", 2}}, none, 4), 0);
}

// ------------------------------------------------------------ warm cache --

TEST(Serve, WarmCacheHashAndRejection) {
  EXPECT_EQ(serve::WarmCache::hash_key("abc"),
            serve::WarmCache::hash_key("abc"));
  EXPECT_NE(serve::WarmCache::hash_key("abc"),
            serve::WarmCache::hash_key("abd"));

  const std::string dir = temp_dir("cache");
  serve::WarmCache cache(dir + "/warm");
  EXPECT_EQ(cache.lookup("no-such-key", 10), "");

  // A torn / foreign file must never become a cache entry.
  const std::string junk = dir + "/junk.ckpt";
  std::ofstream(junk, std::ios::binary) << "not a checkpoint";
  EXPECT_FALSE(cache.promote("some-key", 10, junk));
  EXPECT_EQ(cache.lookup("some-key", 10), "");
}

// ------------------------------------------------------------- admission --

TEST(Serve, AdmissionRejects) {
  serve::CampaignServer::Config cfg;
  cfg.work_dir = temp_dir("admission");
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  cfg.policy.total_slots = 4;
  cfg.policy.max_ranks_per_job = 2;
  cfg.policy.max_queued = 0;  // every queued job is one too many
  serve::CampaignServer server(cfg);
  server.start();

  JobSpec wide = small_spec();
  wide.ranks = 3;  // > max_ranks_per_job
  EXPECT_THROW(server.submit("t", wide), serve::serve_error);

  // Fits the per-job cap but the queue is full.
  EXPECT_THROW(server.submit("t", small_spec()), serve::serve_error);
  server.stop();

  serve::CampaignServer::Config cfg2;
  cfg2.work_dir = temp_dir("admission2");
  cfg2.worker_exe = SLIPFLOW_WORKER_EXE;
  cfg2.policy.total_slots = 2;
  cfg2.policy.max_ranks_per_job = 8;
  serve::CampaignServer server2(cfg2);
  server2.start();
  JobSpec pool = small_spec();
  pool.ranks = 4;  // wider than the whole pool
  EXPECT_THROW(server2.submit("t", pool), serve::serve_error);
  server2.stop();
}

// ---------------------------------------------------------------- e2e ---

// Three tenants, three concurrent jobs over the real control socket,
// each byte-identical to a direct standalone run of the same spec.
TEST(ServeE2E, ConcurrentJobsMatchDirectRuns) {
  const std::string dir = temp_dir("e2e_concurrent");
  serve::CampaignServer::Config cfg;
  cfg.socket_path = socket_path("conc");
  cfg.work_dir = dir;
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  cfg.policy.total_slots = 6;  // all three 2-rank jobs run at once
  serve::CampaignServer server(cfg);
  server.start();

  std::vector<JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    JobSpec s = small_spec();
    s.gravity = 2e-5 * (i + 1);  // three distinct physics
    specs.push_back(s);
  }

  serve::Client client(cfg.socket_path);
  std::vector<long long> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(client.submit("tenant" + std::to_string(i), specs[i]));

  for (int i = 0; i < 3; ++i) {
    const JsonValue rec = client.wait(ids[i]);
    ASSERT_EQ(rec.string_or("state", ""), "done")
        << rec.string_or("diagnostic", "");
    const std::string direct =
        run_direct(specs[i], temp_dir("e2e_direct" + std::to_string(i)));
    EXPECT_EQ(rec.string_or("observables", ""), direct)
        << "served job " << ids[i] << " diverged from its direct run";
  }

  const JsonValue st = client.stats();
  EXPECT_EQ(st.int_or("done", -1), 3);
  EXPECT_EQ(st.int_or("failed", -1), 0);
  server.stop();
}

// A rank killed mid-run is named in the preserved diagnostic; the job
// recovers from its newest complete checkpoint on attempt 2 and still
// converges to the clean run's bytes.
TEST(ServeE2E, KilledRankRecoversFromCheckpoint) {
  const std::string dir = temp_dir("e2e_recovery");
  serve::CampaignServer::Config cfg;
  cfg.work_dir = dir;
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();

  JobSpec s = small_spec();
  s.checkpoint_every = 5;
  s.fault_kill_rank = 1;
  s.fault_kill_phase = 12;

  const long long id = server.submit("chaos", s);
  const JsonValue rec = server.wait(id);
  ASSERT_EQ(rec.string_or("state", ""), "done")
      << rec.string_or("diagnostic", "");
  EXPECT_EQ(rec.int_or("attempts", -1), 2);
  EXPECT_EQ(rec.int_or("failed_rank", -1), 1);
  EXPECT_NE(rec.string_or("diagnostic", "").find("rank 1"), std::string::npos)
      << rec.string_or("diagnostic", "");

  JobSpec clean = s;
  clean.fault_kill_rank = -1;
  clean.fault_kill_phase = -1;
  clean.checkpoint_every = 0;
  const std::string direct = run_direct(clean, temp_dir("e2e_recovery_ref"));
  EXPECT_EQ(rec.string_or("observables", ""), direct);
  server.stop();
}

// Every served job runs on its own thread and every submit/wait on its
// own connection thread; a long-lived daemon must join them as they
// finish instead of keeping one dead thread per job until shutdown.
TEST(ServeE2E, SequentialJobsKeepThreadsBounded) {
  serve::CampaignServer::Config cfg;
  cfg.socket_path = socket_path("reap");
  cfg.work_dir = temp_dir("e2e_reap");
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();
  serve::Client client(cfg.socket_path);
  JobSpec s = small_spec();
  s.phases = 2;
  const auto run_one = [&] {
    const JsonValue rec = client.wait(client.submit("reap", s));
    EXPECT_EQ(rec.string_or("state", ""), "done")
        << rec.string_or("diagnostic", "");
  };

  for (int i = 0; i < 2; ++i) run_one();  // settle the allocator's arenas
  const int before = mapped_thread_stacks();
  constexpr int kJobs = 10;
  for (int i = 0; i < kJobs; ++i) run_one();
  const int grown = mapped_thread_stacks() - before;
  // Unjoined, this grows by three stacks per job: the job thread and the
  // submit and wait connection threads.
  EXPECT_LE(grown, 4) << grown << " thread stacks left over by " << kJobs
                      << " sequential jobs";
  server.stop();
}

// slipflow_submit creates a missing (nested) --out-dir before the first
// job, in both the direct and the served mode.
TEST(ServeE2E, SubmitCreatesMissingOutDir) {
  const std::string dir = temp_dir("submit_mkdir");
  const CommandResult direct =
      run_submit(dir, "--direct --out-dir=" + dir + "/direct/a/b");
  EXPECT_EQ(direct.exit_code, 0) << direct.output;
  EXPECT_TRUE(std::filesystem::exists(dir + "/direct/a/b/obs_direct1.txt"))
      << direct.output;

  serve::CampaignServer::Config cfg;
  cfg.socket_path = socket_path("mkdir");
  cfg.work_dir = dir + "/work";
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();
  const CommandResult served =
      run_submit(dir, "--quiet --socket=" + cfg.socket_path +
                          " --out-dir=" + dir + "/served/a/b");
  server.stop();
  EXPECT_EQ(served.exit_code, 0) << served.output;
  EXPECT_TRUE(std::filesystem::exists(dir + "/served/a/b/obs_job1.txt"))
      << served.output;
}

// An --out-dir that cannot be created fails fast with one line, before
// any job runs (no worker is launched, no server is contacted).
TEST(ServeE2E, SubmitRejectsUncreatableOutDir) {
  const std::string dir = temp_dir("submit_baddir");
  std::ofstream(dir + "/file") << "not a directory";
  const std::string bad = " --out-dir=" + dir + "/file/sub";
  for (const std::string& mode :
       {std::string("--direct"),
        "--socket=" + socket_path("nobody_listens")}) {
    const CommandResult r = run_submit(dir, mode + bad);
    EXPECT_EQ(r.exit_code, 2) << mode << ":\n" << r.output;
    EXPECT_NE(r.output.find("cannot create --out-dir"), std::string::npos)
        << mode << ":\n" << r.output;
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
        << mode << ":\n" << r.output;
  }
}

// Forked runs have one transport: a spec naming any other is rejected
// at submit with one line naming the field, before anything launches.
TEST(ServeE2E, SubmitRejectsNonShmTransport) {
  const std::string dir = temp_dir("submit_transport");
  for (const char* transport : {"socket", "auto"}) {
    util::JsonValue::Object spec = small_spec().to_json().as_object();
    spec["transport"] = util::JsonValue(transport);
    std::ofstream(dir + "/spec.json") << util::JsonValue(spec).dump();
    for (const std::string& mode :
         {std::string("--direct"),
          "--socket=" + socket_path("nobody_listens")}) {
      const CommandResult r =
          run_command(std::string(SLIPFLOW_SUBMIT_EXE) + " --spec=" + dir +
                      "/spec.json " + mode);
      EXPECT_EQ(r.exit_code, 2) << transport << " " << mode << ":\n"
                                << r.output;
      EXPECT_NE(r.output.find("transport must be \"shm\""),
                std::string::npos)
          << transport << " " << mode << ":\n" << r.output;
      EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
          << transport << " " << mode << ":\n" << r.output;
    }
  }
}

// Every worker output whose directory is missing fails with one line
// naming the option, before the worker connects or computes: rank 1
// never starts, so a worker that got as far as connecting would wait out
// its connect timeout and exit 3.
TEST(ServeE2E, WorkerRejectsMissingOutputDirBeforeConnecting) {
  const std::string dir = temp_dir("worker_baddir");
  std::ofstream(dir + "/file") << "not a directory";
  const std::string missing = dir + "/file/sub";
  const std::string worker = std::string(SLIPFLOW_WORKER_EXE) +
                             " --ranks=2 --rank=0 --socket-dir=" + dir +
                             " --connect-timeout=5 --phases=4 ";
  const std::pair<std::string, std::string> cases[] = {
      {"--checkpoint-out",
       "--checkpoint-every=1 --checkpoint-out=" + missing + "/ck"},
      {"--vtk-out", "--vtk-every=1 --vtk-out=" + missing + "/v"},
      {"--metrics-out", "--metrics-out=" + missing + "/m.csv"},
      {"--observables-out", "--observables-out=" + missing + "/o.txt"},
      {"--warm-checkpoint-out",
       "--warm-phases=2 --warm-checkpoint-out=" + missing + "/w.ckpt"},
      {"--stream-dir", "--stream-every=1 --stream-dir=" + missing}};
  for (const auto& [option, args] : cases) {
    const CommandResult r = run_command(worker + args);
    EXPECT_EQ(r.exit_code, 2) << args << ":\n" << r.output;
    EXPECT_NE(r.output.find(option + "="), std::string::npos)
        << args << ":\n" << r.output;
    EXPECT_NE(r.output.find("missing or not writable"), std::string::npos)
        << args << ":\n" << r.output;
    EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 1)
        << args << ":\n" << r.output;
  }
}

// The second job with the same physics seeds from the warm cache and
// executes only the post-equilibration remainder — on a different rank
// count, with byte-identical observables.
TEST(ServeE2E, WarmCacheHitSkipsEquilibration) {
  const std::string dir = temp_dir("e2e_warm");
  serve::CampaignServer::Config cfg;
  cfg.work_dir = dir;
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();

  JobSpec producer = small_spec();
  producer.warm_phases = 10;
  const JsonValue first = server.wait(server.submit("sweep", producer));
  ASSERT_EQ(first.string_or("state", ""), "done")
      << first.string_or("diagnostic", "");
  EXPECT_FALSE(first.bool_or("warm_hit", true));
  EXPECT_EQ(first.int_or("phases_executed", -1), producer.phases);

  JobSpec consumer = producer;
  consumer.ranks = 1;  // the warm state is decomposition-invariant
  const JsonValue second = server.wait(server.submit("sweep", consumer));
  ASSERT_EQ(second.string_or("state", ""), "done")
      << second.string_or("diagnostic", "");
  EXPECT_TRUE(second.bool_or("warm_hit", false));
  EXPECT_EQ(second.int_or("phases_executed", -1),
            producer.phases - producer.warm_phases);
  EXPECT_EQ(second.string_or("observables", "x"),
            first.string_or("observables", "y"));

  const JsonValue st = server.stats();
  EXPECT_EQ(st.int_or("cache_hits", -1), 1);
  EXPECT_EQ(st.int_or("cache_misses", -1), 1);
  server.stop();
}
