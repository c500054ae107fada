// End-to-end multi-process runs: the launcher forks+execs real
// slipflow_worker binaries (SLIPFLOW_WORKER_EXE, injected by CMake) over
// shared-memory rings, and the physics they produce must be byte-
// identical to the same configuration over in-process ThreadComm.
//
// Determinism rests on injected CountingClocks (obs/clock.hpp): every
// "measured" stage time is a pure function of the call sequence, so the
// remapping decisions — and therefore plane migrations, masses and
// profiles — cannot depend on which transport carried the messages.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "sim/worker.hpp"
#include "transport/launcher.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;

namespace {

constexpr int kRanks = 4;
constexpr int kPhases = 40;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "slipflow_" + name + "." +
         std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The reference configuration, identical to the worker flags below.
sim::RunnerConfig reference_config() {
  sim::RunnerConfig cfg;
  cfg.global = lbm::Extents{16, 6, 4};
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = 5;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;
  // rank 1 is virtually 4x slower — the remapper must move planes off it
  cfg.clock_factory = [](int rank) -> std::shared_ptr<obs::Clock> {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  return cfg;
}

std::string run_over_threads() {
  const sim::RunnerConfig cfg = reference_config();
  std::string observables;
  transport::run_ranks(kRanks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(kPhases);
    const std::string obs = sim::collect_observables(run, comm, cfg.global);
    if (comm.rank() == 0) observables = obs;
  });
  return observables;
}

transport::LaunchConfig worker_launch(const std::string& observables_out) {
  transport::LaunchConfig lc;
  lc.ranks = kRanks;
  lc.worker_command = {SLIPFLOW_WORKER_EXE,
                       "--nx=16",
                       "--ny=6",
                       "--nz=4",
                       "--phases=" + std::to_string(kPhases),
                       "--policy=filtered",
                       "--remap-interval=5",
                       "--window=3",
                       "--min-transfer=24",
                       "--clock=counting",
                       "--clock-step=1e-3",
                       "--slow-clock-rank=1",
                       "--slow-clock-factor=4",
                       "--recv-timeout=20",
                       "--observables-out=" + observables_out};
  lc.heartbeat_interval = 0.1;
  lc.heartbeat_grace = 10.0;
  lc.wall_clock_timeout = 90.0;
  return lc;
}

}  // namespace

TEST(MultiProcess, ForkObservablesAreByteIdenticalToThreads) {
  const std::string out = temp_path("obs_fork");
  const transport::LaunchResult res =
      transport::launch_workers(worker_launch(out));
  ASSERT_TRUE(res.ok) << res.diagnostic;

  const std::string fork_obs = read_file(out);
  std::remove(out.c_str());
  const std::string thread_obs = run_over_threads();

  ASSERT_FALSE(fork_obs.empty());
  EXPECT_EQ(fork_obs, thread_obs)
      << "real-process physics diverged from the in-process reference";
  // sanity: the virtually slow rank actually shed planes, so the
  // comparison covers migrated state, not just an untouched lattice
  EXPECT_NE(fork_obs.find("rank 1 planes"), std::string::npos);
  EXPECT_EQ(fork_obs.find("rank 1 planes 4 sent 0"), std::string::npos)
      << "expected rank 1 to migrate planes away:\n"
      << fork_obs.substr(0, 400);
}

TEST(MultiProcess, RepeatedForkRunsAreByteIdentical) {
  const std::string out_a = temp_path("obs_a");
  const std::string out_b = temp_path("obs_b");
  const transport::LaunchResult ra =
      transport::launch_workers(worker_launch(out_a));
  ASSERT_TRUE(ra.ok) << ra.diagnostic;
  const transport::LaunchResult rb =
      transport::launch_workers(worker_launch(out_b));
  ASSERT_TRUE(rb.ok) << rb.diagnostic;
  const std::string a = read_file(out_a);
  const std::string b = read_file(out_b);
  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MultiProcess, KilledRankIsNamedWithinTimeout) {
  transport::LaunchConfig lc = worker_launch(temp_path("obs_killed"));
  lc.worker_command.back() = "--phases=5000";  // replace observables-out
  lc.wall_clock_timeout = 60.0;
  lc.extra_args[2] = {"--fault-kill-phase=40"};
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failed_rank, 2) << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("rank 2 killed by signal 9"),
            std::string::npos)
      << res.diagnostic;
  EXPECT_LT(res.elapsed_seconds, 60.0);
}

TEST(MultiProcess, FrozenRankIsCaughtByHeartbeatSilence) {
  transport::LaunchConfig lc = worker_launch(temp_path("obs_frozen"));
  lc.worker_command.back() = "--phases=5000";
  lc.heartbeat_interval = 0.1;
  lc.heartbeat_grace = 1.5;
  lc.wall_clock_timeout = 60.0;
  lc.extra_args[1] = {"--fault-stop-phase=40"};  // SIGSTOP: silent freeze
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failed_rank, 1) << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("heartbeat silent"), std::string::npos)
      << res.diagnostic;
  EXPECT_LT(res.elapsed_seconds, 30.0);
}

TEST(MultiProcess, UnusableRingDirFailsBeforeForking) {
  // Every worker maps its rings under the launch directory, so one that
  // cannot host them must fail the launch up front — naming the
  // directory and $TMPDIR — instead of forking workers that die later.
  const std::string dir = temp_path("no_such_dir") + "/rings";
  const std::string marker = temp_path("forked_marker");
  transport::LaunchConfig lc;
  lc.ranks = 2;
  lc.dir = dir;
  // would create the marker if it were ever forked
  lc.worker_command = {"/bin/sh", "-c", "touch \"$0\"", marker};
  lc.wall_clock_timeout = 20.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failed_rank, -1);
  EXPECT_EQ(res.diagnostic.find('\n'), std::string::npos) << res.diagnostic;
  EXPECT_NE(res.diagnostic.find(dir), std::string::npos) << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("$TMPDIR"), std::string::npos)
      << res.diagnostic;
  EXPECT_FALSE(std::filesystem::exists(marker)) << "a worker was forked";
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(MultiProcess, MissingWorkerBinaryFailsFast) {
  transport::LaunchConfig lc;
  lc.ranks = 2;
  lc.worker_command = {"/nonexistent/slipflow_worker"};
  lc.wall_clock_timeout = 20.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.diagnostic.find("exited with code 127"), std::string::npos)
      << res.diagnostic;
}

TEST(MultiProcess, WorkerRejectsUnknownFlags) {
  transport::LaunchConfig lc;
  lc.ranks = 1;
  lc.worker_command = {SLIPFLOW_WORKER_EXE, "--phases=1", "--no-such-flag=1"};
  lc.wall_clock_timeout = 20.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.diagnostic.find("exited with code 2"), std::string::npos)
      << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("no-such-flag"), std::string::npos)
      << res.diagnostic;
  // The diagnostic must teach, not just scold: it lists the worker's
  // actual flag surface so sweep-script typos are one edit from fixed.
  EXPECT_NE(res.diagnostic.find("valid flags"), std::string::npos)
      << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("--phases"), std::string::npos)
      << res.diagnostic;
}

// The same flag hygiene holds for the launcher-side binaries: every
// example rejects a typo'd flag with exit code 2 and the valid-flag list.
TEST(MultiProcess, ExampleRejectsUnknownFlags) {
  const std::string cmd = std::string(SLIPFLOW_EXAMPLE_EXE) +
                          " --ranks=1 --no-such-flag=1 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("no-such-flag"), std::string::npos) << output;
  EXPECT_NE(output.find("valid flags"), std::string::npos) << output;
  EXPECT_NE(output.find("--ranks"), std::string::npos) << output;
}
