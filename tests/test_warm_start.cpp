// Warm-start equivalence (the warm-state cache's correctness argument):
// a checkpoint taken at the equilibration boundary by one configuration
// must seed ANY other configuration of the same physics, and the
// resumed run's physics observables must be byte-identical to a
// straight-through run — across rank counts, with the forked workers
// on shared-memory rings.
//
// This is the composition of two repo invariants, pinned end-to-end
// with real forked workers:
//   * checkpoints are restorable on any decomposition
//     (tests/test_checkpoint_migration.cpp proves the state level);
//   * physics observables are bit-identical across ranks / transports /
//     migration histories (the ordered mass fold + per-cell profiles).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/job_spec.hpp"
#include "transport/launcher.hpp"

#ifndef SLIPFLOW_WORKER_EXE
#error "SLIPFLOW_WORKER_EXE must point at the slipflow_worker binary"
#endif

using namespace slipflow;
using serve::JobSpec;

namespace {

constexpr long long kPhases = 24;
constexpr long long kWarmPhases = 12;

std::string temp_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "slipflow_warm_" + name + "." +
                        std::to_string(::getpid());
  std::filesystem::create_directories(d);
  return d;
}

JobSpec base_spec() {
  JobSpec s;
  s.nx = 16;
  s.ny = 6;
  s.nz = 4;
  s.phases = kPhases;
  s.ranks = 2;
  s.wall_clock_budget = 60.0;
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string launch(const JobSpec& spec, const serve::JobPaths& paths) {
  const transport::LaunchConfig lc =
      serve::make_launch_config(spec, SLIPFLOW_WORKER_EXE, paths);
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  return read_file(paths.observables_out);
}

}  // namespace

TEST(WarmStart, ResumeMatchesStraightThroughAcrossRanksAndTransports) {
  const std::string dir = temp_dir("equiv");

  // Straight-through reference, 2 ranks.
  const JobSpec ref_spec = base_spec();
  serve::JobPaths ref_paths;
  ref_paths.observables_out = dir + "/obs_ref.txt";
  const std::string reference = launch(ref_spec, ref_paths);
  ASSERT_FALSE(reference.empty());

  // Producer: same run, additionally publishing the phase-12 warm
  // checkpoint. Saving the checkpoint must not move a byte.
  JobSpec producer = ref_spec;
  producer.warm_phases = kWarmPhases;
  serve::JobPaths prod_paths;
  prod_paths.observables_out = dir + "/obs_producer.txt";
  prod_paths.warm_checkpoint_out = dir + "/warm.ckpt";
  EXPECT_EQ(launch(producer, prod_paths), reference);
  ASSERT_TRUE(std::filesystem::exists(prod_paths.warm_checkpoint_out));

  // Resume the remainder from the 2-rank warm state on every rank
  // count: --phases is the ABSOLUTE target, so each run executes phases
  // 13..24 only.
  for (const int ranks : {1, 2, 4}) {
    JobSpec resumed = ref_spec;
    resumed.ranks = ranks;
    serve::JobPaths paths;
    paths.observables_out = dir + "/obs_r" + std::to_string(ranks) + ".txt";
    paths.load_checkpoint = prod_paths.warm_checkpoint_out;
    EXPECT_EQ(launch(resumed, paths), reference)
        << "resumed run diverged: ranks=" << ranks;
  }
}
