// ShmComm-specific behaviors beyond the cross-backend contract matrix
// (which test_transport.cpp / test_property_transport.cpp already run
// over the Shm and Fork backends): the frame codec, ring wrap-around,
// fragmentation of messages larger than the ring, spill-based
// backpressure, zero-copy views, stale-segment replacement and cleanup,
// $TMPDIR-honoring segment paths, named closed-peer/drop diagnostics,
// delay/throttle faults, stats publication, and the forked kill-rank
// fault. Fork-suffixed suites fork real processes and are excluded from
// TSan runs (TSan cannot follow forks); everything else is threaded via
// run_ranks_shm.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "transport/frame.hpp"
#include "transport/shm_comm.hpp"
#include "transport/tempdir.hpp"

using namespace slipflow;
using namespace slipflow::transport;

namespace {

ShmRunOptions guarded() {
  ShmRunOptions o;
  o.comm.recv_timeout = 20.0;  // a wedged test must fail, not hang ctest
  return o;
}

ShmRunOptions small_ring(std::size_t ring_bytes) {
  ShmRunOptions o = guarded();
  o.ring_bytes = ring_bytes;
  return o;
}

std::vector<double> pattern(std::size_t n, double seed) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = seed + static_cast<double>(i) * 0.5;
  return v;
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- frame codec ---

TEST(Frame, HeaderRoundTripsAllFields) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.src = 1234;
  h.tag = -101;  // internal collective tags are negative
  h.count = (1ull << 20) + 7;
  const auto bytes = encode_frame_header(h);
  const FrameHeader back = decode_frame_header(bytes);
  EXPECT_EQ(back.kind, FrameKind::kData);
  EXPECT_EQ(back.src, 1234);
  EXPECT_EQ(back.tag, -101);
  EXPECT_EQ(back.count, (1ull << 20) + 7);
  EXPECT_EQ(back.magic, kFrameMagic);
}

TEST(Frame, RejectsBadMagic) {
  auto bytes = encode_frame_header(FrameHeader{});
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(decode_frame_header(bytes), comm_error);
}

TEST(Frame, RejectsUnknownKind) {
  auto bytes = encode_frame_header(FrameHeader{});
  const std::uint16_t bad = 99;
  std::memcpy(bytes.data() + 4, &bad, 2);
  EXPECT_THROW(decode_frame_header(bytes), comm_error);
}

TEST(Frame, RejectsImplausiblePayloadLength) {
  FrameHeader h;
  h.count = kMaxFrameDoubles + 1;
  const auto bytes = encode_frame_header(h);
  EXPECT_THROW(decode_frame_header(bytes), comm_error);
}

// --- rings ---

TEST(ShmComm, RingWrapAroundPreservesMessageStream) {
  // The minimum ring holds only a couple of frames, so this ping-pong
  // crosses the end-of-ring seam many times with varying frame sizes —
  // exercising both the explicit kPad frames and the implicit skip
  // (remainder smaller than one header).
  run_ranks_shm(
      2,
      [](Communicator& c) {
        for (int i = 0; i < 150; ++i) {
          const auto n = static_cast<std::size_t>(100 + i);
          const std::vector<double> msg = pattern(n, i);
          if (c.rank() == 0) {
            c.send(1, 7, msg);
            EXPECT_EQ(c.recv(1, 8), msg) << "round " << i;
          } else {
            EXPECT_EQ(c.recv(0, 7), msg) << "round " << i;
            c.send(0, 8, msg);
          }
        }
      },
      small_ring(4096));
}

TEST(ShmComm, MessageLargerThanRingIsFragmented) {
  // 5000 doubles ≈ 40 KB through a 4 KB ring: the message must arrive
  // intact via bounded fragments (no frame may exceed half a ring).
  const std::vector<double> big = pattern(5000, 3.0);
  run_ranks_shm(
      2,
      [&big](Communicator& c) {
        if (c.rank() == 0) {
          c.send(1, 4, big);
        } else {
          EXPECT_EQ(c.recv(0, 4), big);
        }
        c.barrier();
      },
      small_ring(4096));
}

TEST(ShmComm, BackpressureSpillsInsteadOfBlockingTheSender) {
  // The receiver sleeps before touching the transport, so nothing
  // consumes the ring while the sender pushes 32 frames that together
  // exceed it many times over. The eager-send contract says every send
  // must still return (spilling to the local outbox), and FIFO order
  // must survive the spill.
  run_ranks_shm(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          for (int i = 0; i < 32; ++i)
            c.send(1, 5, pattern(200, i));
          // All 32 sends returned; with the peer asleep the ring can
          // only have absorbed a couple of them.
          const ShmStats s = dynamic_cast<ShmComm&>(c).stats();
          EXPECT_GT(s.spilled_frames, 0);
          EXPECT_GT(s.spilled_bytes, 0);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
          for (int i = 0; i < 32; ++i)
            EXPECT_EQ(c.recv(0, 5), pattern(200, i)) << "message " << i;
        }
        c.barrier();
      },
      small_ring(4096));
}

TEST(ShmComm, ZeroCopyViewDeliversInPlace) {
  run_ranks_shm(2, [](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 4, std::vector<double>{1.0, 2.0, 3.0});
      c.send(1, 4, std::vector<double>{9.0});
      c.barrier();
      return;
    }
    auto& shm = dynamic_cast<ShmComm&>(c);
    // Poll until the first frame is on the ring, then view it in place.
    std::optional<std::span<const double>> view;
    while (!(view = shm.try_recv_view(0, 4)))
      std::this_thread::yield();
    ASSERT_EQ(view->size(), 3u);
    EXPECT_EQ((*view)[0], 1.0);
    EXPECT_EQ((*view)[2], 3.0);
    // Only one view may be active at a time — the second request is a
    // caller bug, not a transport error.
    EXPECT_THROW((void)shm.try_recv_view(0, 4), contract_error);
    shm.release_view();
    // The channel keeps working through the ordinary path afterwards.
    EXPECT_EQ(c.recv(0, 4), std::vector<double>{9.0});
    c.barrier();
  });
}

TEST(ShmComm, SegmentsHonorTmpdir) {
  const std::string tmp = make_socket_temp_dir();
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("TMPDIR", tmp.c_str(), 1);
  try {
    run_ranks_shm(2, [&tmp](Communicator& c) {
      auto& shm = dynamic_cast<ShmComm&>(c);
      // The harness's fresh directory (tempdir.hpp) lives under TMPDIR,
      // and the live segment files for this rank's inbound rings exist
      // inside it while the communicator is up.
      EXPECT_EQ(shm.dir().rfind(tmp + "/", 0), 0u) << shm.dir();
      const int peer = 1 - c.rank();
      EXPECT_TRUE(exists(shm.dir() + "/ring_" + std::to_string(peer) + "to" +
                         std::to_string(c.rank()) + ".shm"));
      c.barrier();
    });
  } catch (...) {
    if (saved.empty()) ::unsetenv("TMPDIR");
    else ::setenv("TMPDIR", saved.c_str(), 1);
    std::filesystem::remove_all(tmp);
    throw;
  }
  if (saved.empty()) ::unsetenv("TMPDIR");
  else ::setenv("TMPDIR", saved.c_str(), 1);
  std::filesystem::remove_all(tmp);
}

TEST(ShmComm, StaleSegmentsAreReplacedAndCleanedUp) {
  // A crashed earlier run leaves segment files behind. A new launch in
  // the same directory must replace them (unlink-then-create plus the
  // session tag makes a stale mapping unacceptable to producers), and a
  // clean exit must leave no segments at all.
  const std::string dir = make_socket_temp_dir();
  for (const char* name : {"/ring_0to1.shm", "/ring_1to0.shm"}) {
    std::ofstream junk(dir + name, std::ios::binary | std::ios::trunc);
    junk << "stale garbage from a previous crashed run";
  }
  ShmRunOptions o;
  o.comm.recv_timeout = 20.0;
  o.dir = dir;
  run_ranks_shm(
      2,
      [](Communicator& c) {
        const int peer = 1 - c.rank();
        if (c.rank() == 0) c.send(peer, 1, std::vector<double>{42.0});
        if (c.rank() == 1) {
          EXPECT_EQ(c.recv(0, 1), std::vector<double>{42.0});
        }
        c.barrier();
      },
      o);
  for (const char* name : {"/ring_0to1.shm", "/ring_1to0.shm"})
    EXPECT_FALSE(exists(dir + name)) << name;
  std::filesystem::remove_all(dir);
}

TEST(ShmComm, CleanPeerExitSurfacesAsNamedClosedError) {
  // Rank 0 departs without sending; rank 1's recv must fail with a
  // named "connection closed" diagnostic, not a timeout and not a hang.
  run_ranks_shm(2, [](Communicator& c) {
    if (c.rank() == 0) return;  // tears the endpoint down immediately
    try {
      c.recv(0, 5);
      ADD_FAILURE() << "recv from a departed peer must fail";
    } catch (const comm_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("connection to rank 0 closed"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("(src=0, tag=5)"), std::string::npos) << msg;
    }
  });
}

TEST(ShmComm, DropFaultSurfacesAsNamedTimeout) {
  ShmRunOptions o;
  o.comm.recv_timeout = 0.5;
  o.faults = [](int rank) {
    FaultInjection f;
    if (rank == 0) {
      f.drop_dest = 1;
      f.drop_tag = 9;
      f.drop_count = 1;
    }
    return f;
  };
  run_ranks_shm(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          c.send(1, 9, std::vector<double>{1.0});  // silently dropped
          // outlive the peer's timeout so it reports a timeout, not a
          // closed connection
          std::this_thread::sleep_for(std::chrono::milliseconds(900));
        } else {
          try {
            c.recv(0, 9);
            ADD_FAILURE() << "the dropped message must never arrive";
          } catch (const comm_timeout& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("(src=0, tag=9)"), std::string::npos) << msg;
          }
        }
      },
      o);
}

TEST(ShmComm, BidirectionalFloodDoesNotDeadlock) {
  // Both ranks push ~1.6 MB — more than their 1 MiB rings hold — before
  // either receives: with blocking sends this wedges on two full rings;
  // the eager outbox must absorb it.
  run_ranks_shm(
      2,
      [](Communicator& c) {
        const int peer = 1 - c.rank();
        std::vector<double> chunk(1024, static_cast<double>(c.rank()));
        for (int i = 0; i < 200; ++i) {
          chunk[0] = static_cast<double>(i);
          c.send(peer, 6, chunk);
        }
        for (int i = 0; i < 200; ++i) {
          const auto got = c.recv(peer, 6);
          ASSERT_EQ(got.size(), chunk.size());
          ASSERT_EQ(got[0], static_cast<double>(i));
          ASSERT_EQ(got[1], static_cast<double>(peer));
        }
      },
      guarded());
}

TEST(ShmComm, DelayFaultStillDelivers) {
  ShmRunOptions o = guarded();
  o.faults = [](int rank) {
    FaultInjection f;
    if (rank == 0) f.send_delay = 0.2;
    return f;
  };
  run_ranks_shm(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          const double t0 = wall_now();
          c.send(1, 8, std::vector<double>{7.0});
          EXPECT_GE(wall_now() - t0, 0.15);
        } else {
          EXPECT_EQ(c.recv(0, 8)[0], 7.0);
        }
        c.barrier();
      },
      o);
}

TEST(ShmComm, ThrottleFaultSlowsButDelivers) {
  ShmRunOptions o = guarded();
  o.faults = [](int rank) {
    FaultInjection f;
    if (rank == 0) f.throttle_bytes_per_sec = 1e6;  // burst allowance 100 KB
    return f;
  };
  run_ranks_shm(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          const std::vector<double> big(1 << 16, 1.5);  // 512 KB message
          const double t0 = wall_now();
          c.send(1, 9, big);
          // ~(512 KB - 100 KB burst) / 1 MB/s ≈ 0.4 s of token wait
          EXPECT_GE(wall_now() - t0, 0.25);
          EXPECT_GT(dynamic_cast<ShmComm&>(c).stats().throttle_wait_seconds,
                    0.0);
        } else {
          const auto got = c.recv(0, 9);
          ASSERT_EQ(got.size(), static_cast<std::size_t>(1 << 16));
          EXPECT_EQ(got[123], 1.5);
        }
        c.barrier();
      },
      o);
}

TEST(ShmComm, ThreadedHarnessRejectsKillFaults) {
  // SIGKILL in a threaded harness would take down the whole test
  // process; the harness names the forked alternative instead.
  ShmRunOptions o;
  o.faults = [](int) {
    FaultInjection f;
    f.kill_at_phase = 1;
    return f;
  };
  EXPECT_THROW(run_ranks_shm(2, [](Communicator& c) { c.barrier(); }, o),
               contract_error);
}

TEST(ShmComm, StatsCountTrafficAndPublishToMetrics) {
  const std::string dir = make_socket_temp_dir();
  obs::MetricsRegistry reg(2);
  auto endpoint = [&](int rank) {
    ShmCommConfig cfg;
    cfg.rank = rank;
    cfg.nranks = 2;
    cfg.dir = dir;
    cfg.comm.recv_timeout = 20.0;
    cfg.session = 42;
    cfg.metrics = &reg;
    ShmComm c(cfg);
    if (rank == 0) c.send(1, 1, pattern(64, 1.0));
    if (rank == 1) {
      EXPECT_EQ(c.recv(0, 1), pattern(64, 1.0));
    }
    c.barrier();
    const ShmStats s = c.stats();
    EXPECT_GT(s.messages_sent, 0);
    EXPECT_GT(s.messages_received, 0);
    EXPECT_GT(s.bytes_sent, 0);
    c.publish_stats();
  };
  std::thread t1([&] { endpoint(1); });
  endpoint(0);
  t1.join();
  EXPECT_GT(reg.counter_total("shm/messages_sent"), 0.0);
  EXPECT_GT(reg.counter_total("shm/bytes_received"), 0.0);
  EXPECT_GE(reg.counter(1, "shm/messages_received"), 1.0);
  std::filesystem::remove_all(dir);
}

#if defined(__linux__)
TEST(ShmComm, BlockedRecvParksInFutexAndWakesOnCommit) {
  // The receiver blocks well past the spin budget (the sender sits out
  // 200 ms before sending), so the wait must concede at least one
  // futex(2) park — and the sender's commit must wake it promptly
  // enough that the message still arrives.
  run_ranks_shm(2, [](Communicator& c) {
    if (c.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      c.send(1, 7, pattern(32, 2.0));
    } else {
      EXPECT_EQ(c.recv(0, 7), pattern(32, 2.0));
      EXPECT_GT(dynamic_cast<ShmComm&>(c).stats().futex_waits, 0);
    }
    c.barrier();
  });
}
#endif

TEST(ShmComm, DirUsableProbe) {
  const std::string dir = make_socket_temp_dir();
  EXPECT_TRUE(shm_dir_usable(dir));
  EXPECT_FALSE(shm_dir_usable(dir + "/does-not-exist"));
  std::filesystem::remove_all(dir);
}

// --- forked fault tests (excluded from TSan via the *Fork* filter) ---

TEST(ShmCommFork, KilledRankIsNamedWithSignal) {
  ShmRunOptions o;
  o.comm.recv_timeout = 5.0;
  o.wall_timeout = 60.0;
  o.faults = [](int rank) {
    FaultInjection f;
    if (rank == 1) f.kill_at_phase = 3;
    return f;
  };
  try {
    run_ranks_shm_forked(
        3,
        [](Communicator& c) {
          for (long long phase = 1; phase <= 10; ++phase) {
            c.note_progress(phase);
            c.barrier();
          }
        },
        o);
    FAIL() << "the killed rank must fail the run";
  } catch (const comm_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1 killed by signal 9"), std::string::npos)
        << msg;
  }
}

TEST(ShmCommFork, RunsCleanlyAcrossProcesses) {
  // The same rings work process-to-process (real shared memory, not
  // just threads sharing an address space).
  ShmRunOptions o;
  o.comm.recv_timeout = 20.0;
  run_ranks_shm_forked(
      4,
      [](Communicator& c) {
        const double mine = static_cast<double>(c.rank());
        const auto all = c.allgather(std::span<const double>(&mine, 1));
        if (all.size() != 4u) throw std::runtime_error("short allgather");
        for (int r = 0; r < 4; ++r)
          if (all[static_cast<std::size_t>(r)] != static_cast<double>(r))
            throw std::runtime_error("misordered allgather");
        c.barrier();
      },
      o);
}
