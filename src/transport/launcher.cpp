#include "transport/launcher.hpp"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "transport/child_set.hpp"
#include "transport/fdio.hpp"
#include "transport/frame.hpp"
#include "transport/shm_comm.hpp"
#include "transport/tempdir.hpp"
#include "util/require.hpp"

namespace slipflow::transport {

using fdio::mono_now;
using fdio::set_nonblocking;

namespace {

/// One accepted heartbeat connection. Heartbeat frames are parsed with
/// the shared frame codec; each names its sender rank.
struct HbConn {
  int fd = -1;
  std::vector<std::byte> buf;
};

/// Heartbeat state per rank; process state lives in the ChildSet.
struct Beat {
  double last = -1.0;
  long long phase = -1;
};

/// Supervisor wake-up cadence while LaunchConfig::on_tick is set.
constexpr double kTickSeconds = 0.05;

}  // namespace

LaunchResult launch_workers(const LaunchConfig& cfg) {
  SLIPFLOW_REQUIRE(cfg.ranks >= 1);
  SLIPFLOW_REQUIRE_MSG(!cfg.worker_command.empty(),
                       "launch_workers: empty worker command");
  namespace fs = std::filesystem;

  std::string dir = cfg.dir;
  bool own_dir = false;
  if (dir.empty()) {
    dir = make_socket_temp_dir();
    own_dir = true;
  }

  // Fail before forking: every worker maps its rings under `dir`.
  if (!shm_dir_usable(dir)) {
    std::error_code ec;
    if (own_dir) fs::remove_all(dir, ec);
    const char* tmpdir = std::getenv("TMPDIR");
    LaunchResult bad;
    bad.last_phase.assign(static_cast<std::size_t>(cfg.ranks), -1);
    bad.diagnostic = "launch_workers: directory " + dir +
                     " cannot host shared-memory ring segments; point "
                     "$TMPDIR (now: " +
                     (tmpdir != nullptr ? tmpdir : "unset") +
                     ") at a writable local or tmpfs directory";
    return bad;
  }
  const std::string monitor_path = dir + "/monitor.sock";

  // Monitor listener first, so even the earliest worker can connect.
  const int listener = fdio::make_listener(monitor_path, cfg.ranks + 2);
  set_nonblocking(listener);

  const double t0 = mono_now();
  std::vector<Beat> beats(static_cast<std::size_t>(cfg.ranks));
  std::vector<HbConn> conns;

  // One session tag per launch: stale ring segments left in a reused dir
  // by a crashed earlier run carry a different tag and are re-created.
  const unsigned long long session =
      (static_cast<unsigned long long>(::getpid()) << 32) ^
      // det-lint: allow(wall-clock): session-uniqueness tag for stale
      // shm segment cleanup — an identifier, never a simulated value.
      static_cast<unsigned long long>(
          std::chrono::steady_clock::now().time_since_epoch().count());

  std::fflush(stdout);
  std::fflush(stderr);
  ChildSet workers;
  for (int r = 0; r < cfg.ranks; ++r) {
    std::vector<std::string> argv_s = cfg.worker_command;
    argv_s.push_back("--rank=" + std::to_string(r));
    argv_s.push_back("--ranks=" + std::to_string(cfg.ranks));
    argv_s.push_back("--socket-dir=" + dir);
    argv_s.push_back("--shm-session=" + std::to_string(session));
    if (cfg.shm_ring_bytes > 0)
      argv_s.push_back("--shm-ring-bytes=" +
                       std::to_string(cfg.shm_ring_bytes));
    argv_s.push_back("--heartbeat-sock=" + monitor_path);
    argv_s.push_back("--heartbeat-interval=" +
                     std::to_string(cfg.heartbeat_interval));
    if (const auto it = cfg.extra_args.find(r); it != cfg.extra_args.end())
      for (const std::string& a : it->second) argv_s.push_back(a);

    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    workers.spawn([&argv, r] {
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "rank %d: exec %s failed: %s\n", r, argv[0],
                   std::strerror(errno));
      ::_exit(127);
    });
  }

  LaunchResult result;
  result.last_phase.assign(static_cast<std::size_t>(cfg.ranks), -1);

  auto fail = [&](int rank, const std::string& why) {
    if (!result.ok && !result.diagnostic.empty()) return;  // keep first
    result.failed_rank = rank;
    result.diagnostic = why;
  };

  auto pump_heartbeats = [&] {
    for (;;) {
      const int fd = ::accept4(listener, nullptr, nullptr,
                               SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) break;
      conns.push_back(HbConn{fd, {}});
    }
    char buf[4096];
    for (HbConn& c : conns) {
      for (;;) {
        const ssize_t n = ::read(c.fd, buf, sizeof(buf));
        if (n > 0) {
          c.buf.insert(c.buf.end(), reinterpret_cast<std::byte*>(buf),
                       reinterpret_cast<std::byte*>(buf) + n);
          continue;
        }
        if (n == 0) {
          ::close(c.fd);
          c.fd = -1;
        }
        break;
      }
      std::size_t off = 0;
      while (c.buf.size() - off >= kFrameHeaderBytes) {
        FrameHeader h;
        try {
          h = decode_frame_header(
              std::span<const std::byte>(c.buf).subspan(off));
        } catch (const comm_error&) {
          if (c.fd >= 0) ::close(c.fd);
          c.fd = -1;
          break;
        }
        const std::size_t need = kFrameHeaderBytes +
                                 static_cast<std::size_t>(h.count) *
                                     sizeof(double);
        if (c.buf.size() - off < need) break;
        if (h.kind == FrameKind::kHeartbeat && h.src >= 0 &&
            h.src < cfg.ranks) {
          Beat& b = beats[static_cast<std::size_t>(h.src)];
          b.last = mono_now();
          if (h.count >= 1) {
            double phase = 0.0;
            std::memcpy(&phase, c.buf.data() + off + kFrameHeaderBytes,
                        sizeof(double));
            const long long p = static_cast<long long>(phase);
            if (p != b.phase && cfg.on_progress) cfg.on_progress(h.src, p);
            b.phase = p;
          }
        }
        off += need;
      }
      if (off > 0)
        c.buf.erase(c.buf.begin(),
                    c.buf.begin() + static_cast<std::ptrdiff_t>(off));
    }
    // A closed connection has nothing more to say: drop it from the
    // wait set.
    std::erase_if(conns, [](const HbConn& c) { return c.fd < 0; });
  };

  // A rank that has not beaten yet is timed from the launch.
  auto last_beat = [&](int r) {
    const Beat& b = beats[static_cast<std::size_t>(r)];
    return b.last >= 0.0 ? b.last : t0;
  };

  const double deadline = t0 + cfg.wall_clock_timeout;
  std::vector<int> wake_fds;
  bool failed = false;
  while (workers.running() > 0 && !failed) {
    // Sleep until an event (an exit, worker stderr, a heartbeat, a new
    // monitor connection) or the nearest deadline.
    double wake_at = deadline;
    if (cfg.heartbeat_grace > 0.0)
      for (int r = 0; r < cfg.ranks; ++r)
        if (!workers[r].done)
          wake_at = std::min(wake_at, last_beat(r) + cfg.heartbeat_grace);
    double timeout = wake_at - mono_now();
    if (cfg.on_tick) timeout = std::min(timeout, kTickSeconds);
    wake_fds.assign(1, listener);
    for (const HbConn& c : conns) wake_fds.push_back(c.fd);
    workers.wait(wake_fds, timeout);
    ++result.wakeups;

    pump_heartbeats();
    workers.drain_stderr();
    if (cfg.on_tick) cfg.on_tick();

    // Reap exits. When several workers are reaped in one pass, blame the
    // one that was signalled — the injected fault — not the peers that
    // then failed with transport errors.
    int first_signaled = -1, first_nonzero = -1;
    for (const int r : workers.reap()) {
      const int status = workers[r].status;
      if (WIFSIGNALED(status) && first_signaled < 0) first_signaled = r;
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0 && first_nonzero < 0)
        first_nonzero = r;
    }
    if (first_signaled >= 0) {
      const int r = first_signaled;
      fail(r, "rank " + std::to_string(r) + " killed by signal " +
                  std::to_string(WTERMSIG(workers[r].status)) +
                  " (last reported phase " +
                  std::to_string(beats[static_cast<std::size_t>(r)].phase) +
                  ")");
      failed = true;
    } else if (first_nonzero >= 0) {
      const int r = first_nonzero;
      fail(r, "rank " + std::to_string(r) + " exited with code " +
                  std::to_string(WEXITSTATUS(workers[r].status)) +
                  " (last reported phase " +
                  std::to_string(beats[static_cast<std::size_t>(r)].phase) +
                  ")");
      failed = true;
    }
    if (failed) break;

    if (cfg.heartbeat_grace > 0.0) {
      const double now = mono_now();
      for (int r = 0; r < cfg.ranks; ++r) {
        const double since = now - last_beat(r);
        if (workers[r].done || since <= cfg.heartbeat_grace) continue;
        fail(r, "rank " + std::to_string(r) + " heartbeat silent for " +
                    std::to_string(since) + "s (last reported phase " +
                    std::to_string(beats[static_cast<std::size_t>(r)].phase) +
                    ")");
        failed = true;
        break;
      }
    }
    if (failed) break;

    if (mono_now() >= deadline) {
      std::ostringstream os;
      os << "wall-clock timeout after " << cfg.wall_clock_timeout
         << "s; per-rank last phases:";
      for (int r = 0; r < cfg.ranks; ++r)
        os << " rank" << r << "=" << beats[static_cast<std::size_t>(r)].phase;
      fail(-1, os.str());
      failed = true;
    }
  }

  if (failed) workers.kill_all();
  pump_heartbeats();
  workers.drain_stderr();
  for (const HbConn& c : conns) ::close(c.fd);
  ::close(listener);
  ::unlink(monitor_path.c_str());
  if (own_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  result.elapsed_seconds = mono_now() - t0;
  for (int r = 0; r < cfg.ranks; ++r)
    result.last_phase[static_cast<std::size_t>(r)] =
        beats[static_cast<std::size_t>(r)].phase;
  if (!failed) {
    // The loop above can exit with every worker reaped but a straggler
    // having exited nonzero in the very last reap — recheck all statuses.
    for (int r = 0; r < cfg.ranks; ++r) {
      const int status = workers[r].status;
      if (WIFSIGNALED(status)) {
        fail(r, "rank " + std::to_string(r) + " killed by signal " +
                    std::to_string(WTERMSIG(status)));
        failed = true;
      } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        fail(r, "rank " + std::to_string(r) + " exited with code " +
                    std::to_string(WEXITSTATUS(status)));
        failed = true;
      }
    }
  }
  result.ok = !failed;
  if (failed) {
    std::ostringstream os;
    os << result.diagnostic;
    for (int r = 0; r < cfg.ranks; ++r) {
      const std::string& e = workers[r].err;
      if (!e.empty()) os << "\n--- rank " << r << " stderr ---\n" << e;
    }
    result.diagnostic = os.str();
  }
  return result;
}

}  // namespace slipflow::transport
