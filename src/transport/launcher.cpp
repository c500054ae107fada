#include "transport/launcher.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include "transport/fdio.hpp"
#include "transport/frame.hpp"
#include "transport/shm_comm.hpp"
#include "transport/tempdir.hpp"
#include "util/require.hpp"

namespace slipflow::transport {

using fdio::mono_now;
using fdio::set_nonblocking;
using fdio::throw_errno;

namespace {

/// One accepted (but not yet rank-identified) or identified heartbeat
/// connection. Heartbeat frames are parsed with the shared frame codec.
struct HbConn {
  int fd = -1;
  int rank = -1;  ///< -1 until the first beat identifies the sender
  std::vector<std::byte> buf;
};

struct Worker {
  pid_t pid = -1;
  int err_fd = -1;
  bool done = false;
  int status = 0;
  std::string err;
  double last_beat = -1.0;
  long long last_phase = -1;
};

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
  std::vector<Worker> workers(static_cast<std::size_t>(cfg.ranks));
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

    int pipefd[2];
    if (::pipe(pipefd) < 0) throw_errno("pipe");
    const pid_t pid = ::fork();
    if (pid < 0) throw_errno("fork");
    if (pid == 0) {
      ::close(pipefd[0]);
      ::dup2(pipefd[1], 2);
      ::close(pipefd[1]);
      std::vector<char*> argv;
      argv.reserve(argv_s.size() + 1);
      for (std::string& s : argv_s) argv.push_back(s.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "rank %d: exec %s failed: %s\n", r, argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(pipefd[1]);
    set_nonblocking(pipefd[0]);
    workers[static_cast<std::size_t>(r)].pid = pid;
    workers[static_cast<std::size_t>(r)].err_fd = pipefd[0];
  }

  LaunchResult result;
  result.last_phase.assign(static_cast<std::size_t>(cfg.ranks), -1);

  auto fail = [&](int rank, const std::string& why) {
    if (!result.ok && !result.diagnostic.empty()) return;  // keep first
    result.failed_rank = rank;
    result.diagnostic = why;
  };

  auto drain_stderr = [&] {
    char buf[4096];
    for (Worker& w : workers) {
      if (w.err_fd < 0) continue;
      for (;;) {
        const ssize_t n = ::read(w.err_fd, buf, sizeof(buf));
        if (n > 0) {
          w.err.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          ::close(w.err_fd);
          w.err_fd = -1;
        }
        break;
      }
    }
  };

  auto pump_heartbeats = [&] {
    for (;;) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) break;
      set_nonblocking(fd);
      conns.push_back(HbConn{fd, -1, {}});
    }
    char buf[4096];
    for (HbConn& c : conns) {
      if (c.fd < 0) continue;
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
          ::close(c.fd);
          c.fd = -1;
          break;
        }
        const std::size_t need = kFrameHeaderBytes +
                                 static_cast<std::size_t>(h.count) *
                                     sizeof(double);
        if (c.buf.size() - off < need) break;
        if (h.kind == FrameKind::kHeartbeat && h.src >= 0 &&
            h.src < cfg.ranks) {
          c.rank = h.src;
          Worker& w = workers[static_cast<std::size_t>(h.src)];
          w.last_beat = mono_now();
          if (h.count >= 1) {
            double phase = 0.0;
            std::memcpy(&phase, c.buf.data() + off + kFrameHeaderBytes,
                        sizeof(double));
            const long long p = static_cast<long long>(phase);
            if (p != w.last_phase && cfg.on_progress) cfg.on_progress(h.src, p);
            w.last_phase = p;
          }
        }
        off += need;
      }
      if (off > 0)
        c.buf.erase(c.buf.begin(),
                    c.buf.begin() + static_cast<std::ptrdiff_t>(off));
    }
  };

  auto kill_all = [&] {
    for (Worker& w : workers) {
      if (w.done) continue;
      ::kill(w.pid, SIGCONT);  // a SIGSTOPped worker ignores SIGKILL queueing
      ::kill(w.pid, SIGKILL);
    }
    for (Worker& w : workers) {
      if (w.done) continue;
      ::waitpid(w.pid, &w.status, 0);
      w.done = true;
    }
  };

  const double deadline = t0 + cfg.wall_clock_timeout;
  int running = cfg.ranks;
  bool failed = false;
  while (running > 0 && !failed) {
    pump_heartbeats();
    drain_stderr();
    if (cfg.on_tick) cfg.on_tick();

    // Reap exits. When several workers die in one tick, blame the one
    // that was signalled — the injected fault — not the peers that then
    // failed with transport errors.
    int first_signaled = -1, first_nonzero = -1;
    for (int r = 0; r < cfg.ranks; ++r) {
      Worker& w = workers[static_cast<std::size_t>(r)];
      if (w.done) continue;
      int status = 0;
      const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
      if (got != w.pid) continue;
      w.done = true;
      w.status = status;
      --running;
      if (WIFSIGNALED(status) && first_signaled < 0) first_signaled = r;
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0 && first_nonzero < 0)
        first_nonzero = r;
    }
    if (first_signaled >= 0) {
      const Worker& w = workers[static_cast<std::size_t>(first_signaled)];
      fail(first_signaled,
           "rank " + std::to_string(first_signaled) + " killed by signal " +
               std::to_string(WTERMSIG(w.status)) +
               " (last reported phase " + std::to_string(w.last_phase) + ")");
      failed = true;
    } else if (first_nonzero >= 0) {
      const Worker& w = workers[static_cast<std::size_t>(first_nonzero)];
      fail(first_nonzero,
           "rank " + std::to_string(first_nonzero) + " exited with code " +
               std::to_string(WEXITSTATUS(w.status)) +
               " (last reported phase " + std::to_string(w.last_phase) + ")");
      failed = true;
    }
    if (failed) break;

    if (cfg.heartbeat_grace > 0.0) {
      const double now = mono_now();
      for (int r = 0; r < cfg.ranks; ++r) {
        const Worker& w = workers[static_cast<std::size_t>(r)];
        if (w.done) continue;
        const double since =
            w.last_beat >= 0.0 ? now - w.last_beat : now - t0;
        if (since > cfg.heartbeat_grace) {
          fail(r, "rank " + std::to_string(r) + " heartbeat silent for " +
                      std::to_string(since) + "s (last reported phase " +
                      std::to_string(w.last_phase) + ")");
          failed = true;
          break;
        }
      }
    }
    if (failed) break;

    if (mono_now() >= deadline) {
      std::ostringstream os;
      os << "wall-clock timeout after " << cfg.wall_clock_timeout
         << "s; per-rank last phases:";
      for (int r = 0; r < cfg.ranks; ++r)
        os << " rank" << r << "="
           << workers[static_cast<std::size_t>(r)].last_phase;
      fail(-1, os.str());
      failed = true;
      break;
    }
    if (running > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (failed) kill_all();
  pump_heartbeats();
  drain_stderr();
  for (Worker& w : workers)
    if (w.err_fd >= 0) ::close(w.err_fd);
  for (HbConn& c : conns)
    if (c.fd >= 0) ::close(c.fd);
  ::close(listener);
  ::unlink(monitor_path.c_str());
  if (own_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  result.elapsed_seconds = mono_now() - t0;
  for (int r = 0; r < cfg.ranks; ++r)
    result.last_phase[static_cast<std::size_t>(r)] =
        workers[static_cast<std::size_t>(r)].last_phase;
  if (!failed) {
    // The loop above can exit with running == 0 but a straggler having
    // exited nonzero in the very last reap — recheck all statuses.
    for (int r = 0; r < cfg.ranks; ++r) {
      const Worker& w = workers[static_cast<std::size_t>(r)];
      if (WIFSIGNALED(w.status)) {
        fail(r, "rank " + std::to_string(r) + " killed by signal " +
                    std::to_string(WTERMSIG(w.status)));
        failed = true;
      } else if (WIFEXITED(w.status) && WEXITSTATUS(w.status) != 0) {
        fail(r, "rank " + std::to_string(r) + " exited with code " +
                    std::to_string(WEXITSTATUS(w.status)));
        failed = true;
      }
    }
  }
  result.ok = !failed;
  if (failed) {
    std::ostringstream os;
    os << result.diagnostic;
    for (int r = 0; r < cfg.ranks; ++r) {
      const std::string& e = workers[static_cast<std::size_t>(r)].err;
      if (!e.empty()) os << "\n--- rank " << r << " stderr ---\n" << e;
    }
    result.diagnostic = os.str();
  }
  return result;
}

}  // namespace slipflow::transport
