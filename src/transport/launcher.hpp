#pragma once
/// \file launcher.hpp
/// Process launcher: forks and execs N worker processes (normally the
/// `slipflow_worker` binary), wires them to a shared directory for their
/// ShmComm ring segments, and supervises the run.
///
/// Supervision turns the three silent failure modes of a real cluster
/// run into named, bounded diagnostics:
///   - a worker that dies (crash, SIGKILL fault injection) is reported as
///     "rank R killed by signal S" the moment it is reaped;
///   - a worker that freezes (SIGSTOP, livelock) is caught by heartbeat
///     silence: every worker beats (rank, phase) on the launcher's
///     monitor socket, and a beat older than `heartbeat_grace` fails the
///     run naming the stalled rank and its last reported phase;
///   - a run that stops making progress collectively is bounded by
///     `wall_clock_timeout`.
/// On any failure every surviving worker is SIGCONTed and SIGKILLed
/// before returning, so a failed launch never leaks processes.
///
/// The supervisor does not tick: it sleeps in one poll() over the
/// monitor listener, every heartbeat connection, every worker's stderr
/// pipe and one pidfd per worker (transport/child_set.hpp). Its timeout
/// is the nearest deadline — the wall-clock limit, the earliest
/// heartbeat-grace expiry and, only while `on_tick` is set, 50 ms — so a
/// launch returns as soon as its last worker exits. Worker stderr pipes
/// and heartbeat connections are close-on-exec, so workers of
/// concurrent launches never inherit each other's descriptors.

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace slipflow::transport {

struct LaunchConfig {
  int ranks = 1;
  /// argv of the worker binary (argv[0] = executable path). The launcher
  /// appends, per rank:
  ///   --rank=R --ranks=N --socket-dir=DIR --shm-session=TAG
  ///   [--shm-ring-bytes=B] --heartbeat-sock=DIR/monitor.sock
  ///   --heartbeat-interval=S
  /// followed by extra_args[R], so per-rank fault flags go there. TAG is
  /// fresh per launch, so stale ring segments from a crashed earlier
  /// launch can never be mistaken for this run's.
  std::vector<std::string> worker_command;
  /// Directory shared by the workers (ring segments + monitor socket);
  /// empty = fresh mkdtemp under $TMPDIR (falling back to /tmp), removed
  /// when the launch returns.
  std::string dir;
  /// Ring capacity per directed peer pair in bytes (0 = worker default).
  long long shm_ring_bytes = 0;
  double heartbeat_interval = 0.25;
  /// A worker whose latest beat is older than this fails the run
  /// (seconds). <= 0 disables heartbeat supervision.
  double heartbeat_grace = 5.0;
  double wall_clock_timeout = 120.0;
  /// Per-rank extra worker arguments (fault injection etc.).
  std::map<int, std::vector<std::string>> extra_args;
  /// Called from the supervision loop whenever a worker's reported
  /// heartbeat phase advances. Runs on the launching thread, so it may
  /// not block; the campaign server uses it to stream job progress to
  /// the submitting client while launch_workers is still running.
  std::function<void(int rank, long long phase)> on_progress;
  /// Called at every supervisor wake-up, at least every 50 ms while set,
  /// as long as the run is alive — the hook for polling job side
  /// channels (result fragment directories) the launcher itself knows
  /// nothing about.
  std::function<void()> on_tick;
};

struct LaunchResult {
  bool ok = false;
  /// First rank blamed for the failure, -1 if none identified.
  int failed_rank = -1;
  /// Human-readable failure description plus collected worker stderr.
  std::string diagnostic;
  double elapsed_seconds = 0.0;
  /// Last phase each rank reported via heartbeat (-1 = never beat).
  std::vector<long long> last_phase;
  /// Times the supervisor woke from its poll(): one per batch of events
  /// or expired deadline, so tests can count wake-ups instead of timing.
  int wakeups = 0;
};

/// Run the workers to completion (all exit 0) or to the first failure.
/// Does not throw on worker failure — that is the result — only on
/// launcher-side setup errors (fork/socket failures). A directory that
/// cannot host mmap'd ring segments (shm_dir_usable) fails the launch
/// before anything is forked, with a one-line diagnostic naming the
/// directory and $TMPDIR.
LaunchResult launch_workers(const LaunchConfig& cfg);

}  // namespace slipflow::transport
