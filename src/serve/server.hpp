#pragma once
/// \file server.hpp
/// The campaign server: multi-tenant simulation-as-a-service over a
/// shared pool of worker slots.
///
/// Tenants submit JSON job specs (job_spec.hpp) over a Unix-domain
/// control socket (protocol.hpp). Each accepted job is validated
/// against the admission policy, queued, and scheduled onto the slot
/// pool; a running job gets its own isolated worker mesh — a fresh
/// ring directory per launch, courtesy of launch_workers — so
/// concurrent tenants can never cross wires. The launcher's heartbeat
/// supervision turns worker crashes and freezes into named diagnostics;
/// the server then recovers the job from its newest complete
/// checkpoint and requeues the remainder, preserving the guilty-rank
/// diagnostic in the job record. Repeated physics hits the warm-state
/// cache (warm_cache.hpp) and skips the equilibration prefix entirely.
///
/// Scheduling: a job needs `ranks` slots. Among queued jobs that fit
/// the free slots, the winner is the tenant currently holding the
/// fewest running slots (fair share), tie broken by submission order.
/// Jobs too wide for the current gap do not block narrower jobs behind
/// them, but fair share keeps a chatty tenant from starving others.

#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/job_spec.hpp"
#include "serve/protocol.hpp"
#include "serve/warm_cache.hpp"
#include "util/json.hpp"

namespace slipflow::serve {

/// What the server is willing to accept.
struct AdmissionPolicy {
  /// Size of the shared worker-slot pool; one rank = one slot.
  int total_slots = 8;
  /// Widest single job.
  int max_ranks_per_job = 8;
  /// Queued (not yet running) jobs across all tenants.
  int max_queued = 16;
  /// Launch attempts per job (1 initial + recoveries).
  int max_attempts = 3;
};

/// Lifecycle of one job.
enum class JobState { queued, running, done, failed, cancelled };

const char* to_string(JobState s);

/// One queue entry (submission order = vector order; ids are monotonic).
struct QueuedJob {
  long long id;
  std::string tenant;
  int ranks;
};

/// Fair-share chooser, exposed for unit tests: index into `queue` of
/// the next job to start given `free_slots`, or -1 when nothing fits.
/// Winner: fits the gap, tenant with the fewest running slots, tie →
/// earliest submission. A wide job never blocks a narrower one behind
/// it, but fair share keeps a chatty tenant from starving others.
int pick_next_job(const std::vector<QueuedJob>& queue,
                  const std::map<std::string, int>& tenant_running_slots,
                  int free_slots);

/// Everything the server remembers about a job. Fields are guarded by
/// the server mutex once the record is registered.
struct JobRecord {
  long long id = 0;
  std::string tenant;
  JobSpec spec;
  JobState state = JobState::queued;
  int attempts = 0;
  /// Last failure diagnostic from the launcher — names the guilty rank
  /// ("rank 2 killed by signal 9 ..."). Preserved across a successful
  /// recovery so the record shows what happened, not just the outcome.
  std::string diagnostic;
  int failed_rank = -1;
  /// True when the job seeded from the warm-state cache.
  bool warm_hit = false;
  /// Phases actually stepped across all attempts — a warm-hit job of N
  /// phases with warm prefix W executes N - W, which is the measurable
  /// proof the cache skipped equilibration.
  long long phases_executed = 0;
  /// Highest heartbeat phase seen across attempts.
  long long top_phase = 0;
  /// Final observables text (rank 0), present when state == done.
  std::string observables;
  /// Event log streamed to waiting clients: one JSON document per entry
  /// (queued/started/progress/fragment/failure/recovery/done).
  std::vector<std::string> events;
};

class CampaignServer {
 public:
  struct Config {
    std::string socket_path;  ///< control socket ("" = no socket; in-process API only)
    std::string work_dir;     ///< job directories + warm cache live here
    std::string worker_exe;   ///< slipflow_worker binary
    AdmissionPolicy policy;
  };

  explicit CampaignServer(Config cfg);
  ~CampaignServer();

  /// Bind the control socket (if configured) and start the accept +
  /// scheduler threads.
  void start();

  /// Stop accepting, cancel queued jobs, wait for running jobs (they
  /// are wall-clock bounded) and connection threads. Idempotent.
  void stop();

  /// True once a client asked for shutdown; the daemon polls this.
  bool shutdown_requested() const;

  // --- in-process API (connection handlers and tests use the same) ---

  /// Validate + enqueue. Returns the job id; throws serve_error on an
  /// admission reject (spec invalid, too wide, queue full).
  long long submit(const std::string& tenant, const JobSpec& spec);

  /// Job record as JSON (includes observables when done).
  util::JsonValue status(long long id) const;

  /// Block until the job reaches a terminal state; returns its record
  /// JSON. Streams nothing — wait-with-events lives on the socket path.
  util::JsonValue wait(long long id);

  /// Server counters: jobs by state, cache hits/misses, slot usage.
  util::JsonValue stats() const;

 private:
  void accept_loop();
  void scheduler_loop();
  void handle_connection(Fd fd);
  /// Stream the job's event log to the client, finishing with a
  /// {"event":"done","record":{...}} line at the terminal state.
  void stream_job(LineChannel& ch, long long id);
  void run_job(JobRecord& rec);
  /// Caller holds mu_.
  void append_event(JobRecord& rec, std::string event_json_line);
  /// Caller holds mu_. Joins the job/connection threads listed in
  /// finished_threads_, so a long-lived daemon keeps no dead thread (and
  /// its stack) per served job or connection.
  void reap_finished_locked();
  util::JsonValue record_json_locked(const JobRecord& rec) const;

  Config cfg_;
  WarmCache cache_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool started_ = false;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  long long next_id_ = 1;
  int free_slots_ = 0;
  std::map<long long, std::unique_ptr<JobRecord>> jobs_;
  std::vector<QueuedJob> queue_;
  std::map<std::string, int> tenant_running_slots_;
  long long cache_hits_ = 0;
  long long cache_misses_ = 0;

  Fd listener_;
  std::thread accept_thread_;
  std::thread scheduler_thread_;
  std::vector<std::thread> job_threads_;
  std::vector<std::thread> conn_threads_;
  /// Job/connection threads past their last use of mu_, awaiting a join.
  std::vector<std::thread::id> finished_threads_;
  /// Open connection fds, shut down on stop() so blocked reads unblock.
  std::set<int> conn_fds_;
};

}  // namespace slipflow::serve
