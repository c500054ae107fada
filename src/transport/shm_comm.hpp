#pragma once
/// \file shm_comm.hpp
/// ShmComm — same-host Communicator over mmap'd single-producer/
/// single-consumer ring buffers: the transport of every forked or
/// launched run (the launcher's slipflow_worker processes, the forked
/// test harness), zero-copy where the receiver allows it.
///
/// Topology: one ring file per *directed* peer pair
/// (`DIR/ring_<src>to<dst>.shm`). The consumer rank creates and owns
/// its inbound rings; the producer opens them by path, retrying until
/// the header's magic word and session tag match — so stale segments
/// left by a crashed earlier launch are never mistaken for live ones.
/// Each ring is a classic SPSC byte ring: a monotonic `head` counter
/// (bytes produced, advanced with release stores by the producer) and a
/// monotonic `tail` counter (bytes consumed, advanced with release
/// stores by the consumer). `send` serializes its tagged frame directly
/// into the mapped ring — no intermediate buffer, no kernel copy — and
/// the consumer parses frames in place; `try_recv_view` goes further
/// and hands out a span pointing into the mapped payload itself.
///
/// Semantics match ThreadComm (tagged frames demultiplexed into
/// per-(src, tag) mailboxes; an eager-send contract — a full ring spills
/// to a local outbox instead of blocking, so the halo pattern stays
/// deadlock-free), and collectives delegate to the binomial trees in
/// collectives.hpp, so results are byte-identical to ThreadComm's.
/// Failures are named, never silent: a bounded recv throws comm_timeout
/// naming the pending (src, tag), a peer that tore down cleanly flips
/// the ring's closed flag and surfaces as a named comm_error,
/// heartbeats report to the launcher's monitor socket, and a
/// deterministic fault-injection layer (kill/stop at phase K, drop,
/// delay, throttle) drives the robustness tests.
///
/// Frames larger than half a ring are split into fragments
/// (kFrameFlagMoreFragments) so any message fits; waits are
/// spin-then-futex: a bounded yield loop covers the halo exchange's
/// microsecond latencies, and only when that comes up empty does the
/// consumer arm a per-ring waiting flag and sleep in futex(2) on the
/// ring's head word, so an idle rank costs no CPU until its producer
/// commits (which issues FUTEX_WAKE exactly when the flag is armed).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "transport/communicator.hpp"
#include "transport/fault.hpp"

namespace slipflow::transport {

class HeartbeatSender;  // heartbeat.hpp

/// Transport-level counters of one endpoint (published as `shm/*`).
struct ShmStats {
  long long bytes_sent = 0;      ///< ring bytes produced (headers incl.)
  long long bytes_received = 0;  ///< ring bytes consumed
  long long messages_sent = 0;
  long long messages_received = 0;
  long long heartbeats_sent = 0;
  long long frames_dropped = 0;  ///< by fault injection
  /// Frames that found the ring full and took the local-outbox detour
  /// (the only path that copies); nonzero means the ring is undersized
  /// for the traffic pattern.
  long long spilled_frames = 0;
  long long spilled_bytes = 0;
  double recv_wait_seconds = 0.0;
  double throttle_wait_seconds = 0.0;
  /// Times a blocking wait exhausted its yield budget and parked in
  /// futex(2) on a ring's head word (zero on hosts without futex).
  long long futex_waits = 0;
};

struct ShmCommConfig {
  int rank = 0;
  int nranks = 1;
  /// Directory holding the ring segments; all ranks must agree. May be
  /// empty only for nranks == 1.
  std::string dir;
  CommOptions comm;
  /// Bound on waiting for peers' ring segments to appear (seconds).
  double connect_timeout = 10.0;
  /// Data capacity of each directed ring in bytes (rounded up to 8).
  std::size_t ring_bytes = std::size_t{1} << 20;
  /// Launch-wide session tag; a producer only accepts a ring whose
  /// header carries this exact tag. All ranks must agree (the launcher
  /// passes one via --shm-session).
  std::uint64_t session = 0;
  /// Launcher monitor socket; empty = no heartbeat thread.
  std::string heartbeat_path;
  double heartbeat_interval = 0.25;
  FaultInjection fault;
  /// When set, publish_stats() writes the endpoint's counters into this
  /// registry's shard `rank` under `shm/<name>`.
  obs::MetricsRegistry* metrics = nullptr;
};

class ShmComm final : public Communicator {
 public:
  /// Creates this rank's inbound rings, opens every peer's (blocking,
  /// bounded by connect_timeout), and starts the heartbeat thread when
  /// configured.
  explicit ShmComm(ShmCommConfig cfg);
  /// Drains pending spilled sends (best effort, bounded), marks every
  /// ring closed, unmaps, and unlinks the inbound segments. Never
  /// throws.
  ~ShmComm() override;

  ShmComm(const ShmComm&) = delete;
  ShmComm& operator=(const ShmComm&) = delete;

  int rank() const override { return cfg_.rank; }
  int size() const override { return cfg_.nranks; }

  void send(int dest, int tag, std::span<const double> data) override;
  std::vector<double> recv(int src, int tag) override;
  /// test() drives one nonblocking progress pass (drain inbound rings,
  /// retry spilled sends); wait() delegates to recv() and inherits its
  /// timeout/closed diagnostics.
  RecvHandlePtr irecv(int src, int tag) override;
  void barrier() override;
  std::vector<double> allgather(std::span<const double> mine) override;
  using Communicator::allreduce_sum;  // the vector overload
  double allreduce_sum(double x) override;
  double allreduce_max(double x) override;
  void note_progress(long long phase) override;

  /// True zero-copy receive: if the oldest unconsumed frame on the ring
  /// from `src` matches `tag` (and nothing for that channel is already
  /// buffered in the mailbox), returns a span pointing directly into
  /// the mapped ring payload. The ring position is held until
  /// release_view(); exactly one view may be active at a time. Returns
  /// nullopt when no matching frame is at the front — fall back to
  /// recv()/irecv().
  std::optional<std::span<const double>> try_recv_view(int src, int tag);
  /// Consume the frame behind the active view (no-op without one).
  void release_view();

  /// Counter snapshot (heartbeat count folded in from its thread).
  ShmStats stats() const;
  /// Write the snapshot into cfg.metrics (shard = rank) as `shm/*`
  /// counters; no-op without a registry. Call once, after the run.
  void publish_stats();

  const std::string& dir() const { return cfg_.dir; }

 private:
  class Handle;  // RecvHandle over the mailbox + progress engine

  struct Ring {
    std::byte* base = nullptr;  ///< mmap base (header + data)
    std::size_t map_len = 0;
    std::uint64_t cap = 0;      ///< data bytes
    std::string path;
    /// Producer: head value (bytes produced, cached — only we write it).
    /// Consumer: tail value (bytes consumed, cached).
    std::uint64_t pos = 0;
  };

  /// In-flight fragment reassembly for one inbound ring.
  struct Partial {
    bool active = false;
    int tag = 0;
    std::vector<double> data;
  };

  void create_inbound_rings();
  void open_outbound_rings();
  /// Constructor rendezvous: block until every peer has mapped this
  /// rank's inbound rings, which makes the destructor's unlink safe.
  void wait_producers_attached();
  /// Claim `frame_bytes` contiguous bytes in the ring (writing a pad
  /// frame / applying the implicit end-skip as needed); returns nullptr
  /// without blocking when the ring lacks space. `advance` is the total
  /// head advance (pad included) to pass to ring_commit.
  std::byte* ring_reserve(Ring& r, std::uint64_t frame_bytes,
                          std::uint64_t& advance);
  /// Publish bytes written after ring_reserve (release-store of head).
  void ring_commit(Ring& r, std::uint64_t advance);
  /// Serialize one frame into the outbound ring to `dest` if it fits;
  /// returns false (without blocking) when the ring lacks space.
  bool try_append(int dest, std::uint16_t flags, int tag,
                  std::span<const double> data);
  bool try_append_raw(int dest, std::span<const std::byte> frame);
  /// Fragment + append or spill one logical message (fault-free path).
  void enqueue_data(int dest, int tag, std::span<const double> data);
  /// Retry spilled frames for one peer in FIFO order; true if any moved.
  bool drain_outbox(int dest);
  /// Parse every complete frame off the inbound ring from `src` into
  /// the mailbox (honoring an active zero-copy view); true if any moved.
  bool drain_ring(int src);
  /// One bounded step of the progress engine: drain all inbound rings
  /// and retry every spilled outbox; waits (spin-then-futex) when
  /// nothing moved and max_wait_seconds > 0. `src_hint` names the ring
  /// the caller is blocked on — the only ring worth a futex sleep; -1
  /// (no hint, or spilled sends still pending) keeps the waiter in the
  /// polling loop so outbox retries are never delayed by a sleep.
  void progress(double max_wait_seconds, int src_hint = -1);
  /// Park in futex(2) on the inbound ring from `src` until its producer
  /// commits (or `max_wait_seconds` passes); false when the host has no
  /// futex and the caller should fall back to a timed sleep.
  bool futex_wait_ring(int src, double max_wait_seconds);
  bool try_pop(int src, int tag, std::vector<double>& out);
  void throttle(std::size_t bytes);
  bool peer_gone(int src) const;  ///< producer of inbound ring closed?
  [[noreturn]] void throw_closed(int src, int tag) const;

  ShmCommConfig cfg_;
  std::vector<Ring> in_;   ///< inbound ring from each rank (self unused)
  std::vector<Ring> out_;  ///< outbound ring to each rank (self unused)
  std::vector<Partial> partial_;  ///< per-src fragment reassembly
  std::vector<std::deque<std::vector<std::byte>>> outbox_;  ///< spill, per dest
  std::map<std::pair<int, int>, std::deque<std::vector<double>>> mail_;
  ShmStats stats_;
  /// Yields burned in progress() before conceding a sleep; raised on an
  /// oversubscribed host (ranks > cores), where each yield donates the
  /// core to the peer being waited on and the sleep cliff costs more
  /// than the halo round-trip.
  int spin_limit_ = 256;
  double throttle_tokens_ = 0.0;
  double throttle_last_ = 0.0;
  int drop_remaining_ = 0;
  int view_src_ = -1;               ///< rank of the active view, -1 = none
  std::uint64_t view_advance_ = 0;  ///< tail advance owed on release

  std::unique_ptr<HeartbeatSender> hb_;
};

/// Can `dir` host mmap'd ring segments? (Probe: create, map shared,
/// write, read back.) launch_workers refuses to fork into a directory
/// that fails it.
bool shm_dir_usable(const std::string& dir);

/// In-process harness mirroring run_ranks() for the shm backend: runs
/// `fn` on `nranks` threads, each with its own ShmComm endpoint over a
/// shared ring directory (a fresh mkdtemp when `dir` is empty, removed
/// after). A rank that throws tears its endpoint down, which unblocks
/// peers with named closed-ring errors; the first failure by rank is
/// rethrown. Thread-based on purpose: it runs under ThreadSanitizer,
/// which cannot follow forked children.
struct ShmRunOptions {
  CommOptions comm;
  double connect_timeout = 10.0;
  /// Wall-clock bound for the forked variant (seconds).
  double wall_timeout = 60.0;
  std::string dir;
  std::size_t ring_bytes = std::size_t{1} << 20;
  /// Optional per-rank fault injection. The threaded harness forbids
  /// kill/stop faults (they would take down the whole process); use
  /// run_ranks_shm_forked for those.
  std::function<FaultInjection(int rank)> faults;
};

void run_ranks_shm(int nranks, const std::function<void(Communicator&)>& fn,
                   const ShmRunOptions& opts = {});

/// Forked sibling of run_ranks_shm for fault tests that kill or stop a
/// real process (fork_harness.hpp supervision and diagnostics).
void run_ranks_shm_forked(int nranks,
                          const std::function<void(Communicator&)>& fn,
                          const ShmRunOptions& opts = {});

}  // namespace slipflow::transport
