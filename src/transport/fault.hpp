#pragma once
/// \file fault.hpp
/// Deterministic fault injection of the real-process transport (ShmComm
/// over shared-memory rings). All triggers are counted/phase-based,
/// never randomized, so a failing run replays exactly.

namespace slipflow::transport {

/// Deterministic fault injection on one rank's endpoint.
struct FaultInjection {
  /// raise(SIGKILL) when note_progress reaches this phase (< 0 = off):
  /// the hard-crash case the launcher must turn into a named-rank error.
  long long kill_at_phase = -1;
  /// raise(SIGSTOP) at this phase (< 0 = off): the process freezes —
  /// heartbeats included — which is what the launcher's heartbeat
  /// monitor exists to catch.
  long long stop_at_phase = -1;
  /// Drop the first `drop_count` outgoing data frames whose destination
  /// matches `drop_dest` (-1 = any; -2 = injection off) and whose tag
  /// matches `drop_tag` (-1 = any). The receiver's bounded recv then
  /// reports the missing (src, tag) instead of hanging.
  int drop_dest = -2;
  int drop_tag = -1;
  int drop_count = 1;
  /// Sleep this long before every outgoing data frame (seconds).
  double send_delay = 0.0;
  /// Token-bucket bound on this rank's outgoing byte rate (bytes/s,
  /// 0 = unlimited) with a 0.1 s burst allowance — emulates the slow
  /// NIC / loaded host of the paper's non-dedicated nodes.
  double throttle_bytes_per_sec = 0.0;
};

}  // namespace slipflow::transport
