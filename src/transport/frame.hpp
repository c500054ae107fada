#pragma once
/// \file frame.hpp
/// Wire format of ShmComm's rings and the launcher's heartbeat channel:
/// length-prefixed tagged frames.
///
/// Every message is one frame — a fixed 24-byte header followed by
/// `count` raw doubles. The header carries the sender rank and tag, so
/// a single ring multiplexes every (tag) channel between a peer pair
/// and the receiver can demultiplex into per-(src, tag) mailboxes
/// without any out-of-band state.
///
/// Byte order is the host's: frames only ever travel between processes
/// forked on the same machine (the launcher's workers), never across
/// architectures. The magic word catches desynchronized or corrupted
/// streams immediately instead of letting a bad length prefix stall the
/// parser.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "transport/communicator.hpp"

namespace slipflow::transport {

/// What a frame carries.
enum class FrameKind : std::uint16_t {
  kData = 1,       ///< tagged point-to-point payload
  kHeartbeat = 4,  ///< liveness beat to the launcher: payload {phase, seq}
  kPad = 5,        ///< ring filler: skip to the end of the ring
};

/// Flag on a kData frame: this is a fragment of a chunked message and
/// more fragments follow on the same (src, tag) channel (frames larger
/// than half a ring are split so they can always fit).
inline constexpr std::uint16_t kFrameFlagMoreFragments = 1;

struct FrameHeader {
  std::uint32_t magic = 0;
  FrameKind kind = FrameKind::kData;
  std::uint16_t flags = 0;  ///< kFrameFlagMoreFragments, else 0
  std::int32_t src = 0;     ///< sender rank
  std::int32_t tag = 0;     ///< message tag (kData), else 0
  std::uint64_t count = 0;  ///< payload length in doubles
};

inline constexpr std::uint32_t kFrameMagic = 0x534C5046u;  // "SLPF"
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Sanity bound on one frame's payload (2^28 doubles = 2 GiB); a length
/// beyond it means the stream is desynchronized, not that a message is
/// genuinely that large.
inline constexpr std::uint64_t kMaxFrameDoubles = 1ull << 28;

inline std::array<std::byte, kFrameHeaderBytes> encode_frame_header(
    const FrameHeader& h) {
  std::array<std::byte, kFrameHeaderBytes> out{};
  const std::uint16_t kind = static_cast<std::uint16_t>(h.kind);
  std::memcpy(out.data() + 0, &kFrameMagic, 4);
  std::memcpy(out.data() + 4, &kind, 2);
  std::memcpy(out.data() + 6, &h.flags, 2);
  std::memcpy(out.data() + 8, &h.src, 4);
  std::memcpy(out.data() + 12, &h.tag, 4);
  std::memcpy(out.data() + 16, &h.count, 8);
  return out;
}

/// Decode and validate a header; throws comm_error on a bad magic word,
/// unknown kind, or an absurd payload length (desynchronized stream).
inline FrameHeader decode_frame_header(std::span<const std::byte> bytes) {
  SLIPFLOW_REQUIRE(bytes.size() >= kFrameHeaderBytes);
  FrameHeader h;
  std::uint16_t kind = 0;
  std::memcpy(&h.magic, bytes.data() + 0, 4);
  std::memcpy(&kind, bytes.data() + 4, 2);
  std::memcpy(&h.flags, bytes.data() + 6, 2);
  std::memcpy(&h.src, bytes.data() + 8, 4);
  std::memcpy(&h.tag, bytes.data() + 12, 4);
  std::memcpy(&h.count, bytes.data() + 16, 8);
  if (h.magic != kFrameMagic)
    throw comm_error("frame decode: bad magic word (stream desynchronized)");
  if (kind != static_cast<std::uint16_t>(FrameKind::kData) &&
      kind != static_cast<std::uint16_t>(FrameKind::kHeartbeat) &&
      kind != static_cast<std::uint16_t>(FrameKind::kPad))
    throw comm_error("frame decode: unknown frame kind " +
                     std::to_string(kind));
  h.kind = static_cast<FrameKind>(kind);
  if (h.count > kMaxFrameDoubles)
    throw comm_error("frame decode: implausible payload length " +
                     std::to_string(h.count) + " doubles");
  return h;
}

}  // namespace slipflow::transport
