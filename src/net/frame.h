// Length-prefixed batch framing for the allocator control plane.
//
// Endpoints and the allocator exchange the §6.2 message encodings
// (core/messages.h) over byte streams (TCP or Unix-domain sockets). A
// *frame* is one batch: a 4-byte little-endian payload length followed by
// back-to-back records, each a 1-byte type tag plus the message's fixed
// encoding. Batching amortizes the per-segment TCP/IP overhead that
// dominates 4..16-byte control messages, and rate updates coalesce
// *latest-wins per flow* within the open batch -- an endpoint only ever
// needs the newest rate, so an update superseded before the batch is
// flushed costs zero bytes on the wire.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "core/messages.h"

namespace ft::net {

enum class MsgType : std::uint8_t {
  kFlowletStart = 1,
  kFlowletEnd = 2,
  kRateUpdate = 3,
  kTraceMark = 4,
  kHeartbeat = 5,
};

inline constexpr std::size_t kFrameHeaderBytes = 4;
// Upper bound on a frame payload; a peer announcing more is malformed
// (guards against unbounded buffering on corrupt or hostile input).
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

// The one frame-boundary decode, shared by FrameParser, SimProxy's frame
// cutter and SimTransport's drop sieve (inline: FrameParser::feed calls
// it per frame). `buf` starts at a frame boundary. Returns the whole
// frame's size (header + payload) once all of it is in `buf`, 0 while it
// is incomplete, and kFrameMalformed as soon as the header announces a
// payload of 0 or above `max_payload`: the stream is not length-prefixed.
inline constexpr std::size_t kFrameMalformed =
    std::numeric_limits<std::size_t>::max();
[[nodiscard]] inline std::size_t frame_size(
    std::span<const std::uint8_t> buf,
    std::size_t max_payload = kMaxFramePayload) {
  if (buf.size() < kFrameHeaderBytes) return 0;
  const std::size_t payload = static_cast<std::size_t>(buf[0]) |
                              (static_cast<std::size_t>(buf[1]) << 8) |
                              (static_cast<std::size_t>(buf[2]) << 16) |
                              (static_cast<std::size_t>(buf[3]) << 24);
  if (payload == 0 || payload > max_payload) return kFrameMalformed;
  const std::size_t total = kFrameHeaderBytes + payload;
  return buf.size() < total ? 0 : total;
}

inline constexpr std::size_t kStartRecordBytes =
    1 + core::kFlowletStartBytes;
inline constexpr std::size_t kEndRecordBytes = 1 + core::kFlowletEndBytes;
inline constexpr std::size_t kRateRecordBytes = 1 + core::kRateUpdateBytes;
inline constexpr std::size_t kTraceRecordBytes = 1 + core::kTraceMarkBytes;
inline constexpr std::size_t kHeartbeatRecordBytes =
    1 + core::kHeartbeatBytes;

struct FrameWriterStats {
  std::uint64_t frames = 0;
  std::uint64_t records = 0;            // records actually framed
  std::uint64_t coalesced_updates = 0;  // rate updates absorbed in place
  std::int64_t payload_bytes = 0;       // sum of flushed payloads
  std::int64_t wire_bytes = 0;          // incl. header + TCP/IP/Ethernet
};

// Accumulates one outgoing batch per peer. add() appends records to the
// open batch; flush() finalizes it (length prefix + payload) into an
// output buffer and starts a new one.
class FrameWriter {
 public:
  void add(const core::FlowletStartMsg& m);
  void add(const core::FlowletEndMsg& m);
  // Latest-wins: if the open batch already carries an update for
  // m.flow_key, its rate code is overwritten in place.
  void add(const core::RateUpdateMsg& m);
  // Trace marks never coalesce: each one is a distinct sampled context.
  void add(const core::TraceMarkMsg& m);
  // Heartbeats never coalesce either: batches holding one are flushed
  // promptly, so at most a handful are ever open at once.
  void add(const core::HeartbeatMsg& m);

  [[nodiscard]] bool empty() const { return payload_.empty(); }
  [[nodiscard]] std::size_t pending_bytes() const { return payload_.size(); }
  [[nodiscard]] std::uint64_t pending_records() const {
    return open_records_;
  }

  // Drops the open batch without framing it (capacity kept, stats
  // untouched): a reconnecting agent must not let residue from the dead
  // connection leak into the first frame of the new one.
  void clear();

  // Appends the finished frame (header + payload) to `out` and resets the
  // open batch. Returns the number of bytes appended (0 if empty).
  std::size_t flush(std::vector<std::uint8_t>& out);

  [[nodiscard]] const FrameWriterStats& stats() const { return stats_; }

 private:
  std::vector<std::uint8_t> payload_;
  // flow_key -> payload offset of that flow's rate-update record. Flat
  // open-addressed map so the per-batch coalescing lookups never touch
  // the heap once the table is warm (clear() keeps capacity).
  FlatMap64<std::size_t> rate_record_at_;
  std::uint64_t open_records_ = 0;
  FrameWriterStats stats_;
};

// Decoded-record sink for FrameParser. Virtual dispatch keeps the parser
// allocation-free on the hot path (no std::function).
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void on_flowlet_start(const core::FlowletStartMsg&) {}
  virtual void on_flowlet_end(const core::FlowletEndMsg&) {}
  virtual void on_rate_update(const core::RateUpdateMsg&) {}
  virtual void on_trace_mark(const core::TraceMarkMsg&) {}
  virtual void on_heartbeat(const core::HeartbeatMsg&) {}
};

struct FrameParserStats {
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  std::int64_t bytes_in = 0;
};

// Incremental stream parser: feed() arbitrary byte chunks in arrival
// order; every completed frame is decoded record-by-record into the sink.
// Tolerates any split boundary, including mid-header and mid-record.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  // Returns false on a malformed stream (oversized frame, unknown record
  // tag, or a frame whose payload does not split exactly into records);
  // the caller should drop the connection. Once malformed, stays false.
  [[nodiscard]] bool feed(std::span<const std::uint8_t> bytes,
                          MessageSink& sink);

  [[nodiscard]] const FrameParserStats& stats() const { return stats_; }

 private:
  bool parse_payload(std::span<const std::uint8_t> payload,
                     MessageSink& sink);

  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  bool corrupt_ = false;
  FrameParserStats stats_;
};

}  // namespace ft::net
