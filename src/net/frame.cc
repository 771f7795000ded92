#include "net/frame.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/wire.h"

namespace ft::net {
namespace {

void put_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

template <std::size_t N>
void append_record(std::vector<std::uint8_t>& out, MsgType type,
                   const std::array<std::uint8_t, N>& enc) {
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), enc.begin(), enc.end());
}

}  // namespace

void FrameWriter::add(const core::FlowletStartMsg& m) {
  append_record(payload_, MsgType::kFlowletStart, core::encode(m));
  ++open_records_;
}

void FrameWriter::add(const core::FlowletEndMsg& m) {
  append_record(payload_, MsgType::kFlowletEnd, core::encode(m));
  ++open_records_;
  // An end for a flow obsoletes any rate update still queued for it; the
  // offset map must also not resurrect a stale slot after this record.
  rate_record_at_.erase(m.flow_key);
}

void FrameWriter::add(const core::RateUpdateMsg& m) {
  const auto enc = core::encode(m);
  if (const std::size_t* at = rate_record_at_.find(m.flow_key)) {
    std::memcpy(&payload_[*at + 1], enc.data(), enc.size());
    ++stats_.coalesced_updates;
    return;
  }
  rate_record_at_.emplace(m.flow_key, payload_.size());
  append_record(payload_, MsgType::kRateUpdate, enc);
  ++open_records_;
}

void FrameWriter::add(const core::TraceMarkMsg& m) {
  append_record(payload_, MsgType::kTraceMark, core::encode(m));
  ++open_records_;
}

void FrameWriter::add(const core::HeartbeatMsg& m) {
  append_record(payload_, MsgType::kHeartbeat, core::encode(m));
  ++open_records_;
}

void FrameWriter::clear() {
  payload_.clear();
  rate_record_at_.clear();
  open_records_ = 0;
}

std::size_t FrameWriter::flush(std::vector<std::uint8_t>& out) {
  if (payload_.empty()) return 0;
  FT_CHECK(payload_.size() <= kMaxFramePayload);
  const std::size_t total = kFrameHeaderBytes + payload_.size();
  std::uint8_t header[kFrameHeaderBytes];
  put_le32(header, static_cast<std::uint32_t>(payload_.size()));
  out.insert(out.end(), header, header + kFrameHeaderBytes);
  out.insert(out.end(), payload_.begin(), payload_.end());

  ++stats_.frames;
  stats_.records += open_records_;
  stats_.payload_bytes += static_cast<std::int64_t>(payload_.size());
  stats_.wire_bytes +=
      wire_bytes_tcp_stream(static_cast<std::int64_t>(total));

  payload_.clear();
  rate_record_at_.clear();
  open_records_ = 0;
  return total;
}

bool FrameParser::feed(std::span<const std::uint8_t> bytes,
                       MessageSink& sink) {
  if (corrupt_) return false;
  stats_.bytes_in += static_cast<std::int64_t>(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());

  std::size_t off = 0;
  for (;;) {
    const std::size_t total =
        frame_size(std::span(buf_).subspan(off), max_payload_);
    if (total == 0) break;
    if (total == kFrameMalformed ||
        !parse_payload({&buf_[off + kFrameHeaderBytes],
                        total - kFrameHeaderBytes},
                       sink)) {
      corrupt_ = true;
      return false;
    }
    ++stats_.frames;
    off += total;
  }
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

bool FrameParser::parse_payload(std::span<const std::uint8_t> payload,
                                MessageSink& sink) {
  std::size_t off = 0;
  while (off < payload.size()) {
    const auto type = static_cast<MsgType>(payload[off]);
    const auto rest = payload.subspan(off + 1);
    switch (type) {
      case MsgType::kFlowletStart: {
        const auto m = core::try_decode_flowlet_start(rest);
        if (!m) return false;
        sink.on_flowlet_start(*m);
        off += kStartRecordBytes;
        break;
      }
      case MsgType::kFlowletEnd: {
        const auto m = core::try_decode_flowlet_end(rest);
        if (!m) return false;
        sink.on_flowlet_end(*m);
        off += kEndRecordBytes;
        break;
      }
      case MsgType::kRateUpdate: {
        const auto m = core::try_decode_rate_update(rest);
        if (!m) return false;
        sink.on_rate_update(*m);
        off += kRateRecordBytes;
        break;
      }
      case MsgType::kTraceMark: {
        const auto m = core::try_decode_trace_mark(rest);
        if (!m) return false;
        sink.on_trace_mark(*m);
        off += kTraceRecordBytes;
        break;
      }
      case MsgType::kHeartbeat: {
        const auto m = core::try_decode_heartbeat(rest);
        if (!m) return false;
        sink.on_heartbeat(*m);
        off += kHeartbeatRecordBytes;
        break;
      }
      default:
        return false;
    }
    ++stats_.records;
  }
  return off == payload.size();
}

}  // namespace ft::net
