// Tests for the allocator control plane (src/net/): framing round-trips
// under arbitrary stream segmentation (property test), latest-wins
// coalescing, the epoll loop, and the loopback integration of N endpoint
// agents against AllocatorService -- whose converged rates must match an
// equivalent in-process core::Allocator run.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <variant>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <thread>

#include "common/ratecode.h"
#include "common/rng.h"
#include "common/wire.h"
#include "core/allocator.h"
#include "flowlet/detector.h"
#include "net/client.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/spsc_queue.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "sim/sim_transport.h"
#include "topo/clos.h"

namespace ft::net {
namespace {

using AnyMsg = std::variant<core::FlowletStartMsg, core::FlowletEndMsg,
                            core::RateUpdateMsg, core::TraceMarkMsg,
                            core::HeartbeatMsg>;

// Records every decoded message in order.
struct Collector : MessageSink {
  std::vector<AnyMsg> msgs;
  void on_flowlet_start(const core::FlowletStartMsg& m) override {
    msgs.emplace_back(m);
  }
  void on_flowlet_end(const core::FlowletEndMsg& m) override {
    msgs.emplace_back(m);
  }
  void on_rate_update(const core::RateUpdateMsg& m) override {
    msgs.emplace_back(m);
  }
  void on_trace_mark(const core::TraceMarkMsg& m) override {
    msgs.emplace_back(m);
  }
  void on_heartbeat(const core::HeartbeatMsg& m) override {
    msgs.emplace_back(m);
  }
};

TEST(MessagesSpanTest, TryDecodeMatchesArrayApi) {
  const core::FlowletStartMsg start{0x01020304, 7, 11, 999, 250, 1};
  const auto enc = core::encode(start);
  const auto via_span =
      core::try_decode_flowlet_start(std::span<const std::uint8_t>(enc));
  ASSERT_TRUE(via_span.has_value());
  EXPECT_EQ(*via_span, core::decode_flowlet_start(enc));
}

TEST(MessagesSpanTest, ShortBuffersReturnNullopt) {
  std::vector<std::uint8_t> buf(core::kFlowletStartBytes - 1, 0xFF);
  EXPECT_FALSE(core::try_decode_flowlet_start(buf).has_value());
  buf.resize(core::kFlowletEndBytes - 1);
  EXPECT_FALSE(core::try_decode_flowlet_end(buf).has_value());
  buf.resize(core::kRateUpdateBytes - 1);
  EXPECT_FALSE(core::try_decode_rate_update(buf).has_value());
  buf.assign(core::kTraceMarkBytes - 1, 0xFF);
  EXPECT_FALSE(core::try_decode_trace_mark(buf).has_value());
}

TEST(MessagesSpanTest, TraceMarkRoundTripsAllHopStamps) {
  core::TraceMarkMsg m;
  m.flow_key = 0xDEADBEEF;
  m.trace_id = 0x0123456789ABCDEFull;
  for (std::size_t i = 0; i < core::kTraceHopSlots; ++i) {
    // Exercise sign and the full 64-bit width.
    m.t_ns[i] = static_cast<std::int64_t>(0x7A5A5A5A00000000ull >> i) -
                static_cast<std::int64_t>(i * 3);
  }
  const auto enc = core::encode(m);
  EXPECT_EQ(enc.size(), core::kTraceMarkBytes);
  EXPECT_EQ(core::decode_trace_mark(enc), m);
  const auto via_span =
      core::try_decode_trace_mark(std::span<const std::uint8_t>(enc));
  ASSERT_TRUE(via_span.has_value());
  EXPECT_EQ(*via_span, m);
}

TEST(MessagesSpanTest, HeartbeatRoundTripsAndRejectsShortBuffers) {
  const core::HeartbeatMsg m{std::int64_t{-1234567890123456789},
                             std::uint32_t{250'000}};
  const auto enc = core::encode(m);
  EXPECT_EQ(enc.size(), core::kHeartbeatBytes);
  EXPECT_EQ(core::decode_heartbeat(enc), m);
  const auto via_span =
      core::try_decode_heartbeat(std::span<const std::uint8_t>(enc));
  ASSERT_TRUE(via_span.has_value());
  EXPECT_EQ(*via_span, m);
  std::vector<std::uint8_t> shrt(core::kHeartbeatBytes - 1, 0xFF);
  EXPECT_FALSE(core::try_decode_heartbeat(shrt).has_value());
}

TEST(MessagesSpanTest, ExtraTrailingBytesIgnored) {
  const core::RateUpdateMsg upd{42, 1234};
  const auto enc = core::encode(upd);
  std::vector<std::uint8_t> padded(enc.begin(), enc.end());
  padded.resize(padded.size() + 13, 0xAB);
  const auto m = core::try_decode_rate_update(padded);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, upd);
}

// Property test (satellite): random message sequences survive
// encode -> frame -> split at arbitrary byte boundaries -> reassemble ->
// decode with identical content and order.
TEST(FramePropertyTest, RoundTripUnderArbitrarySegmentation) {
  Rng rng(0xF10771E5);
  for (int trial = 0; trial < 200; ++trial) {
    // Build a random batch sequence across several frames. Rate updates
    // use distinct keys so coalescing does not change the sequence (it
    // is exercised separately below).
    std::vector<AnyMsg> sent;
    std::vector<std::uint8_t> stream;
    FrameWriter writer;
    std::uint32_t next_key = 1;
    const int frames = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < frames; ++f) {
      const int records = 1 + static_cast<int>(rng.below(40));
      for (int r = 0; r < records; ++r) {
        switch (rng.below(5)) {
          case 0: {
            core::FlowletStartMsg m;
            m.flow_key = next_key++;
            m.src_host = static_cast<std::uint16_t>(rng.next());
            m.dst_host = static_cast<std::uint16_t>(rng.next());
            m.size_hint_bytes = static_cast<std::uint32_t>(rng.next());
            m.weight_milli = static_cast<std::uint16_t>(rng.next());
            m.flags = static_cast<std::uint16_t>(rng.next());
            writer.add(m);
            sent.emplace_back(m);
            break;
          }
          case 1: {
            const core::FlowletEndMsg m{next_key++};
            writer.add(m);
            sent.emplace_back(m);
            break;
          }
          case 2: {
            const core::RateUpdateMsg m{
                next_key++, static_cast<std::uint16_t>(rng.next())};
            writer.add(m);
            sent.emplace_back(m);
            break;
          }
          case 3: {
            core::TraceMarkMsg m;
            m.flow_key = next_key++;
            m.trace_id = rng.next();
            for (auto& t : m.t_ns) {
              t = static_cast<std::int64_t>(rng.next());
            }
            writer.add(m);
            sent.emplace_back(m);
            break;
          }
          default: {
            const core::HeartbeatMsg m{
                static_cast<std::int64_t>(rng.next()),
                static_cast<std::uint32_t>(rng.next())};
            writer.add(m);
            sent.emplace_back(m);
            break;
          }
        }
      }
      ASSERT_GT(writer.flush(stream), 0u);
    }

    // Feed the stream in chunks split at arbitrary boundaries.
    Collector got;
    FrameParser parser;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          1 + rng.below(23), stream.size() - off);
      ASSERT_TRUE(parser.feed({stream.data() + off, chunk}, got));
      off += chunk;
    }
    ASSERT_EQ(got.msgs.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got.msgs[i], sent[i]) << "trial " << trial << " msg " << i;
    }
  }
}

TEST(FrameWriterTest, RateUpdatesCoalesceLatestWinsPerFlow) {
  FrameWriter writer;
  writer.add(core::RateUpdateMsg{1, 100});
  writer.add(core::RateUpdateMsg{2, 200});
  writer.add(core::RateUpdateMsg{1, 111});  // supersedes in place
  writer.add(core::RateUpdateMsg{1, 122});
  std::vector<std::uint8_t> stream;
  writer.flush(stream);

  Collector got;
  FrameParser parser;
  ASSERT_TRUE(parser.feed(stream, got));
  ASSERT_EQ(got.msgs.size(), 2u);
  EXPECT_EQ(got.msgs[0], AnyMsg(core::RateUpdateMsg{1, 122}));
  EXPECT_EQ(got.msgs[1], AnyMsg(core::RateUpdateMsg{2, 200}));
  EXPECT_EQ(writer.stats().coalesced_updates, 2u);
  EXPECT_EQ(writer.stats().records, 2u);
}

TEST(FrameWriterTest, CoalescingStopsAtFlowletEnd) {
  // rate(1), end(1), rate(1): the second update must NOT be folded into
  // the record that precedes the end, or the endpoint would drop it.
  FrameWriter writer;
  writer.add(core::RateUpdateMsg{1, 100});
  writer.add(core::FlowletEndMsg{1});
  writer.add(core::RateUpdateMsg{1, 300});
  std::vector<std::uint8_t> stream;
  writer.flush(stream);

  Collector got;
  FrameParser parser;
  ASSERT_TRUE(parser.feed(stream, got));
  ASSERT_EQ(got.msgs.size(), 3u);
  EXPECT_EQ(got.msgs[0], AnyMsg(core::RateUpdateMsg{1, 100}));
  EXPECT_EQ(got.msgs[1], AnyMsg(core::FlowletEndMsg{1}));
  EXPECT_EQ(got.msgs[2], AnyMsg(core::RateUpdateMsg{1, 300}));
}

TEST(FrameWriterTest, WireAccountingUsesTcpOverheads) {
  FrameWriter writer;
  writer.add(core::FlowletEndMsg{9});
  std::vector<std::uint8_t> stream;
  const std::size_t framed = writer.flush(stream);
  EXPECT_EQ(framed, kFrameHeaderBytes + kEndRecordBytes);
  EXPECT_EQ(writer.stats().wire_bytes,
            wire_bytes_tcp_stream(static_cast<std::int64_t>(framed)));
}

TEST(FrameParserTest, RejectsMalformedStreams) {
  {  // unknown record tag
    FrameParser parser;
    Collector sink;
    const std::vector<std::uint8_t> bad = {1, 0, 0, 0, 0x7F};
    EXPECT_FALSE(parser.feed(bad, sink));
    EXPECT_FALSE(parser.feed({}, sink));  // stays corrupt
  }
  {  // oversized frame announcement
    FrameParser parser(1024);
    Collector sink;
    const std::vector<std::uint8_t> bad = {0xFF, 0xFF, 0xFF, 0x7F};
    EXPECT_FALSE(parser.feed(bad, sink));
  }
  {  // truncated record inside a complete frame
    FrameParser parser;
    Collector sink;
    std::vector<std::uint8_t> bad = {2, 0, 0, 0,
                                     static_cast<std::uint8_t>(
                                         MsgType::kFlowletEnd),
                                     0x01};
    EXPECT_FALSE(parser.feed(bad, sink));
  }
}

std::vector<std::uint8_t> frame_header(std::size_t payload_len) {
  return {static_cast<std::uint8_t>(payload_len),
          static_cast<std::uint8_t>(payload_len >> 8),
          static_cast<std::uint8_t>(payload_len >> 16),
          static_cast<std::uint8_t>(payload_len >> 24)};
}

// frame_size() is the one frame-boundary decode: FrameParser, SimProxy's
// frame cutter and SimTransport's drop sieve all call it. Its verdict at
// every edge: 0 while incomplete, the whole frame's size once complete,
// kFrameMalformed as soon as the header announces 0 or > max.
TEST(FrameParserTest, FrameSizeAtItsEdges) {
  std::vector<std::uint8_t> one;  // one valid frame: a heartbeat record
  FrameWriter w;
  w.add(core::HeartbeatMsg{});
  ASSERT_EQ(w.flush(one), kFrameHeaderBytes + kHeartbeatRecordBytes);
  std::vector<std::uint8_t> one_and_more = one;
  one_and_more.push_back(7);  // first byte of the next header
  std::vector<std::uint8_t> max_frame = frame_header(kMaxFramePayload);
  max_frame.resize(kFrameHeaderBytes + kMaxFramePayload, 0);
  const struct {
    const char* name;
    std::vector<std::uint8_t> bytes;
    std::size_t want;
  } cases[] = {
      {"header split after byte 1", {one.begin(), one.begin() + 1}, 0},
      {"header split after byte 2", {one.begin(), one.begin() + 2}, 0},
      {"header split after byte 3", {one.begin(), one.begin() + 3}, 0},
      {"header only", {one.begin(), one.begin() + 4}, 0},
      {"payload 1 byte short", {one.begin(), one.end() - 1}, 0},
      {"whole frame", one, one.size()},
      {"frame + next header byte", one_and_more, one.size()},
      {"payload length 0", frame_header(0), kFrameMalformed},
      {"max payload, 1 byte short", {max_frame.begin(), max_frame.end() - 1},
       0},
      {"max payload, whole", max_frame, max_frame.size()},
      {"max payload + 1", frame_header(kMaxFramePayload + 1),
       kFrameMalformed},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(frame_size(c.bytes), c.want) << c.name;
  }
  EXPECT_EQ(frame_size(frame_header(1025), 1024), kFrameMalformed);

  // On the same two malformed prefixes the parser turns corrupt, and
  // SimTransport's sieve gives up on framing: with every frame set to
  // die, the frame ahead of the prefix is dropped whole, but the prefix
  // and the frame behind it are forwarded verbatim (raw mode).
  for (const std::size_t bad_len : {std::size_t{0}, kMaxFramePayload + 1}) {
    const std::vector<std::uint8_t> bad = frame_header(bad_len);
    FrameParser parser;
    Collector sink;
    EXPECT_TRUE(parser.feed(one, sink));
    EXPECT_FALSE(parser.feed(bad, sink)) << bad_len;
    EXPECT_FALSE(parser.feed(one, sink));  // stays corrupt

    sim::EventQueue q;
    sim::SimTransport tr(q);
    int port = 0;
    const int listener = tr.listen_tcp(0, false, &port);
    const int client = tr.connect_tcp("sim", port);
    q.run_until(50 * kMicrosecond);
    const int server = tr.accept(listener);
    tr.set_drop_down_frac(1.0);
    std::vector<std::uint8_t> stream = one;
    stream.insert(stream.end(), bad.begin(), bad.end());
    stream.insert(stream.end(), one.begin(), one.end());
    ASSERT_EQ(tr.write(server, stream.data(), stream.size()),
              static_cast<std::int64_t>(stream.size()));
    q.run_until(q.now() + 50 * kMicrosecond);
    std::vector<std::uint8_t> got(stream.size());
    got.resize(static_cast<std::size_t>(
        std::max<std::int64_t>(0, tr.read(client, got.data(), got.size()))));
    stream.erase(stream.begin(),
                 stream.begin() + static_cast<std::ptrdiff_t>(one.size()));
    EXPECT_EQ(got, stream);
    EXPECT_EQ(tr.stats().frames_dropped, 1u);
  }
}

// Fuzz/property test (satellite): a parser fed corrupted byte streams --
// truncations, oversized length fields, bit flips, random garbage --
// split at arbitrary chunk boundaries must only ever (a) keep decoding
// valid messages or (b) report the stream malformed and stay corrupt.
// Never a crash, a hang, or a resurrection after corruption. Runs under
// the ASan/UBSan CI lane, which is where the "never a crash" half bites.
TEST(FrameParserFuzzTest, CorruptedStreamsNeverCrashAndStayCorrupt) {
  Rng rng(0xBADC0DE5);
  for (int trial = 0; trial < 300; ++trial) {
    // A valid multi-frame stream of mixed records...
    FrameWriter writer;
    std::vector<std::uint8_t> stream;
    std::uint32_t key = 1;
    const int frames = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < frames; ++f) {
      const int records = 1 + static_cast<int>(rng.below(12));
      for (int r = 0; r < records; ++r) {
        switch (rng.below(4)) {
          case 0: {
            core::FlowletStartMsg m;
            m.flow_key = key++;
            writer.add(m);
            break;
          }
          case 1:
            writer.add(core::FlowletEndMsg{key++});
            break;
          case 2:
            writer.add(core::RateUpdateMsg{
                key++, static_cast<std::uint16_t>(rng.next())});
            break;
          default:
            writer.add(core::HeartbeatMsg{
                static_cast<std::int64_t>(rng.next()),
                static_cast<std::uint32_t>(rng.next())});
            break;
        }
      }
      writer.flush(stream);
    }

    // ...then one of four corruptions.
    switch (rng.below(4)) {
      case 0:  // truncate mid-stream (not malformed: just incomplete)
        stream.resize(rng.below(stream.size()) + 1);
        break;
      case 1: {  // flip a bit anywhere (header, tag, or body)
        const std::size_t at = rng.below(stream.size());
        stream[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      }
      case 2: {  // oversized/zero length field on the first header
        const std::uint32_t bogus =
            rng.below(2) == 0 ? 0u : 0x7FFFFFFFu;
        stream[0] = static_cast<std::uint8_t>(bogus);
        stream[1] = static_cast<std::uint8_t>(bogus >> 8);
        stream[2] = static_cast<std::uint8_t>(bogus >> 16);
        stream[3] = static_cast<std::uint8_t>(bogus >> 24);
        break;
      }
      default: {  // splice random garbage into the middle
        const std::size_t at = rng.below(stream.size());
        std::vector<std::uint8_t> junk(1 + rng.below(64));
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
        stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                      junk.begin(), junk.end());
        break;
      }
    }

    // Feed in random chunks. Whatever happens, it terminates, and a
    // false return is sticky forever after.
    Collector sink;
    FrameParser parser;
    bool corrupted = false;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          1 + rng.below(37), stream.size() - off);
      const bool ok = parser.feed({stream.data() + off, chunk}, sink);
      if (corrupted) {
        ASSERT_FALSE(ok) << "parser resurrected after corruption, trial "
                         << trial;
      }
      corrupted = corrupted || !ok;
      off += chunk;
    }
    if (corrupted) {
      EXPECT_FALSE(parser.feed({}, sink));
      Collector sink2;
      EXPECT_FALSE(parser.feed(stream, sink2));
      EXPECT_TRUE(sink2.msgs.empty());
    }
  }
}

TEST(SpscQueueTest, SingleThreadedFullAndEmpty) {
  SpscQueue<int> q(4);  // rounds up to capacity() usable slots
  EXPECT_TRUE(q.empty());
  int v = 0;
  EXPECT_FALSE(q.try_pop(v));
  std::size_t pushed = 0;
  while (q.try_push(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, q.capacity());
  EXPECT_FALSE(q.try_push(999));
  for (std::size_t i = 0; i < pushed; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, static_cast<int>(i));  // FIFO
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueueTest, CrossThreadTransferPreservesOrder) {
  SpscQueue<std::uint64_t> q(1 << 10);
  constexpr std::uint64_t kCount = 200'000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  std::uint64_t sum = 0;
  while (expect < kCount) {
    std::uint64_t v;
    if (!q.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(v, expect);
    sum += v;
    ++expect;
  }
  producer.join();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

TEST(EpollLoopTest, TimersFireInOrderAndPeriodicsRearm) {
  EpollLoop loop;
  std::vector<int> order;
  loop.add_timer(2'000, [&] { order.push_back(2); });
  loop.add_timer(0, [&] { order.push_back(1); });
  int periodic_fires = 0;
  EpollLoop::TimerId pid = 0;
  pid = loop.add_periodic(1'000, [&] {
    if (++periodic_fires == 3) loop.cancel_timer(pid);
  });
  const std::int64_t deadline = EpollLoop::now_us() + 1'000'000;
  while ((order.size() < 2 || periodic_fires < 3) &&
         EpollLoop::now_us() < deadline) {
    loop.run_once(10'000);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(periodic_fires, 3);
}

TEST(EpollLoopTest, DispatchesFdReadiness) {
  EpollLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  bool readable = false;
  loop.add_fd(fds[0], EPOLLIN, [&](std::uint32_t ev) {
    readable = (ev & EPOLLIN) != 0;
    char c;
    ASSERT_EQ(::read(fds[0], &c, 1), 1);
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.run_once(100'000);
  EXPECT_TRUE(readable);
  loop.del_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Loopback integration: N endpoint agents against the service must end
// up with the same rates as the equivalent in-process allocator run.
// Everything runs single-threaded for determinism: the test interleaves
// service rounds (manual run_allocation_round), the epoll loop, and
// agent polls.

struct Flow {
  std::uint32_t key;
  std::uint16_t src;
  std::uint16_t dst;
};

class LoopbackTest : public ::testing::Test {
 protected:
  static topo::ClosConfig small_clos() {
    topo::ClosConfig cfg;
    cfg.racks = 4;
    cfg.servers_per_rack = 4;
    cfg.spines = 2;
    cfg.fabric_link_bps = 20e9;
    return cfg;
  }

  static core::AllocatorConfig alloc_cfg() {
    core::AllocatorConfig cfg;
    // Threshold 0 so every rate change is notified: the agents' final
    // rates then equal the service's quantized allocation exactly.
    cfg.threshold = 0.0;
    return cfg;
  }

  void pump(EpollLoop& loop, std::vector<EndpointAgent*>& agents) {
    loop.run_once(0);
    for (auto* a : agents) ASSERT_TRUE(a->poll());
    loop.run_once(0);
  }
};

TEST_F(LoopbackTest, AgentsMatchInProcessAllocator) {
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;                // ephemeral
  scfg.iteration_period_us = 0;     // rounds driven manually
  AllocatorService svc(loop, alloc, clos, scfg);
  ASSERT_GT(svc.tcp_port(), 0);

  // 4 agents x 8 flows over a fixed pattern of host pairs.
  constexpr int kAgents = 4;
  constexpr int kFlowsPerAgent = 8;
  Rng rng(1234);
  const int hosts = clos.num_hosts();
  std::vector<std::vector<Flow>> flows(kAgents);
  std::uint32_t key = 1;
  for (int a = 0; a < kAgents; ++a) {
    for (int f = 0; f < kFlowsPerAgent; ++f) {
      const auto src = static_cast<std::uint16_t>(rng.below(hosts));
      auto dst = static_cast<std::uint16_t>(rng.below(hosts - 1));
      if (dst >= src) ++dst;
      flows[a].push_back({key++, src, dst});
    }
  }

  std::vector<std::unique_ptr<EndpointAgent>> agents;
  std::vector<EndpointAgent*> raw;
  for (int a = 0; a < kAgents; ++a) {
    agents.push_back(std::make_unique<EndpointAgent>());
    ASSERT_TRUE(agents.back()->connect_tcp("127.0.0.1", svc.tcp_port()));
    raw.push_back(agents.back().get());
  }
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      ASSERT_TRUE(agents[a]->flowlet_start(fl.key, fl.src, fl.dst));
    }
    agents[a]->flush();
  }

  // Let the service accept and register everything.
  const std::int64_t deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() <
             static_cast<std::size_t>(kAgents * kFlowsPerAgent) &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(),
            static_cast<std::size_t>(kAgents * kFlowsPerAgent));

  constexpr int kIters = 300;
  for (int i = 0; i < kIters; ++i) {
    svc.run_allocation_round();
    pump(loop, raw);
  }
  // Drain any updates still in flight.
  for (int i = 0; i < 50; ++i) pump(loop, raw);

  // Reference: identical flows through an in-process allocator (same
  // route selection: host_path keyed by flow key, as the service does).
  core::Allocator ref(clos.graph().capacities(), alloc_cfg());
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      const auto p =
          clos.host_path(clos.host(fl.src), clos.host(fl.dst), fl.key);
      const std::vector<LinkId> route(p.begin(), p.end());
      ASSERT_TRUE(ref.flowlet_start(fl.key, route));
    }
  }
  std::vector<core::RateUpdate> sink;
  for (int i = 0; i < kIters; ++i) {
    sink.clear();
    ref.run_iteration(sink);
  }

  // Every agent-side rate matches the reference within +-1 rate-code
  // quantum (the codes themselves should be within 1 of each other).
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      const std::uint16_t got = agents[a]->rate_code(fl.key);
      const std::uint16_t want = encode_rate(ref.notified_rate(fl.key));
      EXPECT_NEAR(got, want, 1)
          << "agent " << a << " flow " << fl.key << " got "
          << agents[a]->rate_bps(fl.key) << " bps, want "
          << ref.notified_rate(fl.key) << " bps";
      EXPECT_GT(agents[a]->rate_bps(fl.key), 0.0);
    }
  }
  EXPECT_EQ(svc.stats().protocol_errors, 0u);
  EXPECT_EQ(svc.stats().rejected_starts, 0u);
}

TEST_F(LoopbackTest, UnixSocketFlowletLifecycleAndIdleGap) {
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.unix_path = "/tmp/flowtune_net_test.sock";
  scfg.iteration_period_us = 0;
  AllocatorService svc(loop, alloc, clos, scfg);

  AgentConfig acfg;
  acfg.idle_gap_us = 30'000;
  EndpointAgent agent(acfg);
  ASSERT_TRUE(agent.connect_unix(scfg.unix_path));
  std::vector<EndpointAgent*> raw = {&agent};

  ASSERT_TRUE(agent.flowlet_start(7, 0, 5));
  ASSERT_TRUE(agent.flowlet_start(8, 1, 9));
  agent.flush();
  std::int64_t deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() < 2 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), 2u);

  svc.run_allocation_round();
  pump(loop, raw);
  pump(loop, raw);
  EXPECT_GT(agent.rate_bps(7), 0.0);
  EXPECT_GT(agent.rate_bps(8), 0.0);

  // Keep flow 7 alive by touching it; flow 8 idles out after the gap.
  deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() > 1 &&
         EpollLoop::now_us() < deadline) {
    agent.touch(7);
    pump(loop, raw);
  }
  EXPECT_EQ(alloc.num_active_flowlets(), 1u);
  EXPECT_TRUE(alloc.is_active(7));
  EXPECT_FALSE(alloc.is_active(8));
  EXPECT_EQ(agent.stats().idle_ends, 1u);
  EXPECT_TRUE(agent.is_active(7));
  EXPECT_FALSE(agent.is_active(8));

  // Disconnect ends the remaining flowlet server-side.
  agent.disconnect();
  deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() > 0 &&
         EpollLoop::now_us() < deadline) {
    loop.run_once(1'000);
  }
  EXPECT_EQ(alloc.num_active_flowlets(), 0u);
  EXPECT_EQ(svc.stats().flowlet_ends, 2u);
}

TEST_F(LoopbackTest, DetectorDrivenAgentAutoStartsAndEnds) {
  // The agent owns a FlowDyn-style dynamic detector and no flowlet is
  // ever registered explicitly: observe_packet() drives the whole
  // lifecycle -- auto start on the first packet, auto end after the
  // adaptive gap, auto re-start on the next burst.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  AllocatorService svc(loop, alloc, clos, scfg);

  flowlet::DynamicGapConfig dcfg;
  // Floors sized for a real-time test: the gap settles at min_gap.
  dcfg.min_gap = 40 * kMillisecond;
  dcfg.initial_gap = 40 * kMillisecond;
  dcfg.max_gap = kSecond;
  EndpointAgent agent(
      AgentConfig{},
      std::make_unique<flowlet::DynamicGapDetector>(dcfg));
  ASSERT_NE(agent.detector(), nullptr);
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&agent};

  agent.observe_packet(99, 2, 9, 1500);
  std::int64_t deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() < 1 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), 1u);
  EXPECT_TRUE(agent.is_active(99));
  EXPECT_EQ(agent.stats().starts_sent, 1u);

  // Rates flow to the detected flowlet like any registered one.
  svc.run_allocation_round();
  pump(loop, raw);
  pump(loop, raw);
  EXPECT_GT(agent.rate_bps(99), 0.0);

  // Silence: the detector's idle sweep ends it after the gap.
  deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() > 0 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  EXPECT_EQ(alloc.num_active_flowlets(), 0u);
  EXPECT_FALSE(agent.is_active(99));
  EXPECT_EQ(agent.stats().ends_sent, 1u);
  EXPECT_EQ(agent.stats().idle_ends, 1u);

  // The next burst on the same key re-registers automatically.
  agent.observe_packet(99, 2, 9, 1500);
  deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() < 1 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  EXPECT_EQ(alloc.num_active_flowlets(), 1u);
  EXPECT_EQ(agent.stats().starts_sent, 2u);
  EXPECT_EQ(svc.stats().flowlet_starts, 2u);
  EXPECT_EQ(svc.stats().protocol_errors, 0u);
}

TEST_F(LoopbackTest, BigRoundsSplitIntoChunkedFrames) {
  // An endpoint owning many flows must receive its round as several
  // frames cut at flush_chunk_bytes, never one oversized frame (which
  // would trip the kMaxFramePayload invariant on a big deployment).
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.flush_chunk_bytes = 64;  // ~9 rate records per frame
  AllocatorService svc(loop, alloc, clos, scfg);

  EndpointAgent agent;
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&agent};

  constexpr int kFlows = 24;
  for (std::uint32_t key = 1; key <= kFlows; ++key) {
    const auto src = static_cast<std::uint16_t>(key % 16);
    const auto dst = static_cast<std::uint16_t>((key + 7) % 16);
    ASSERT_TRUE(agent.flowlet_start(key, src, dst));
  }
  agent.flush();
  const std::int64_t deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() < kFlows &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), static_cast<std::size_t>(kFlows));

  svc.run_allocation_round();
  // First round notifies all 24 flows: 24 * 7 B of records across
  // 64-byte chunks is at least 3 frames.
  EXPECT_GE(svc.stats().frames_out, 3u);
  for (int i = 0; i < 20; ++i) pump(loop, raw);
  for (std::uint32_t key = 1; key <= kFlows; ++key) {
    EXPECT_GT(agent.rate_bps(key), 0.0) << "flow " << key;
  }
}

TEST_F(LoopbackTest, ServiceSurvivesChurn) {
  // Regression for the pre-daemon churn loop, which tracked raw
  // FlowIndex slots across remove_flow and could hit recycled slots:
  // keys, not slots, are the contract here.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  AllocatorService svc(loop, alloc, clos, scfg);

  EndpointAgent agent;
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&agent};

  Rng rng(99);
  const int hosts = clos.num_hosts();
  std::vector<std::uint32_t> live;
  std::uint32_t next_key = 1;
  const auto start_one = [&] {
    const auto src = static_cast<std::uint16_t>(rng.below(hosts));
    auto dst = static_cast<std::uint16_t>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    ASSERT_TRUE(agent.flowlet_start(next_key, src, dst));
    live.push_back(next_key++);
  };
  for (int i = 0; i < 32; ++i) start_one();
  agent.flush();

  for (int round = 0; round < 200; ++round) {
    // Churn a few flowlets per round through slot reuse.
    for (int e = 0; e < 2 && !live.empty(); ++e) {
      const auto pick = rng.below(live.size());
      ASSERT_TRUE(agent.flowlet_end(live[pick]));
      live[pick] = live.back();
      live.pop_back();
      start_one();
    }
    agent.flush();
    pump(loop, raw);
    svc.run_allocation_round();
    pump(loop, raw);
  }
  for (int i = 0; i < 50; ++i) pump(loop, raw);

  EXPECT_EQ(alloc.num_active_flowlets(), live.size());
  for (const std::uint32_t key : live) EXPECT_TRUE(alloc.is_active(key));
  EXPECT_EQ(svc.stats().protocol_errors, 0u);
  EXPECT_EQ(svc.stats().unknown_ends, 0u);
  EXPECT_EQ(svc.stats().rejected_starts, 0u);
  // Rates kept flowing to the surviving flowlets.
  std::size_t with_rate = 0;
  for (const std::uint32_t key : live) {
    if (agent.rate_bps(key) > 0.0) ++with_rate;
  }
  EXPECT_GT(with_rate, live.size() / 2);
}

TEST_F(LoopbackTest, StalledReaderDroppedAtMaxOutboxBytes) {
  // Satellite coverage: a peer that stops reading must be closed once
  // max_outbox_bytes of output is buffered for it -- with its flowlets
  // ended -- while the flush chunking keeps every emitted frame at or
  // under flush_chunk_bytes on the way there. A healthy agent sharing
  // the service must ride through undisturbed.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.flush_chunk_bytes = 256;     // many small frames per round
  scfg.max_outbox_bytes = 4 * 1024;  // drop a stalled peer quickly
  scfg.send_buffer_bytes = 4 * 1024;  // keep kernel buffering bounded
  AllocatorService svc(loop, alloc, clos, scfg);

  EndpointAgent healthy;
  ASSERT_TRUE(healthy.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&healthy};
  for (std::uint32_t key = 1; key <= 8; ++key) {
    ASSERT_TRUE(healthy.flowlet_start(
        key, static_cast<std::uint16_t>(key % 16),
        static_cast<std::uint16_t>((key + 5) % 16)));
  }
  healthy.flush();

  // The stalled peer: a raw socket that registers many flows and then
  // never reads a byte. A small receive buffer keeps the TCP window
  // from absorbing rounds of updates.
  const int stalled = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(stalled, 0);
  const int rcvbuf = 2 * 1024;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(svc.tcp_port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr),
            0);
  constexpr std::uint32_t kStalledFlows = 150;
  {
    FrameWriter w;
    for (std::uint32_t i = 0; i < kStalledFlows; ++i) {
      core::FlowletStartMsg m;
      m.flow_key = 1000 + i;
      m.src_host = static_cast<std::uint16_t>(i % 16);
      m.dst_host = static_cast<std::uint16_t>((i + 3) % 16);
      w.add(m);
    }
    std::vector<std::uint8_t> bytes;
    w.flush(bytes);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(stalled, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  std::int64_t deadline = EpollLoop::now_us() + 5'000'000;
  while (alloc.num_active_flowlets() < kStalledFlows + 8 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), kStalledFlows + 8u);
  ASSERT_EQ(svc.num_connections(), 2u);

  // Rounds keep emitting updates while rates converge; the stalled
  // peer's outbox grows once its socket stops accepting bytes, and the
  // service must cut it loose -- ending all its flowlets -- without
  // disturbing the healthy agent.
  deadline = EpollLoop::now_us() + 10'000'000;
  while (svc.stats().closed == 0 && EpollLoop::now_us() < deadline) {
    svc.run_allocation_round();
    pump(loop, raw);
  }
  EXPECT_EQ(svc.stats().closed, 1u);
  EXPECT_EQ(svc.num_connections(), 1u);
  EXPECT_EQ(alloc.num_active_flowlets(), 8u);
  for (std::uint32_t i = 0; i < kStalledFlows; ++i) {
    EXPECT_FALSE(alloc.is_active(1000 + i));
  }
  for (int i = 0; i < 10; ++i) pump(loop, raw);
  for (std::uint32_t key = 1; key <= 8; ++key) {
    EXPECT_GT(healthy.rate_bps(key), 0.0) << "healthy flow " << key;
  }
  // Chunking: rounds touching 150 stalled flows (~7 B per record) were
  // cut into <= 256 B frames, so far more frames than rounds went out.
  const auto s = svc.stats();
  EXPECT_GT(s.frames_out, s.iterations);
  EXPECT_EQ(s.protocol_errors, 0u);
  ::close(stalled);
}

// ---------------------------------------------------------------------
// Sharded service: same protocol, N I/O shard threads behind one
// listener, flowlet lifecycle funneled to the allocation thread over
// SPSC rings. The tests drive allocation rounds from the main thread
// (manual mode) while shard threads run their own loops.

class ShardedLoopbackTest : public LoopbackTest {
 protected:
  // Waits until `cond` holds, pumping the caller loop and the agents.
  template <class Cond>
  bool pump_until(EpollLoop& loop, std::vector<EndpointAgent*>& agents,
                  Cond cond, std::int64_t budget_us = 5'000'000) {
    const std::int64_t deadline = EpollLoop::now_us() + budget_us;
    while (!cond()) {
      if (EpollLoop::now_us() > deadline) return false;
      loop.run_once(1'000);
      for (auto* a : agents) {
        if (!a->poll()) return false;
      }
    }
    return true;
  }
};

TEST_F(ShardedLoopbackTest, AgentsAcrossShardsMatchInProcessAllocator) {
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;  // rounds driven manually below
  scfg.num_shards = 2;
  AllocatorService svc(loop, alloc, clos, scfg);
  ASSERT_EQ(svc.num_shards(), 2);

  constexpr int kAgents = 4;  // two connections per shard
  constexpr int kFlowsPerAgent = 8;
  Rng rng(77);
  const int hosts = clos.num_hosts();
  std::vector<std::vector<Flow>> flows(kAgents);
  std::uint32_t key = 1;
  for (int a = 0; a < kAgents; ++a) {
    for (int f = 0; f < kFlowsPerAgent; ++f) {
      const auto src = static_cast<std::uint16_t>(rng.below(hosts));
      auto dst = static_cast<std::uint16_t>(rng.below(hosts - 1));
      if (dst >= src) ++dst;
      flows[a].push_back({key++, src, dst});
    }
  }

  std::vector<std::unique_ptr<EndpointAgent>> agents;
  std::vector<EndpointAgent*> raw;
  for (int a = 0; a < kAgents; ++a) {
    agents.push_back(std::make_unique<EndpointAgent>());
    ASSERT_TRUE(agents.back()->connect_tcp("127.0.0.1", svc.tcp_port()));
    raw.push_back(agents.back().get());
  }
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      ASSERT_TRUE(agents[a]->flowlet_start(fl.key, fl.src, fl.dst));
    }
    agents[a]->flush();
  }

  ASSERT_TRUE(pump_until(loop, raw, [&] {
    return alloc.num_active_flowlets() ==
           static_cast<std::size_t>(kAgents * kFlowsPerAgent);
  }));

  constexpr int kIters = 400;
  for (int i = 0; i < kIters; ++i) {
    svc.run_allocation_round();
    loop.run_once(0);
    for (auto* a : raw) ASSERT_TRUE(a->poll());
  }
  // Drain in-flight updates.
  for (int i = 0; i < 100; ++i) {
    loop.run_once(1'000);
    for (auto* a : raw) ASSERT_TRUE(a->poll());
  }

  // Reference: identical flows through an in-process allocator. The
  // sharded service registers flows in drain order, but NED converges
  // to the same optimum regardless of registration order.
  core::Allocator ref(clos.graph().capacities(), alloc_cfg());
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      const auto p =
          clos.host_path(clos.host(fl.src), clos.host(fl.dst), fl.key);
      const std::vector<LinkId> route(p.begin(), p.end());
      ASSERT_TRUE(ref.flowlet_start(fl.key, route));
    }
  }
  std::vector<core::RateUpdate> sink;
  for (int i = 0; i < kIters; ++i) {
    sink.clear();
    ref.run_iteration(sink);
  }

  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      const std::uint16_t got = agents[a]->rate_code(fl.key);
      const std::uint16_t want = encode_rate(ref.notified_rate(fl.key));
      EXPECT_NEAR(got, want, 2)
          << "agent " << a << " flow " << fl.key << " got "
          << agents[a]->rate_bps(fl.key) << " bps, want "
          << ref.notified_rate(fl.key) << " bps";
      EXPECT_GT(agents[a]->rate_bps(fl.key), 0.0);
    }
  }
  const auto s = svc.stats();
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.rejected_starts, 0u);
  EXPECT_EQ(s.queue_drops, 0u);
  EXPECT_EQ(s.flowlet_starts,
            static_cast<std::uint64_t>(kAgents * kFlowsPerAgent));
  EXPECT_FALSE(svc.round_latency_us().empty());
}

TEST_F(ShardedLoopbackTest, ChurnAndDisconnectAcrossShards) {
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.num_shards = 3;
  AllocatorService svc(loop, alloc, clos, scfg);

  constexpr int kAgents = 3;
  std::vector<std::unique_ptr<EndpointAgent>> agents;
  std::vector<EndpointAgent*> raw;
  for (int a = 0; a < kAgents; ++a) {
    agents.push_back(std::make_unique<EndpointAgent>());
    ASSERT_TRUE(agents.back()->connect_tcp("127.0.0.1", svc.tcp_port()));
    raw.push_back(agents.back().get());
  }

  Rng rng(5150);
  const int hosts = clos.num_hosts();
  std::vector<std::vector<std::uint32_t>> live(kAgents);
  std::uint32_t next_key = 1;
  const auto start_one = [&](int a) {
    const auto src = static_cast<std::uint16_t>(rng.below(hosts));
    auto dst = static_cast<std::uint16_t>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    ASSERT_TRUE(agents[a]->flowlet_start(next_key, src, dst));
    live[a].push_back(next_key++);
  };
  for (int a = 0; a < kAgents; ++a) {
    for (int i = 0; i < 16; ++i) start_one(a);
    agents[a]->flush();
  }

  for (int round = 0; round < 150; ++round) {
    for (int a = 0; a < kAgents; ++a) {
      for (int e = 0; e < 2 && !live[a].empty(); ++e) {
        const auto pick = rng.below(live[a].size());
        ASSERT_TRUE(agents[a]->flowlet_end(live[a][pick]));
        live[a][pick] = live[a].back();
        live[a].pop_back();
        start_one(a);
      }
      agents[a]->flush();
    }
    loop.run_once(0);
    svc.run_allocation_round();
    for (auto* ag : raw) ASSERT_TRUE(ag->poll());
  }

  // Everything the agents think is live must end up live in the
  // allocator once the rings quiesce. The count alone can match
  // transiently while (end, start) pairs are still in flight, so wait
  // for the exact key set.
  std::size_t want = 0;
  for (const auto& l : live) want += l.size();
  const auto all_live_active = [&] {
    if (alloc.num_active_flowlets() != want) return false;
    for (const auto& l : live) {
      for (const std::uint32_t k : l) {
        if (!alloc.is_active(k)) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(pump_until(loop, raw, [&] {
    svc.run_allocation_round();
    return all_live_active();
  }));

  // Disconnecting one agent ends exactly its flows, service-side.
  const std::size_t dropped = live[0].size();
  agents[0]->disconnect();
  std::vector<EndpointAgent*> still = {raw[1], raw[2]};
  ASSERT_TRUE(pump_until(loop, still, [&] {
    return alloc.num_active_flowlets() == want - dropped;
  }));
  for (const std::uint32_t k : live[1]) EXPECT_TRUE(alloc.is_active(k));
  for (const std::uint32_t k : live[0]) EXPECT_FALSE(alloc.is_active(k));

  const auto s = svc.stats();
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.unknown_ends, 0u);
  EXPECT_EQ(s.rejected_starts, 0u);
  EXPECT_EQ(s.queue_drops, 0u);
}

TEST_F(ShardedLoopbackTest, CrossShardDuplicateKeyRejected) {
  // Two agents on different shards claim the same flow key: the
  // allocation thread is the authority, so exactly one registration
  // survives and the loser's shard entry is rolled back by kReject.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.num_shards = 2;
  AllocatorService svc(loop, alloc, clos, scfg);

  EndpointAgent a0;
  EndpointAgent a1;
  ASSERT_TRUE(a0.connect_tcp("127.0.0.1", svc.tcp_port()));
  ASSERT_TRUE(a1.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&a0, &a1};

  ASSERT_TRUE(a0.flowlet_start(42, 0, 5));
  ASSERT_TRUE(a1.flowlet_start(42, 1, 9));  // same key, other conn
  a0.flush();
  a1.flush();

  ASSERT_TRUE(pump_until(loop, raw, [&] {
    svc.run_allocation_round();
    return svc.stats().rejected_starts >= 1 &&
           alloc.num_active_flowlets() == 1;
  }));
  EXPECT_EQ(alloc.num_active_flowlets(), 1u);
  EXPECT_EQ(svc.stats().rejected_starts, 1u);
  EXPECT_TRUE(alloc.is_active(42));
}

// A rate update for a key no service connection owns (registered on the
// allocator directly) dies in the fanout counted, never silent -- in
// every shard mode.
TEST_F(ShardedLoopbackTest, UpdateWithoutAnOwnerIsCountedOrphaned) {
  const topo::ClosTopology clos(small_clos());
  for (const int shards : {0, 2}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    core::Allocator alloc(clos.graph().capacities(), alloc_cfg());
    EpollLoop loop;
    ServerConfig scfg;
    scfg.tcp_port = 0;
    scfg.iteration_period_us = 0;
    scfg.num_shards = shards;
    AllocatorService svc(loop, alloc, clos, scfg);

    const auto path = clos.host_path(clos.host(2), clos.host(7), 77);
    ASSERT_TRUE(
        alloc.flowlet_start(77, std::vector<LinkId>(path.begin(), path.end())));
    EndpointAgent agent;
    ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
    std::vector<EndpointAgent*> raw = {&agent};
    ASSERT_TRUE(agent.flowlet_start(1, 0, 5));
    agent.flush();
    ASSERT_TRUE(pump_until(loop, raw, [&] {
      return alloc.num_active_flowlets() == 2;
    }));
    svc.run_allocation_round();  // one update per flow
    ASSERT_TRUE(pump_until(loop, raw, [&] {
      return svc.stats().updates_sent == 1 && agent.rate_bps(1) > 0.0;
    }));
    EXPECT_EQ(svc.stats().updates_orphaned, 1u);
  }
}

// Under sustained ingress a threaded shard's up ring stays full; each
// allocation-thread wakeup applies at most kUpDrainBudget events and
// re-kicks itself, so the loop gets back to its timers (the round)
// between drains instead of staying inside one drain.
TEST_F(ShardedLoopbackTest, UpRingDrainsOneBudgetPerWakeup) {
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());
  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;  // no round timer: wakeups only
  scfg.num_shards = 1;
  AllocatorService svc(loop, alloc, clos, scfg);
  EndpointAgent agent;
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  const std::int64_t deadline = EpollLoop::now_us() + 5'000'000;
  while (svc.num_connections() == 0) {
    ASSERT_LT(EpollLoop::now_us(), deadline);
    loop.run_once(1'000);
  }

  // Flood the ring without running the caller's loop.
  constexpr std::size_t kFlood = 3 * kUpDrainBudget;
  const auto hosts = static_cast<std::uint32_t>(clos.num_hosts());
  for (std::uint32_t k = 1; k <= kFlood; ++k) {
    ASSERT_TRUE(agent.flowlet_start(k, static_cast<std::uint16_t>(k % hosts),
                                    static_cast<std::uint16_t>((k + 1) %
                                                               hosts)));
  }
  agent.flush();
  const obs::Gauge& depth = svc.metrics().gauge("net.shard0.up_depth_hw");
  while (depth.value() < static_cast<std::int64_t>(kFlood)) {
    ASSERT_LT(EpollLoop::now_us(), deadline);
    ASSERT_TRUE(agent.poll());  // writes whatever the socket pushed back
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // The shard's kick may still be on its way; the first wakeup that
  // finds it applies the first budget.
  while (svc.stats().flowlet_starts == 0) {
    ASSERT_LT(EpollLoop::now_us(), deadline);
    loop.run_once(0);
  }
  EXPECT_EQ(svc.stats().flowlet_starts, kUpDrainBudget);
  loop.run_once(0);
  EXPECT_EQ(svc.stats().flowlet_starts, 2 * kUpDrainBudget);
  loop.run_once(0);
  EXPECT_EQ(svc.stats().flowlet_starts, 3 * kUpDrainBudget);
  EXPECT_EQ(alloc.num_active_flowlets(), kFlood);
}

TEST_F(ShardedLoopbackTest, SampledStartProducesCompleteSevenHopSpan) {
  // End-to-end trace propagation through the sharded service: a sampled
  // flowlet_start (traced flag + TraceMarkMsg in the same batch) must
  // come back on the flow's first rate update with all six wire hops
  // stamped, in causal order, and land e2e.* histograms in the agent's
  // registry.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.num_shards = 2;
  AllocatorService svc(loop, alloc, clos, scfg);

  obs::MetricsRegistry reg;
  AgentConfig acfg;
  acfg.metrics = &reg;
  acfg.trace_sample_every = 1;  // every start is sampled
  EndpointAgent agent(acfg);
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&agent};

  ASSERT_TRUE(agent.flowlet_start(7, 0, 5));
  ASSERT_TRUE(agent.flowlet_start(8, 1, 9));
  agent.flush();
  EXPECT_EQ(agent.stats().traces_sent, 2u);

  ASSERT_TRUE(pump_until(loop, raw, [&] {
    svc.run_allocation_round();
    return agent.stats().traces_completed >= 2;
  }));

  // The echoed mark carries the six wire hops; the seventh (agent
  // receive) is the local stamp. Hops 1..5 are on the service clock and
  // the loopback run shares one host, so the whole chain is ordered.
  const EndpointAgent::TraceResult& tr = agent.last_trace();
  EXPECT_NE(tr.mark.trace_id, 0u);
  EXPECT_TRUE(tr.mark.flow_key == 7u || tr.mark.flow_key == 8u);
  const auto& t = tr.mark.t_ns;
  EXPECT_GT(t[core::kHopAgentSend], 0);
  EXPECT_GT(t[core::kHopShardIngest], 0);
  EXPECT_LE(t[core::kHopShardIngest], t[core::kHopRoundPickup]);
  EXPECT_LE(t[core::kHopRoundPickup], t[core::kHopSolveDone]);
  EXPECT_LE(t[core::kHopSolveDone], t[core::kHopEmitDone]);
  EXPECT_LE(t[core::kHopEmitDone], t[core::kHopFanoutWrite]);
  EXPECT_GE(tr.t_receive_ns, t[core::kHopAgentSend]);
  EXPECT_GE(tr.t_receive_ns, t[core::kHopFanoutWrite]);

  // Span histograms recorded one sample per completed trace.
  EXPECT_EQ(reg.histo("e2e.update_us").snapshot().count, 2u);
  EXPECT_EQ(reg.histo("e2e.solve_us").snapshot().count, 2u);
  EXPECT_EQ(reg.histo("e2e.fanout_us").snapshot().count, 2u);
  EXPECT_EQ(svc.metrics().counter("svc.trace_marks").value(), 2u);
  EXPECT_EQ(svc.metrics().counter("svc.trace_echoes").value(), 2u);
  EXPECT_EQ(svc.metrics().counter("svc.trace_drops").value(), 0u);
}

TEST_F(LoopbackTest, InlineTraceAndFlowletEndDropsContext) {
  // Default one-shard (num_shards == 0) trace path: sampled starts
  // complete their loop without shard rings, and a flowlet_end before
  // the first rate update retires the parked context (counted as a
  // drop, not leaked).
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  AllocatorService svc(loop, alloc, clos, scfg);

  obs::MetricsRegistry reg;
  AgentConfig acfg;
  acfg.metrics = &reg;
  acfg.trace_sample_every = 1;
  EndpointAgent agent(acfg);
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&agent};

  // Flow 21 completes its trace; flow 22 ends before any round runs, so
  // its context is erased without an echo.
  ASSERT_TRUE(agent.flowlet_start(21, 0, 5));
  ASSERT_TRUE(agent.flowlet_start(22, 1, 9));
  agent.flush();
  std::int64_t deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() < 2 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), 2u);
  ASSERT_TRUE(agent.flowlet_end(22));
  agent.flush();
  deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() > 1 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), 1u);

  deadline = EpollLoop::now_us() + 2'000'000;
  while (agent.stats().traces_completed < 1 &&
         EpollLoop::now_us() < deadline) {
    svc.run_allocation_round();
    pump(loop, raw);
  }
  EXPECT_EQ(agent.stats().traces_completed, 1u);
  EXPECT_EQ(agent.last_trace().mark.flow_key, 21u);
  EXPECT_EQ(svc.metrics().counter("svc.trace_echoes").value(), 1u);
}

// The flight recorder counts every applied up event as churn, and one
// batch per shard the fanout touched, on the default one-shard service
// as on a sharded one.
TEST_F(LoopbackTest, FlightRecordCountsChurnAndShardBatches) {
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  AllocatorService svc(loop, alloc, clos, scfg);

  EndpointAgent a0;
  EndpointAgent a1;
  ASSERT_TRUE(a0.connect_tcp("127.0.0.1", svc.tcp_port()));
  ASSERT_TRUE(a1.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&a0, &a1};
  constexpr std::uint32_t kStarts = 5;
  for (std::uint32_t key = 1; key <= kStarts; ++key) {
    EndpointAgent& a = key <= 3 ? a0 : a1;
    ASSERT_TRUE(a.flowlet_start(key, static_cast<std::uint16_t>(key),
                                static_cast<std::uint16_t>(key + 6)));
  }
  a0.flush();
  a1.flush();
  const std::int64_t deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() < kStarts &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), kStarts);

  svc.run_allocation_round();
  const std::vector<obs::RoundRecord> recs = svc.flight().recent();
  ASSERT_FALSE(recs.empty());
  const obs::RoundRecord& r = recs.back();
  // A slow box may let an agent's registration refresh fire first; each
  // refresh is one more up event.
  EXPECT_EQ(r.churn_events, kStarts + svc.stats().replayed_starts);
  EXPECT_EQ(r.updates, kStarts);
  EXPECT_EQ(r.batches, 1u);  // two connections, one shard
}

TEST_F(LoopbackTest, InjectedStallPromotesRoundIntoFlightRecorder) {
  // Fault injection end-to-end: a forced 2 ms stall inside one round's
  // fanout phase must appear in the flight recorder's black box with the
  // stall attributed to fanout_us, while ordinary rounds stay below the
  // promotion threshold.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.flight.warmup_rounds = 16;
  // Floor well above an ordinary inline round (a few us) but well below
  // the injected stall, so promotion is deterministic even on a noisy
  // CI box.
  scfg.flight.promote_floor_us = 500.0;
  scfg.stall_every_rounds = 64;  // rounds 64, 128, ... stall
  scfg.stall_us = 2000;
  AllocatorService svc(loop, alloc, clos, scfg);

  EndpointAgent agent;
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&agent};
  ASSERT_TRUE(agent.flowlet_start(5, 0, 5));
  agent.flush();
  const std::int64_t deadline = EpollLoop::now_us() + 2'000'000;
  while (alloc.num_active_flowlets() < 1 &&
         EpollLoop::now_us() < deadline) {
    pump(loop, raw);
  }
  ASSERT_EQ(alloc.num_active_flowlets(), 1u);

  for (int i = 0; i < 128; ++i) {
    svc.run_allocation_round();
    pump(loop, raw);
  }

  const obs::FlightRecorder& fr = svc.flight();
  EXPECT_EQ(fr.rounds_seen(), 128u);
  ASSERT_GE(fr.promoted(), 2u);  // both stall rounds breach the floor
  const auto bb = fr.black_box();
  ASSERT_FALSE(bb.empty());
  int stalls_in_box = 0;
  for (const obs::RoundRecord& r : bb) {
    EXPECT_GT(r.threshold_us, 0.0f);
    EXPECT_GT(r.round_us, static_cast<double>(r.threshold_us));
    if ((r.round + 1) % scfg.stall_every_rounds == 0 &&
        r.fanout_us >= 2000.0) {
      ++stalls_in_box;  // phase attribution points at the fanout stall
    }
  }
  EXPECT_EQ(stalls_in_box, 2);
  // The dump is self-describing JSON tools/obs_dump.py renders.
  const std::string dump = fr.dump_json();
  EXPECT_NE(dump.find("\"kind\":\"flight\""), std::string::npos);
  EXPECT_NE(dump.find("\"black_box\":["), std::string::npos);
}

}  // namespace
}  // namespace ft::net
