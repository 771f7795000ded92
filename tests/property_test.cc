// Property-based tests (parameterized sweeps) on core invariants:
// optimality across utility families, scale invariance, normalization
// feasibility, codec error bounds, event-ordering determinism, and the
// event queue's lane/heap/lazy-timer merge order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "common/ratecode.h"
#include "common/rng.h"
#include "core/exact.h"
#include "core/messages.h"
#include "core/ned.h"
#include "core/normalizer.h"
#include "core/problem.h"
#include "net/frame.h"
#include "sim/event_queue.h"

namespace ft::core {
namespace {

struct RandomCase {
  std::uint64_t seed;
  double alpha;  // utility family
};

NumProblem random_problem(std::uint64_t seed, double alpha,
                          std::size_t links = 10,
                          std::size_t flows = 30) {
  Rng rng(seed);
  std::vector<double> caps;
  for (std::size_t l = 0; l < links; ++l) {
    caps.push_back(rng.uniform(5e9, 40e9));
  }
  NumProblem p(std::move(caps));
  // Weight scale keeping optimal prices O(1) for the family: w ~ x^alpha
  // at x ~ 1e9..1e10.
  const double wscale = std::pow(5e9, alpha - 1.0) * 1e9;
  for (std::size_t f = 0; f < flows; ++f) {
    const std::size_t hops = 1 + rng.below(3);
    std::vector<LinkId> route;
    const std::size_t start = rng.below(links);
    for (std::size_t h = 0; h < hops; ++h) {
      const auto l = static_cast<std::uint32_t>((start + 3 * h) % links);
      bool dup = false;
      for (LinkId existing : route) dup = dup || existing.value() == l;
      if (!dup) route.emplace_back(l);
    }
    p.add_flow(route,
               Utility::alpha_fair(alpha, rng.uniform(0.5, 2.0) * wscale));
  }
  return p;
}

class UtilityFamilyP : public ::testing::TestWithParam<RandomCase> {};

TEST_P(UtilityFamilyP, ExactSolutionSatisfiesKkt) {
  NumProblem p =
      random_problem(GetParam().seed, GetParam().alpha);
  const ExactResult res = solve_exact(p);
  EXPECT_TRUE(res.converged)
      << "seed " << GetParam().seed << " alpha " << GetParam().alpha;
  EXPECT_LT(res.kkt_residual, 2e-3);
  // Feasibility explicitly.
  std::vector<double> alloc(p.num_links(), 0.0);
  for (FlowIndex s = 0; s < p.num_slots(); ++s) {
    if (!p.flow(s).active()) continue;
    EXPECT_GT(res.rates[s], 0.0);
    for (std::uint32_t l : p.flow(s).route()) alloc[l] += res.rates[s];
  }
  for (std::size_t l = 0; l < p.num_links(); ++l) {
    EXPECT_LE(alloc[l], p.capacity(l) * (1 + 1e-4));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, UtilityFamilyP,
    ::testing::Values(RandomCase{1, 1.0}, RandomCase{2, 1.0},
                      RandomCase{3, 1.0}, RandomCase{4, 2.0},
                      RandomCase{5, 2.0}, RandomCase{6, 0.5},
                      RandomCase{7, 0.5}, RandomCase{8, 1.5},
                      RandomCase{9, 3.0}, RandomCase{10, 1.0}));

TEST(ScaleInvarianceTest, RatesScaleWithCapacityAndWeight) {
  // Scaling capacities and (log-utility) weights by k scales the optimal
  // rates by k and leaves prices unchanged -- the conditioning argument
  // behind the default 1 Gbit/s weight.
  const double k = 7.5;
  NumProblem a({10e9, 20e9});
  NumProblem b({k * 10e9, k * 20e9});
  const std::vector<LinkId> r01{LinkId(0), LinkId(1)};
  const std::vector<LinkId> r0{LinkId(0)};
  a.add_flow(r01, Utility::log_utility(1e9));
  a.add_flow(r0, Utility::log_utility(2e9));
  b.add_flow(r01, Utility::log_utility(k * 1e9));
  b.add_flow(r0, Utility::log_utility(k * 2e9));
  const ExactResult ra = solve_exact(a);
  const ExactResult rb = solve_exact(b);
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rb.converged);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_NEAR(rb.rates[s], k * ra.rates[s], k * ra.rates[s] * 1e-4);
  }
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_NEAR(rb.prices[l], ra.prices[l],
                std::max(1e-6, ra.prices[l]) * 1e-3);
  }
}

TEST(ScaleInvarianceTest, NedIterationDeterministic) {
  NumProblem p1 = random_problem(42, 1.0);
  NumProblem p2 = random_problem(42, 1.0);
  NedSolver a(p1), b(p2);
  for (int i = 0; i < 100; ++i) {
    a.iterate();
    b.iterate();
  }
  for (std::size_t s = 0; s < p1.num_slots(); ++s) {
    EXPECT_DOUBLE_EQ(a.rates()[s], b.rates()[s]);
  }
}

class FNormFamilyP : public ::testing::TestWithParam<RandomCase> {};

TEST_P(FNormFamilyP, FeasibleForAllUtilityFamilies) {
  NumProblem p =
      random_problem(GetParam().seed + 100, GetParam().alpha);
  NedSolver ned(p);
  // Sample feasibility mid-convergence (the hard case) and at
  // convergence.
  std::vector<double> out(p.num_slots());
  for (int it = 1; it <= 64; ++it) {
    ned.iterate();
    if ((it & (it - 1)) != 0) continue;  // powers of two
    f_norm(p, ned.rates(), out);
    std::vector<double> alloc(p.num_links(), 0.0);
    for (FlowIndex s = 0; s < p.num_slots(); ++s) {
      if (!p.flow(s).active()) continue;
      for (std::uint32_t l : p.flow(s).route()) alloc[l] += out[s];
    }
    for (std::size_t l = 0; l < p.num_links(); ++l) {
      ASSERT_LE(alloc[l], p.capacity(l) * (1 + 1e-9))
          << "iteration " << it;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FNormFamilyP,
    ::testing::Values(RandomCase{1, 1.0}, RandomCase{2, 2.0},
                      RandomCase{3, 0.5}, RandomCase{4, 1.0},
                      RandomCase{5, 1.5}, RandomCase{6, 1.0},
                      RandomCase{7, 2.0}, RandomCase{8, 1.0}));

class RateCodeP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RateCodeP, QuantizationErrorBounded) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform across the normalized range (>= 2048 granularity
    // units); below that the format is denormal with absolute error
    // bounded by one granule, checked separately.
    const double rate = std::exp(rng.uniform(std::log(3e6), std::log(1e12)));
    const double decoded = ft::decode_rate(ft::encode_rate(rate));
    EXPECT_NEAR(decoded, rate, rate * ft::kRateCodeMaxRelError * 2.01)
        << rate;
  }
  for (int i = 0; i < 1000; ++i) {
    const double rate = rng.uniform(1e3, 2e6);
    const double decoded = ft::decode_rate(ft::encode_rate(rate));
    EXPECT_NEAR(decoded, rate, 1e3) << rate;  // one 1 Kbit/s granule
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RateCodeP, ::testing::Values(1, 2, 3, 4));

TEST(MessageFuzzTest, RoundTripRandomValues) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    FlowletStartMsg s;
    s.flow_key = static_cast<std::uint32_t>(rng.next());
    s.src_host = static_cast<std::uint16_t>(rng.next());
    s.dst_host = static_cast<std::uint16_t>(rng.next());
    s.size_hint_bytes = static_cast<std::uint32_t>(rng.next());
    s.weight_milli = static_cast<std::uint16_t>(rng.next());
    s.flags = static_cast<std::uint16_t>(rng.next());
    EXPECT_EQ(decode_flowlet_start(encode(s)), s);
    FlowletEndMsg e{static_cast<std::uint32_t>(rng.next())};
    EXPECT_EQ(decode_flowlet_end(encode(e)), e);
    RateUpdateMsg u{static_cast<std::uint32_t>(rng.next()),
                    static_cast<std::uint16_t>(rng.next()),
                    static_cast<std::uint16_t>(rng.next())};
    EXPECT_EQ(decode_rate_update(encode(u)), u);
    HeartbeatMsg h;
    h.t_send_ns = static_cast<std::int64_t>(rng.next());
    h.lease_us = static_cast<std::uint32_t>(rng.next());
    h.epoch = static_cast<std::uint16_t>(rng.next());
    EXPECT_EQ(decode_heartbeat(encode(h)), h);
  }
}

// The epoch stamp survives the full range, including the wrap frontier
// the serial comparison has to get right.
TEST(MessageFuzzTest, EpochStampRoundTripsAtWrapBoundaries) {
  for (std::uint32_t e : {0u, 1u, 32767u, 32768u, 65534u, 65535u}) {
    RateUpdateMsg u{42, 1234, static_cast<std::uint16_t>(e)};
    EXPECT_EQ(decode_rate_update(encode(u)).epoch, e);
    HeartbeatMsg h;
    h.epoch = static_cast<std::uint16_t>(e);
    EXPECT_EQ(decode_heartbeat(encode(h)).epoch, e);
  }
}

}  // namespace
}  // namespace ft::core

namespace ft::net {
namespace {

// Fuzz the epoch-stamped wire encodings end to end through the frame
// layer: a mangled byte stream must never crash the parser, must stay
// sticky-corrupt once rejected, and -- the property the epoch hardening
// leans on -- must never deliver a record carrying an epoch the sender
// never stamped, as a fabricated newer epoch would make every agent
// discard legitimate rate updates as stale.
struct EpochSink : MessageSink {
  std::vector<std::uint16_t> update_epochs;
  std::vector<std::uint16_t> heartbeat_epochs;
  std::size_t others = 0;
  void on_rate_update(const core::RateUpdateMsg& m) override {
    update_epochs.push_back(m.epoch);
  }
  void on_heartbeat(const core::HeartbeatMsg& m) override {
    heartbeat_epochs.push_back(m.epoch);
  }
  void on_flowlet_start(const core::FlowletStartMsg&) override { ++others; }
  void on_flowlet_end(const core::FlowletEndMsg&) override { ++others; }
  void on_trace_mark(const core::TraceMarkMsg&) override { ++others; }
};

constexpr std::uint16_t kEpoch = 0x7A31;
constexpr std::size_t kUpdates = 8;

// One frame of kUpdates rate updates (distinct keys, so nothing
// coalesces) followed by a lease heartbeat, all stamped kEpoch.
std::vector<std::uint8_t> epoch_frame() {
  FrameWriter w;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    core::RateUpdateMsg u;
    u.flow_key = static_cast<std::uint32_t>(1 + i);
    u.rate_code = static_cast<std::uint16_t>(100 + i);
    u.epoch = kEpoch;
    w.add(u);
  }
  core::HeartbeatMsg h;
  h.t_send_ns = 123456789;
  h.lease_us = 50'000;
  h.epoch = kEpoch;
  w.add(h);
  std::vector<std::uint8_t> out;
  w.flush(out);
  return out;
}

// Byte positions (within the framed bytes) that hold an epoch field:
// rate record = tag + 8B payload with the epoch at payload offset 6;
// heartbeat record = tag + 14B payload with the epoch at offset 12.
std::vector<bool> epoch_byte_map(std::size_t frame_len) {
  std::vector<bool> is_epoch(frame_len, false);
  std::size_t off = kFrameHeaderBytes;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    is_epoch[off + 1 + 6] = is_epoch[off + 1 + 7] = true;
    off += kRateRecordBytes;
  }
  is_epoch[off + 1 + 12] = is_epoch[off + 1 + 13] = true;
  return is_epoch;
}

// Record tag byte positions: flipping one re-types (or invalidates) the
// record, so downstream bytes re-cut arbitrarily.
bool is_tag_byte(std::size_t byte) {
  const std::size_t hb_tag =
      kFrameHeaderBytes + kUpdates * kRateRecordBytes;
  if (byte == hb_tag) return true;
  if (byte < kFrameHeaderBytes || byte >= hb_tag) return false;
  return (byte - kFrameHeaderBytes) % kRateRecordBytes == 0;
}

TEST(EpochFrameFuzzTest, ArbitrarySplitsDeliverExactEpochs) {
  const std::vector<std::uint8_t> frame = epoch_frame();
  Rng rng(41);
  for (int round = 0; round < 200; ++round) {
    FrameParser p;
    EpochSink sink;
    std::size_t off = 0;
    bool ok = true;
    while (off < frame.size()) {
      const std::size_t n =
          std::min(frame.size() - off, 1 + rng.below(7));
      ok = p.feed(std::span(frame).subspan(off, n), sink);
      ASSERT_TRUE(ok);
      off += n;
    }
    ASSERT_EQ(sink.update_epochs.size(), kUpdates);
    ASSERT_EQ(sink.heartbeat_epochs.size(), 1u);
    for (std::uint16_t e : sink.update_epochs) EXPECT_EQ(e, kEpoch);
    EXPECT_EQ(sink.heartbeat_epochs[0], kEpoch);
  }
}

TEST(EpochFrameFuzzTest, TruncationNeverYieldsPartialEpoch) {
  const std::vector<std::uint8_t> frame = epoch_frame();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    FrameParser p;
    EpochSink sink;
    // A truncated stream is just an incomplete frame: nothing may be
    // delivered (records only decode from a *complete* frame), so no
    // half-written epoch can ever reach the agent.
    EXPECT_TRUE(p.feed(std::span(frame).subspan(0, cut), sink));
    EXPECT_TRUE(sink.update_epochs.empty());
    EXPECT_TRUE(sink.heartbeat_epochs.empty());
    EXPECT_EQ(sink.others, 0u);
  }
}

TEST(EpochFrameFuzzTest, BitFlipsNeverCrashAndNeverForgeEpochs) {
  const std::vector<std::uint8_t> frame = epoch_frame();
  const std::vector<bool> is_epoch = epoch_byte_map(frame.size());
  const std::vector<std::uint8_t> valid = frame;  // probe for stickiness
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mangled = frame;
      mangled[byte] =
          static_cast<std::uint8_t>(mangled[byte] ^ (1u << bit));
      FrameParser p;
      EpochSink sink;
      const bool ok = p.feed(std::span(mangled), sink);
      if (!ok) {
        // Sticky: once the stream is condemned, even pristine bytes
        // are refused (the connection must be dropped, not resumed).
        EpochSink again;
        EXPECT_FALSE(p.feed(std::span(valid), again));
        EXPECT_TRUE(again.update_epochs.empty());
        continue;
      }
      // Parsed: a flip outside the header (which may re-cut record
      // boundaries) and outside the record tags and epoch bytes leaves
      // the epochs untouched -- corruption of keys, codes or
      // timestamps must not fabricate an epoch.
      const bool structural =
          byte < kFrameHeaderBytes || is_tag_byte(byte);
      if (structural || is_epoch[byte]) continue;
      for (std::uint16_t e : sink.update_epochs) EXPECT_EQ(e, kEpoch);
      for (std::uint16_t e : sink.heartbeat_epochs) EXPECT_EQ(e, kEpoch);
    }
  }
}

TEST(EpochFrameFuzzTest, SplicedStreamsStayStickyCorrupt) {
  const std::vector<std::uint8_t> frame = epoch_frame();
  Rng rng(43);
  int condemned = 0;
  for (int round = 0; round < 200; ++round) {
    // Splice: an honest prefix cut mid-frame, resumed from an
    // unrelated offset of another frame -- the classic symptom of a
    // proxy or buffer bug gluing two connections together.
    const std::size_t cut = 1 + rng.below(frame.size() - 1);
    const std::size_t resume = 1 + rng.below(frame.size() - 1);
    std::vector<std::uint8_t> spliced(frame.begin(),
                                      frame.begin() + cut);
    spliced.insert(spliced.end(), frame.begin() + resume, frame.end());
    spliced.insert(spliced.end(), frame.begin(), frame.end());
    FrameParser p;
    EpochSink sink;
    // A splice can realign into structurally valid records whose epoch
    // bytes come from unrelated fields -- undetectable at this layer by
    // construction, which is exactly why SimProxy forwards only
    // complete frames across upstream swaps. What the parser owes us:
    // never crash, and stay sticky-corrupt once the gluing trips the
    // length or tag checks.
    const bool ok = p.feed(std::span(spliced), sink);
    if (!ok) {
      ++condemned;
      EpochSink again;
      EXPECT_FALSE(p.feed(std::span(frame), again));
      EXPECT_TRUE(again.update_epochs.empty());
    }
  }
  // The splice detector must actually fire on most gluings; if every
  // one parsed, the framing is not doing its job.
  EXPECT_GT(condemned, 100);
}

}  // namespace
}  // namespace ft::net

namespace ft::sim {
namespace {

struct OrderChecker : EventHandler {
  Time last = -1;
  EventQueue* q = nullptr;
  std::size_t fired = 0;
  void on_event(std::uint32_t, std::uint64_t) override {
    EXPECT_GE(q->now(), last);
    last = q->now();
    ++fired;
  }
};

class EventOrderP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderP, RandomScheduleProcessesInTimeOrder) {
  EventQueue q;
  OrderChecker checker;
  checker.q = &q;
  Rng rng(GetParam());
  std::size_t scheduled = 0;
  for (int i = 0; i < 5000; ++i) {
    q.schedule(static_cast<Time>(rng.below(1'000'000)), &checker, 0);
    ++scheduled;
  }
  q.run_until(2'000'000);
  EXPECT_EQ(checker.fired, scheduled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderP,
                         ::testing::Values(7, 8, 9, 10));

// --- Merge order of heap events, fixed-delay lanes and lazy timers ------

constexpr std::uint32_t kHeapTag = 0;
constexpr std::uint32_t kLaneTag = 100;   // + lane index
constexpr std::uint32_t kTimerTag = 200;  // + timer index
constexpr Time kLaneDelays[] = {0, 3, 11};
constexpr std::size_t kNumLanes = std::size(kLaneDelays);
constexpr std::size_t kNumTimers = 3;
// Offsets stay this small so times collide across all three sources.
constexpr std::uint64_t kSpread = 40;

using FireFn = std::function<void(std::uint32_t, std::uint64_t)>;

struct Fired {
  Time at;
  std::uint32_t tag;
  std::uint64_t arg;
  bool operator==(const Fired&) const = default;
};

// The queue under test: heap events, lanes and LazyTimers.
class LazyModel : public EventHandler {
 public:
  explicit LazyModel(FireFn fire) : fire_(std::move(fire)) {
    for (const Time d : kLaneDelays) lanes_.push_back(&q_.lane(d));
    for (std::size_t i = 0; i < kNumTimers; ++i) {
      timers_.push_back(std::make_unique<LazyTimer>(
          q_, this, kTimerTag + static_cast<std::uint32_t>(i)));
    }
  }
  void on_event(std::uint32_t tag, std::uint64_t arg) override {
    fire_(tag, arg);
  }
  Time now() const { return q_.now(); }
  void schedule(Time at, std::uint64_t arg) {
    q_.schedule(at, this, kHeapTag, arg);
  }
  void lane_schedule(std::size_t i, std::uint64_t arg) {
    lanes_[i]->schedule(this, kLaneTag + static_cast<std::uint32_t>(i), arg);
  }
  void arm(std::size_t i, Time at) { timers_[i]->arm(at); }
  void cancel(std::size_t i) { timers_[i]->cancel(); }
  void run_until(Time h) { q_.run_until(h); }
  bool step() { return q_.step(); }
  std::size_t pending() const { return q_.pending(); }
  bool empty() const { return q_.empty(); }
  std::size_t peak_pending() const { return q_.peak_pending(); }

 private:
  FireFn fire_;
  EventQueue q_;
  std::vector<EventQueue::Lane*> lanes_;
  std::vector<std::unique_ptr<LazyTimer>> timers_;
};

// The reference: the single-heap semantics the queue had before lanes
// and lazy timers. Every lane event and every timer arm goes eagerly
// onto one std::priority_queue ordered by (time, seq), and timers ignore
// superseded arms by generation.
class EagerModel {
 public:
  explicit EagerModel(FireFn fire) : fire_(std::move(fire)) {}
  Time now() const { return now_; }
  void schedule(Time at, std::uint64_t arg) {
    push(at, kHeapTag, arg, 0);
    ++plain_;
  }
  void lane_schedule(std::size_t i, std::uint64_t arg) {
    push(now_ + kLaneDelays[i], kLaneTag + static_cast<std::uint32_t>(i),
         arg, 0);
    ++plain_;
  }
  void arm(std::size_t i, Time at) {
    armed_[i] = true;
    push(at, kTimerTag + static_cast<std::uint32_t>(i), 0, ++gen_[i]);
  }
  void cancel(std::size_t i) {
    armed_[i] = false;
    ++gen_[i];
  }
  void run_until(Time h) {
    while (!heap_.empty() && heap_.top().at <= h) step();
    now_ = h;
  }
  bool step() {
    if (heap_.empty()) return false;
    const Ev ev = heap_.top();
    heap_.pop();
    now_ = ev.at;
    if (ev.tag >= kTimerTag) {
      const std::size_t i = ev.tag - kTimerTag;
      if (ev.gen != gen_[i] || !armed_[i]) return true;  // stale arm
      armed_[i] = false;
    } else {
      --plain_;
    }
    fire_(ev.tag, ev.arg);
    return true;
  }
  std::size_t pending() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  // Entries that will still reach a handler: every heap or lane event
  // and the current arm of each armed timer.
  std::size_t live() const {
    return plain_ + static_cast<std::size_t>(
                        std::count(armed_, armed_ + kNumTimers, true));
  }

 private:
  struct Ev {
    Time at;
    std::uint64_t seq;
    std::uint32_t tag;
    std::uint64_t arg;
    std::uint64_t gen;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  void push(Time at, std::uint32_t tag, std::uint64_t arg,
            std::uint64_t gen) {
    FT_CHECK(at >= now_);
    heap_.push(Ev{at, seq_++, tag, arg, gen});
  }

  FireFn fire_;
  std::priority_queue<Ev, std::vector<Ev>, Later> heap_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t plain_ = 0;
  std::uint64_t gen_[kNumTimers] = {};
  bool armed_[kNumTimers] = {};
};

// Records firings and reacts to each with random schedules, lane
// events, timer arms (later or earlier than a queued one) and cancels,
// drawn from its own Rng: two scripts with one seed stay in lockstep as
// long as their queues fire identically.
template <class Model>
class Script {
 public:
  Script(std::uint64_t seed, bool timers)
      : rng_(seed),
        timers_(timers),
        model_([this](std::uint32_t tag, std::uint64_t arg) {
          fired_.push_back(Fired{model_.now(), tag, arg});
          for (std::uint64_t n = rng_.below(3); n > 0; --n) act();
        }) {}

  void act() {
    if (budget_ == 0) return;
    --budget_;
    const std::uint64_t kind = rng_.below(timers_ ? 10 : 7);
    if (kind < 3) {
      model_.schedule(model_.now() + static_cast<Time>(rng_.below(kSpread)),
                      next_id_++);
    } else if (kind < 7) {
      model_.lane_schedule(rng_.below(kNumLanes), next_id_++);
    } else {
      const std::size_t i = rng_.below(kNumTimers);
      if (rng_.below(4) == 0) {
        model_.cancel(i);
      } else {
        model_.arm(i, model_.now() + static_cast<Time>(rng_.below(kSpread)));
      }
    }
  }

  // Steps until a handler runs or the queue drains; true if one ran.
  bool step_visible() {
    const std::size_t before = fired_.size();
    while (fired_.size() == before && model_.step()) {
    }
    return fired_.size() > before;
  }

  Model& model() { return model_; }
  const std::vector<Fired>& fired() const { return fired_; }

 private:
  Rng rng_;
  bool timers_;
  std::uint64_t budget_ = 6000;
  std::uint64_t next_id_ = 1;
  std::vector<Fired> fired_;
  Model model_;
};

struct MergeCase {
  std::uint64_t seed;
  bool timers;
};

void PrintTo(const MergeCase& c, std::ostream* os) {
  *os << "seed " << c.seed << (c.timers ? " with timers" : " no timers");
}

class EventMergeP : public ::testing::TestWithParam<MergeCase> {};

TEST_P(EventMergeP, MatchesSingleHeapReference) {
  const MergeCase c = GetParam();
  Script<LazyModel> lazy(c.seed, c.timers);
  Script<EagerModel> eager(c.seed, c.timers);
  Rng outer(c.seed ^ 0xabcdefULL);  // choices between rounds
  const auto check = [&](int round) {
    const std::vector<Fired>& got = lazy.fired();
    const std::vector<Fired>& want = eager.fired();
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    ASSERT_TRUE(diff.first == got.end())
        << "firing " << (diff.first - got.begin()) << " differs, round "
        << round;
    ASSERT_EQ(lazy.model().now(), eager.model().now()) << "round " << round;
    const std::size_t p = lazy.model().pending();
    ASSERT_LE(p, lazy.model().peak_pending());
    if (!c.timers) {
      ASSERT_EQ(p, eager.model().pending()) << "round " << round;
      ASSERT_EQ(lazy.model().empty(), eager.model().empty());
    } else {
      // Lazy timers hold a subset of the eager arms (same time and rank)
      // that still covers every arm that will fire.
      ASSERT_LE(p, eager.model().pending()) << "round " << round;
      ASSERT_GE(p, eager.model().live()) << "round " << round;
      if (eager.model().empty()) {
        ASSERT_TRUE(lazy.model().empty());
      }
      ASSERT_EQ(lazy.model().empty(), p == 0);
    }
  };
  for (int round = 0; round < 4000; ++round) {
    for (std::uint64_t n = outer.below(4); n > 0; --n) {
      lazy.act();
      eager.act();
    }
    const std::uint64_t mode = outer.below(3);
    if (mode == 0) {
      const Time h =
          lazy.model().now() + static_cast<Time>(outer.below(kSpread));
      lazy.model().run_until(h);
      eager.model().run_until(h);
    } else if (!c.timers) {
      ASSERT_EQ(lazy.model().step(), eager.model().step()) << round;
    } else {
      ASSERT_EQ(lazy.step_visible(), eager.step_visible()) << round;
    }
    check(round);
    if (HasFatalFailure()) return;
  }
  lazy.model().run_until(kTimeNever - 1);
  eager.model().run_until(kTimeNever - 1);
  check(-1);
  EXPECT_TRUE(lazy.model().empty());
  EXPECT_FALSE(lazy.model().step());
  EXPECT_GT(lazy.fired().size(), 3000u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EventMergeP,
    ::testing::Values(MergeCase{1, false}, MergeCase{2, false},
                      MergeCase{3, true}, MergeCase{4, true},
                      MergeCase{5, true}, MergeCase{6, true}));

}  // namespace
}  // namespace ft::sim
