// Discrete-event scheduler core.
//
// Events are (time, handler, tag, arg) tuples with a strictly increasing
// sequence number as tie-breaker, so simulations are fully deterministic:
// events fire in (time, seq) order. No allocation per event: handlers
// dispatch on an integer tag and the queue stores small PODs in three
// kinds of place, all ranked by the same global sequence counter:
//
//  - a 4-ary min-heap for events at arbitrary times;
//  - fixed-delay lanes (`lane(d)`): every event on a lane is scheduled at
//    now() + d, so the lane is a FIFO already sorted by (time, seq) and
//    costs no heap operation. Link propagation and host delays use them;
//  - `LazyTimer` entries, in a second 4-ary heap: a timer keeps at most
//    one live entry however often it is re-armed. Timers are mostly
//    far-off retransmission deadlines, most of the pending entries but
//    few of the pops, so keeping them apart keeps the heap that every
//    serialization and pacing event goes through shallow.
//
// Pops take the earliest of the two heap tops and the lane heads by
// (time, seq), so the firing order is exactly the one a single heap
// would give. Handlers that cannot use a LazyTimer still cancel by
// generation counting: schedule with a generation arg and ignore stale
// deliveries.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace ft::sim {

class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(std::uint32_t tag, std::uint64_t arg) = 0;
};

class EventQueue {
 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    EventHandler* handler;
    std::uint32_t tag;
    std::uint64_t arg;

    [[nodiscard]] bool before(const Event& o) const {
      return at < o.at || (at == o.at && seq < o.seq);
    }
  };

 public:
  // FIFO of events that all fire a fixed delay after they are scheduled.
  class Lane {
   public:
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    // Schedules `handler->on_event(tag, arg)` at now() plus the lane's
    // delay.
    void schedule(EventHandler* handler, std::uint32_t tag,
                  std::uint64_t arg = 0) {
      FT_CHECK(handler != nullptr);
      if (size_ == ring_.size()) grow();
      ring_[(head_ + size_) & (ring_.size() - 1)] =
          Event{q_.now_ + delay_, q_.seq_++, handler, tag, arg};
      ++size_;
      ++q_.lane_events_;
      q_.note_pending();
    }

   private:
    friend class EventQueue;

    Lane(EventQueue& q, Time delay) : q_(q), delay_(delay) {}
    [[nodiscard]] const Event& front() const { return ring_[head_]; }
    void pop_front() {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
      --q_.lane_events_;
    }
    void grow();

    EventQueue& q_;
    Time delay_;
    std::vector<Event> ring_;  // power-of-two capacity
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void schedule(Time at, EventHandler* handler, std::uint32_t tag,
                std::uint64_t arg = 0) {
    FT_CHECK(at >= now_);
    FT_CHECK(handler != nullptr);
    push(heap_, Event{at, seq_++, handler, tag, arg});
  }

  // The lane for `delay` (created on first use). References stay valid
  // for the queue's lifetime.
  [[nodiscard]] Lane& lane(Time delay);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] bool empty() const { return pending() == 0; }
  // Queued entries: heap events, LazyTimer entries and lane events.
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + timers_.size() + lane_events_;
  }
  // High-water mark of pending().
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }
  // Entries popped so far, including LazyTimer entries that only
  // re-queued themselves or were superseded.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  // Mirrors queue time onto `clock` (advanced before each dispatch and
  // at run_until horizons), so components reading a ft::Clock see
  // virtual time move as events fire. Null detaches.
  void bind_clock(VirtualClock* clock) {
    clock_ = clock;
    if (clock_ != nullptr) clock_->advance_to(now_);
  }

  // Runs events with time <= horizon; leaves now() == horizon.
  void run_until(Time horizon);

  // Runs a single event if any exists; returns false when drained.
  bool step();

 private:
  friend class LazyTimer;

  using Heap = std::vector<Event>;
  // Where an event sits: a lane, or else a heap's top.
  struct Source {
    Heap* heap = nullptr;
    Lane* lane = nullptr;
  };

  static constexpr std::size_t kArity = 4;

  void push(Heap& heap, const Event& ev);
  static void pop(Heap& heap);
  void note_pending() {
    if (pending() > peak_pending_) peak_pending_ = pending();
  }
  // The earliest pending event and its source, or null when drained.
  [[nodiscard]] const Event* peek(Source* from);
  // Pops `next` (the result of peek) and dispatches it.
  void fire(const Event* next, Source from);

  Heap heap_;
  Heap timers_;  // LazyTimer entries
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::size_t lane_events_ = 0;
  std::size_t peak_pending_ = 0;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  VirtualClock* clock_ = nullptr;
};

// A one-shot timer that can be re-armed and cancelled cheaply: it keeps
// at most one live queue entry, however often it is re-armed.
//
//  - arm(t) takes the next sequence number, exactly as schedule() would.
//  - Arming at or after the queued entry's time only records (t, seq);
//    when the queued entry comes due it re-queues itself at t with that
//    recorded seq.
//  - Arming earlier queues a new entry and orphans the old one, which is
//    ignored when it pops.
//  - cancel() clears the deadline; the queued entry then pops silently.
//
// The timer therefore fires at exactly the (time, seq) rank an eagerly
// scheduled event from the last arm() would have had, and the callback
// `handler->on_event(tag, 0)` runs in the same global order.
class LazyTimer final : public EventHandler {
 public:
  LazyTimer(EventQueue& events, EventHandler* handler, std::uint32_t tag)
      : events_(events), handler_(handler), tag_(tag) {
    FT_CHECK(handler_ != nullptr);
  }
  LazyTimer(const LazyTimer&) = delete;
  LazyTimer& operator=(const LazyTimer&) = delete;

  void arm(Time at);
  void cancel() { armed_ = false; }
  [[nodiscard]] bool armed() const { return armed_; }

  void on_event(std::uint32_t tag, std::uint64_t arg) override;

 private:
  void enqueue(Time at, std::uint64_t seq);

  EventQueue& events_;
  EventHandler* handler_;
  std::uint32_t tag_;
  // The armed deadline and the rank taken by the arm() that set it.
  bool armed_ = false;
  Time deadline_ = 0;
  std::uint64_t seq_ = 0;
  // The live queue entry, if any.
  bool queued_ = false;
  Time queued_at_ = 0;
  std::uint64_t queued_seq_ = 0;
};

}  // namespace ft::sim
