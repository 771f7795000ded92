#include "sim/event_queue.h"

namespace ft::sim {

void EventQueue::Lane::grow() {
  std::vector<Event> bigger(ring_.empty() ? 64 : 2 * ring_.size());
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

EventQueue::Lane& EventQueue::lane(Time delay) {
  FT_CHECK(delay >= 0);
  for (const auto& l : lanes_) {
    if (l->delay_ == delay) return *l;
  }
  lanes_.push_back(std::unique_ptr<Lane>(new Lane(*this, delay)));
  return *lanes_.back();
}

void EventQueue::push(Heap& heap, const Event& ev) {
  // Sift the hole up from the new leaf, then drop the event in.
  std::size_t i = heap.size();
  heap.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!ev.before(heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = ev;
  note_pending();
}

void EventQueue::pop(Heap& heap) {
  const Event last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n == 0) return;
  // Sift the hole down from the root along the smallest children, then
  // drop the former last leaf in.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap[c].before(heap[best])) best = c;
    }
    if (!heap[best].before(last)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = last;
}

const EventQueue::Event* EventQueue::peek(Source* from) {
  const Event* best = nullptr;
  for (Heap* heap : {&heap_, &timers_}) {
    if (!heap->empty() && (best == nullptr || heap->front().before(*best))) {
      best = &heap->front();
      *from = Source{heap, nullptr};
    }
  }
  for (const auto& l : lanes_) {
    if (l->size_ == 0) continue;
    const Event& head = l->front();
    if (best == nullptr || head.before(*best)) {
      best = &head;
      *from = Source{nullptr, l.get()};
    }
  }
  return best;
}

void EventQueue::fire(const Event* next, Source from) {
  const Event ev = *next;
  if (from.lane != nullptr) {
    from.lane->pop_front();
  } else {
    pop(*from.heap);
  }
  FT_CHECK(ev.at >= now_);
  now_ = ev.at;
  if (clock_ != nullptr) clock_->advance_to(now_);
  ++processed_;
  ev.handler->on_event(ev.tag, ev.arg);
}

void EventQueue::run_until(Time horizon) {
  for (;;) {
    Source from;
    const Event* next = peek(&from);
    if (next == nullptr || next->at > horizon) break;
    fire(next, from);
  }
  now_ = horizon;
  if (clock_ != nullptr) clock_->advance_to(now_);
}

bool EventQueue::step() {
  Source from;
  const Event* next = peek(&from);
  if (next == nullptr) return false;
  fire(next, from);
  return true;
}

void LazyTimer::arm(Time at) {
  FT_CHECK(at >= events_.now());
  armed_ = true;
  deadline_ = at;
  seq_ = events_.seq_++;
  // A queued entry due no later than `at` re-queues itself on popping.
  if (queued_ && queued_at_ <= at) return;
  enqueue(at, seq_);
}

void LazyTimer::enqueue(Time at, std::uint64_t seq) {
  queued_ = true;
  queued_at_ = at;
  queued_seq_ = seq;
  // The entry's arg is its seq, which tells the live entry from orphans.
  events_.push(events_.timers_, EventQueue::Event{at, seq, this, tag_, seq});
}

void LazyTimer::on_event(std::uint32_t, std::uint64_t arg) {
  if (!queued_ || arg != queued_seq_) return;  // orphaned by an earlier arm
  queued_ = false;
  if (!armed_) return;  // cancelled
  if (seq_ != queued_seq_) {
    // Re-armed later after this entry was queued: move to the recorded
    // deadline, keeping the rank that arm() took.
    enqueue(deadline_, seq_);
    return;
  }
  armed_ = false;
  handler_->on_event(tag_, 0);
}

}  // namespace ft::sim
