#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/ratecode.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ft::core {

// Registry handles resolved once at construction; every hot-path
// recording below is a relaxed striped-atomic touch (no lock, no heap).
struct Allocator::Metrics {
  obs::Counter& flowlet_starts;
  obs::Counter& flowlet_ends;
  obs::Counter& iterations;
  obs::Counter& updates_emitted;
  obs::Counter& updates_suppressed;
  obs::Counter& updates_refreshed;
  obs::LatencyHisto& solve_us;  // backend solve + normalize per round
  obs::LatencyHisto& emit_us;   // thresholded emission sweep per round

  explicit Metrics(obs::MetricsRegistry& reg)
      : flowlet_starts(reg.counter("core.flowlet_starts")),
        flowlet_ends(reg.counter("core.flowlet_ends")),
        iterations(reg.counter("core.iterations")),
        updates_emitted(reg.counter("core.updates_emitted")),
        updates_suppressed(reg.counter("core.updates_suppressed")),
        updates_refreshed(reg.counter("core.updates_refreshed")),
        solve_us(reg.histo("core.solve_us")),
        emit_us(reg.histo("core.emit_us")) {}
};

Allocator::Allocator(std::vector<double> link_capacities_bps,
                     AllocatorConfig cfg)
    : Allocator(std::move(link_capacities_bps), cfg,
                sequential_backend()) {}

Allocator::Allocator(std::vector<double> link_capacities_bps,
                     AllocatorConfig cfg, BackendFactory backend)
    : cfg_(cfg), problem_(std::move(link_capacities_bps)) {
  FT_CHECK(cfg.threshold >= 0.0 && cfg.threshold < 1.0);
  FT_CHECK(cfg.iters_per_round >= 1);
  if (cfg_.reserve_headroom && cfg_.threshold > 0.0) {
    problem_.scale_capacities(1.0 - cfg_.threshold);
  }
  backend_ = backend(problem_, cfg_.gamma, cfg_.norm);
  FT_CHECK(backend_ != nullptr);
  if (cfg_.metrics != nullptr) {
    metrics_ = cfg_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_ = std::make_unique<Metrics>(*metrics_);
  backend_->bind_metrics(*metrics_);
  ranges_.resize(backend_->sweep_ranges());
}

Allocator::~Allocator() = default;

AllocatorStats Allocator::stats() const {
  AllocatorStats s;
  s.flowlet_starts = m_->flowlet_starts.value();
  s.flowlet_ends = m_->flowlet_ends.value();
  s.iterations = m_->iterations.value();
  s.updates_emitted = m_->updates_emitted.value();
  s.updates_suppressed = m_->updates_suppressed.value();
  s.updates_refreshed = m_->updates_refreshed.value();
  return s;
}

void Allocator::reserve(std::size_t flows) {
  problem_.reserve(flows);
  key_to_slot_.reserve(flows);
  slot_to_key_.reserve(flows);
  last_notified_.reserve(flows);
  emit_sel_.reserve(flows);
  backend_->reserve(flows);
  // A range holds at most ceil(slots / ranges) slots; range 0 sweeps
  // into the round's `out`.
  for (std::size_t r = 1; r < ranges_.size(); ++r) {
    ranges_[r].out.reserve((flows + ranges_.size() - 1) / ranges_.size());
  }
}

bool Allocator::flowlet_start(std::uint64_t key,
                              std::span<const LinkId> route) {
  return flowlet_start(key, route, cfg_.default_util);
}

bool Allocator::flowlet_start(std::uint64_t key,
                              std::span<const LinkId> route, Utility util) {
  if (key_to_slot_.contains(key)) return false;
  const FlowIndex slot = problem_.add_flow(route, util);
  backend_->flow_added(slot);
  key_to_slot_.emplace(key, slot);
  if (slot >= slot_to_key_.size()) {
    // Churn spike: grow geometrically in one step so repeated starts
    // within a round do not reallocate again and again.
    const std::size_t want = slot + 1;
    if (want > slot_to_key_.capacity()) {
      const std::size_t cap =
          std::max<std::size_t>(want, slot_to_key_.capacity() * 2);
      slot_to_key_.reserve(cap);
      last_notified_.reserve(cap);
      emit_sel_.reserve(cap);
    }
    slot_to_key_.resize(want, 0);
    last_notified_.resize(want, -1.0);
    emit_sel_.resize(want, 0);
  }
  slot_to_key_[slot] = key;
  last_notified_[slot] = -1.0;
  m_->flowlet_starts.add(1);
  return true;
}

void Allocator::set_link_capacity(std::size_t link, double capacity_bps) {
  FT_CHECK(capacity_bps > 0.0);
  if (cfg_.reserve_headroom && cfg_.threshold > 0.0) {
    capacity_bps *= 1.0 - cfg_.threshold;
  }
  problem_.set_capacity(link, capacity_bps);
}

bool Allocator::flowlet_end(std::uint64_t key) {
  const FlowIndex* slot = key_to_slot_.find(key);
  if (slot == nullptr) return false;
  backend_->flow_removed(*slot);
  problem_.remove_flow(*slot);
  last_notified_[*slot] = -1.0;
  key_to_slot_.erase(key);
  m_->flowlet_ends.add(1);
  return true;
}

void Allocator::run_iteration(std::vector<RateUpdate>& out) {
  // One clock for the round: obs::now_ns (CLOCK_MONOTONIC_RAW), so the
  // stamps exposed via last_round_stamps() difference cleanly against
  // the service's trace hop stamps. Histograms keep microseconds.
  const std::int64_t t0 = obs::now_ns();
  ++round_seq_;
  // One up-front re-reserve, on this thread, covers every update of the
  // round, so neither range 0's sweep nor the merge reallocates `out`;
  // with a recycled `out` this is a steady-state no-op.
  out.reserve(out.size() + problem_.num_active());
  round_out_ = &out;
  round_thread_ = std::this_thread::get_id();
  backend_->solve(cfg_.iters_per_round, *this);
  const std::int64_t t1 = obs::now_ns();

  // Merge: range 0 swept straight into `out`; the later ranges' buffers
  // append in range order.
  std::size_t emitted = 0;
  std::uint64_t refreshed = 0;
  std::int64_t solve_end = t0;
  std::int64_t caller_sweep_ns = 0;  // sweeping done on this thread
  for (const RangeSweep& r : ranges_) {
    emitted += r.emitted;
    refreshed += r.refreshed;
    solve_end = std::max(solve_end, r.solve_done_ns);
    if (r.on_caller) caller_sweep_ns += r.sweep_ns;
  }
  for (std::size_t r = 1; r < ranges_.size(); ++r) {
    out.insert(out.end(), ranges_[r].out.begin(), ranges_[r].out.end());
  }
  round_out_ = nullptr;
  const std::int64_t t2 = obs::now_ns();

  // This thread's solve and emission time: a sweep that ran here counts
  // as emission, one that ran on a worker as part of the solve it
  // waited for.
  const std::int64_t split = t1 - caller_sweep_ns;
  m_->solve_us.record_signed((split - t0) / 1000);
  m_->emit_us.record_signed((t2 - split) / 1000);
  m_->iterations.add(1);
  // Per-update counts hit the striped counters once per round: the
  // 100k-flow emission sweep stays atomics-free.
  m_->updates_emitted.add(emitted);
  m_->updates_suppressed.add(problem_.num_active() - emitted);
  m_->updates_refreshed.add(refreshed);
  stamps_.solve_start_ns = t0;
  stamps_.solve_end_ns = solve_end;
  stamps_.emit_end_ns = t2;
  if (obs::PhaseTracer::enabled()) {
    obs::PhaseTracer::record("core.solve", t0 / 1000, (split - t0) / 1000);
    obs::PhaseTracer::record("core.emit", split / 1000, (t2 - split) / 1000);
  }
}

void Allocator::sweep(std::size_t range, std::size_t lo, std::size_t hi,
                      std::span<const double> norm_rates) {
  RangeSweep& r = ranges_[range];
  r.solve_done_ns = obs::now_ns();
  FT_CHECK(norm_rates.size() >= hi && emit_sel_.size() >= hi);
  std::vector<RateUpdate>& out = range == 0 ? *round_out_ : r.out;
  if (range != 0) {
    // A range buffer holds at most the range's slots. That bound moves
    // only with the slot count, so steady rounds reserve nothing, and
    // churn that recycles slots never grows the buffer on a worker.
    r.out.clear();
    r.out.reserve(hi - lo);
  }
  std::tie(r.emitted, r.refreshed) =
      emit_range(lo, hi, norm_rates.data(), out);
  r.sweep_ns = obs::now_ns() - r.solve_done_ns;
  r.on_caller = std::this_thread::get_id() == round_thread_;
}

std::pair<std::size_t, std::uint64_t> Allocator::emit_range(
    std::size_t lo, std::size_t hi, const double* rate,
    std::vector<RateUpdate>& out) {
  const double* last = last_notified_.data();
  const std::uint8_t* len = problem_.route_len().data();
  // Notify when the rate moved by more than the threshold relative to
  // the last notified value (both directions), or on first allocation
  // (last < 0). Bitwise ops, not ||: the sweep stays branch-free.
  const double up = 1.0 + cfg_.threshold;
  const double down = 1.0 - cfg_.threshold;
  const auto organic = [rate, last, up, down](std::size_t s) {
    return (last[s] < 0.0) | (rate[s] > last[s] * up) |
           (rate[s] < last[s] * down);
  };
  // Pass 1 selects the slots to notify, in slot order, into emit_sel_
  // from index lo: each slot's index is written unconditionally and
  // kept by advancing the cursor by the predicate. Free slots hold
  // last < 0, so the route-length mask is what keeps them out.
  //
  // Anti-entropy: slot s's staggered turn to be re-emitted past the
  // filter comes on rounds where (round + s) % N == 0 (see
  // AllocatorConfig::refresh_rounds), so this round's turns are the
  // progression s = (N - round % N) % N, +N, ...; the range's first is
  // the first of them at or past lo. The plain stretches between turns
  // run the organic test alone.
  const auto refresh_n = static_cast<std::size_t>(
      cfg_.refresh_rounds > 0 ? cfg_.refresh_rounds : 0);
  std::size_t turn = hi;
  if (refresh_n != 0) {
    turn = (refresh_n - round_seq_ % refresh_n) % refresh_n;
    if (turn < lo) turn += (lo - turn + refresh_n - 1) / refresh_n * refresh_n;
  }
  std::uint32_t* sel = emit_sel_.data() + lo;
  std::size_t n = 0;
  std::uint64_t refreshed = 0;
  std::size_t s = lo;
  while (true) {
    for (const std::size_t stop = std::min(turn, hi); s < stop; ++s) {
      sel[n] = static_cast<std::uint32_t>(s);
      n += organic(s) & (len[s] != 0);
    }
    if (s == hi) break;
    // s == turn: every active slot goes out; count the ones the filter
    // alone would have suppressed.
    const bool active = len[s] != 0;
    refreshed += active & !organic(s);
    sel[n] = static_cast<std::uint32_t>(s);
    n += active;
    ++s;
    turn += refresh_n;
  }
  // Pass 2 encodes the selected slots. `out` already has room for them
  // (run_iteration sizes the round's `out` for every active flow, sweep
  // a range buffer for its range), so the loop never reallocates.
  const std::uint64_t* key = slot_to_key_.data();
  double* notified = last_notified_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = sel[i];
    RateUpdate u;
    u.key = key[slot];
    u.rate_code = encode_rate(rate[slot]);
    u.rate_bps = decode_rate(u.rate_code);
    out.push_back(u);
    notified[slot] = u.rate_bps;
  }
  return {n, refreshed};
}

void Allocator::invalidate_notification(std::uint64_t key) {
  const FlowIndex* slot = key_to_slot_.find(key);
  if (slot == nullptr) return;
  last_notified_[*slot] = -1.0;
}

double Allocator::notified_rate(std::uint64_t key) const {
  const FlowIndex* slot = key_to_slot_.find(key);
  if (slot == nullptr) return 0.0;
  const double r = last_notified_[*slot];
  return r < 0.0 ? 0.0 : r;
}

double Allocator::allocated_rate(std::uint64_t key) const {
  const FlowIndex* slot = key_to_slot_.find(key);
  if (slot == nullptr) return 0.0;
  const std::span<const double> norm_rates = backend_->norm_rates();
  if (*slot >= norm_rates.size()) return 0.0;
  return norm_rates[*slot];
}

}  // namespace ft::core
