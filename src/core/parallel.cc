#include "core/parallel.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "core/backend.h"
#include "obs/metrics.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define FT_HAVE_RDTSC 1
#endif

namespace ft::core {
namespace {

std::uint64_t read_cycles() {
#ifdef FT_HAVE_RDTSC
  return __rdtsc();
#else
  return 0;
#endif
}

std::int32_t pick_threads(std::int32_t requested, std::int32_t workers) {
  if (requested > 0) return std::min(requested, workers);
  const auto hw = static_cast<std::int32_t>(
      std::thread::hardware_concurrency());
  return std::max(1, std::min(hw > 0 ? hw : 1, workers));
}

}  // namespace

ParallelNed::ParallelNed(NumProblem& problem,
                         const topo::BlockPartition& partition,
                         ParallelConfig cfg)
    : problem_(problem),
      part_(partition),
      cfg_(cfg),
      n_(partition.num_blocks),
      num_workers_(n_ * n_),
      // More threads than rows is the common pick_threads outcome on big
      // machines: size the layout to whichever is larger so every thread
      // can land on its own CPU instead of piling onto the row CPUs.
      num_threads_(pick_threads(cfg.num_threads, num_workers_)),
      cpu_map_(CpuMap::make(std::max(n_, num_threads_), cfg.pin)),
      workers_(static_cast<std::size_t>(num_workers_)),
      link_pos_(problem.num_links(), 0),
      global_price_(problem.num_links(), 1.0),
      global_alloc_(problem.num_links(), 0.0),
      capacity_version_(problem.capacity_version()),
      start_barrier_(num_threads_ + 1),
      end_barrier_(num_threads_ + 1),
      phase_barrier_(num_threads_) {
  FT_CHECK(cfg.num_blocks == partition.num_blocks);
  // Each link's index inside its LinkBlock: a worker's local index for
  // it is that, offset by down_off for downward links.
  std::size_t max_up = 0;
  std::size_t max_down = 0;
  for (std::int32_t b = 0; b < n_; ++b) {
    for (const bool upward : {true, false}) {
      const std::span<const LinkId> links = block_links(upward, b);
      for (std::size_t i = 0; i < links.size(); ++i) {
        link_pos_[links[i].value()] = static_cast<std::uint32_t>(i);
      }
      std::size_t& max_n = upward ? max_up : max_down;
      max_n = std::max(max_n, links.size());
    }
  }
  // Band-local routes hold local link indices as uint16_t.
  FT_CHECK(max_up + max_down <= std::size_t{UINT16_MAX} + 1);
  for (std::int32_t wi = 0; wi < num_workers_; ++wi) {
    WorkerState& w = workers_[static_cast<std::size_t>(wi)];
    const std::size_t up_n = block_links(true, wi / n_).size();
    const std::size_t local = up_n + block_links(false, wi % n_).size();
    w.down_off = static_cast<std::uint32_t>(up_n);
    w.price.assign(local, 1.0);
    w.alloc.assign(local, 0.0);
    w.dxdp.assign(local, 0.0);
    w.ratio.assign(local, 0.0);
  }
  last_band_ns_.assign(static_cast<std::size_t>(num_threads_), 0);
  band_begin_.resize(static_cast<std::size_t>(num_threads_) + 1);
  for (std::int32_t t = 0; t <= num_threads_; ++t) {
    band_begin_[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(static_cast<std::int64_t>(t) *
                                  num_workers_ / num_threads_);
  }
  const auto thread_of = [this](std::int32_t worker) {
    return std::upper_bound(band_begin_.begin(), band_begin_.end(),
                            worker) -
           band_begin_.begin() - 1;
  };
  // The Figure 3 schedule as local ranges. An upward LinkBlock sits at
  // offset 0 in every worker of its row; a downward one at each worker's
  // own down_off.
  for (const auto& transfers :
       topo::AggregationSchedule::make(n_).steps) {
    Step& step = steps_.emplace_back();
    for (const topo::Transfer& tr : transfers) {
      step.moves.push_back(Move{
          tr.src_worker, tr.dst_worker,
          tr.upward ? 0u
                    : workers_[static_cast<std::size_t>(tr.src_worker)]
                          .down_off,
          tr.upward ? 0u
                    : workers_[static_cast<std::size_t>(tr.dst_worker)]
                          .down_off,
          static_cast<std::uint32_t>(
              block_links(tr.upward, tr.block).size())});
      step.crosses = step.crosses ||
                     thread_of(tr.src_worker) != thread_of(tr.dst_worker);
    }
  }
  threads_.reserve(static_cast<std::size_t>(num_threads_));
  for (std::int32_t t = 0; t < num_threads_; ++t) {
    threads_.emplace_back([this, t] { thread_main(t); });
  }
}

ParallelNed::~ParallelNed() {
  stop_.store(true, std::memory_order_release);
  start_barrier_.arrive_and_wait();
  // jthread joins on destruction.
}

std::int32_t ParallelNed::barriers_per_iter() const {
  const auto crossing = std::count_if(
      steps_.begin(), steps_.end(), [](const Step& s) { return s.crosses; });
  // Start, churn, gather and end, plus one per crossing step each way.
  return 4 + 2 * static_cast<std::int32_t>(crossing);
}

void ParallelNed::reserve(std::size_t slots) {
  slot_.reserve(slots);
  flow_pos_.reserve(slots);
  removes_.reserve(slots);
  adds_.reserve(slots);
}

void ParallelNed::assign_flow(FlowIndex slot, std::int32_t src_block,
                              std::int32_t dst_block) {
  FT_CHECK(src_block >= 0 && src_block < n_);
  FT_CHECK(dst_block >= 0 && dst_block < n_);
  FT_CHECK(problem_.flow(slot).active());
  if (slot_.size() <= slot) {
    slot_.resize(slot + 1);
    flow_pos_.resize(slot + 1, 0);
  }
  SlotState& st = slot_[slot];
  FT_CHECK(st.worker == -1);
  st.worker = src_block * n_ + dst_block;
  st.add_pos = static_cast<std::uint32_t>(adds_.size());
  adds_.push_back(slot);
}

void ParallelNed::unassign_flow(FlowIndex slot) {
  FT_CHECK(slot < slot_.size());
  SlotState& st = slot_[slot];
  FT_CHECK(st.worker >= 0);
  const std::uint32_t ai = st.add_pos;
  if (ai == kNotPending) {
    removes_.push_back(Pending{slot, st.worker});
  } else {
    // Started since the last iterate(): the start and end cancel.
    adds_[ai] = adds_.back();
    slot_[adds_[ai]].add_pos = ai;
    adds_.pop_back();
  }
  st = SlotState{};
}

void ParallelNed::remove_from_band(const Pending& r) {
  WorkerState& w = workers_[static_cast<std::size_t>(r.worker)];
  const std::uint32_t pos = flow_pos_[r.slot];
  FT_CHECK(pos < w.flows.size() && w.flows[pos] == r.slot);
  // Swap-remove across every flow array, fixing the moved slot's
  // position index.
  const std::size_t last = w.flows.size() - 1;
  const auto swap_pop = [pos, last](auto& v) {
    v[pos] = v[last];
    v.pop_back();
  };
  std::copy_n(w.route.begin() + static_cast<std::ptrdiff_t>(
                                    last * kMaxRouteLinks),
              kMaxRouteLinks,
              w.route.begin() + static_cast<std::ptrdiff_t>(
                                    pos * kMaxRouteLinks));
  w.route.resize(last * kMaxRouteLinks);
  swap_pop(w.flows);
  swap_pop(w.route_len);
  swap_pop(w.weight);
  swap_pop(w.alpha);
  swap_pop(w.floor);
  // Every iteration rewrites x, and every normalizing one norm, before
  // they are read.
  w.x.pop_back();
  w.norm.pop_back();
  if (pos < last) flow_pos_[w.flows[pos]] = pos;
}

void ParallelNed::add_to_band(FlowIndex slot) {
  const std::int32_t wi = slot_[slot].worker;
  const std::int32_t src_block = wi / n_;
  const std::int32_t dst_block = wi % n_;
  WorkerState& w = workers_[static_cast<std::size_t>(wi)];
  // Validate the partition property -- up links in the src block, down
  // links in the dst block (Figure 2) -- while translating the route to
  // the worker's local link indices.
  const std::span<const std::uint32_t> route = problem_.flow(slot).route();
  std::array<std::uint16_t, kMaxRouteLinks> local{};
  for (std::size_t i = 0; i < route.size(); ++i) {
    const std::uint32_t l = route[i];
    const topo::LinkClass& cls = part_.link_class[l];
    if (cls.dir == topo::LinkDir::kUp) {
      FT_CHECK(cls.block == src_block);
      local[i] = static_cast<std::uint16_t>(link_pos_[l]);
    } else if (cls.dir == topo::LinkDir::kDown) {
      FT_CHECK(cls.block == dst_block);
      local[i] = static_cast<std::uint16_t>(w.down_off + link_pos_[l]);
    } else {
      FT_CHECK(false);  // flows must not traverse unpartitioned links
    }
  }
  flow_pos_[slot] = static_cast<std::uint32_t>(w.flows.size());
  slot_[slot].add_pos = kNotPending;
  w.flows.push_back(slot);
  w.route.insert(w.route.end(), local.begin(), local.end());
  w.route_len.push_back(static_cast<std::uint8_t>(route.size()));
  w.weight.push_back(problem_.weight()[slot]);
  w.alpha.push_back(problem_.alpha()[slot]);
  w.floor.push_back(problem_.price_floor()[slot]);
  w.x.push_back(0.0);
  w.norm.push_back(0.0);
}

void ParallelNed::rate_update(WorkerState& w) {
  std::fill(w.alloc.begin(), w.alloc.end(), 0.0);
  std::fill(w.dxdp.begin(), w.dxdp.end(), 0.0);
  // The sequential solver's sweep over the worker's own contiguous
  // arrays.
  const std::size_t nf = w.flows.size();
  const std::uint16_t* r = w.route.data();
  const std::uint8_t* len = w.route_len.data();
  const double* weight = w.weight.data();
  const double* alpha = w.alpha.data();
  const double* floor = w.floor.data();
  const double* price = w.price.data();
  double* alloc = w.alloc.data();
  double* dxdp = w.dxdp.data();
  double* rate = w.x.data();
  for (std::size_t i = 0; i < nf; ++i, r += kMaxRouteLinks) {
    const std::uint32_t nl = len[i];
    double price_sum = 0.0;
    for (std::uint32_t k = 0; k < nl; ++k) price_sum += price[r[k]];
    double x, dx;
    flow_demand(weight[i], alpha[i], floor[i], price_sum, x, dx);
    rate[i] = x;
    for (std::uint32_t k = 0; k < nl; ++k) {
      alloc[r[k]] += x;
      dxdp[r[k]] += dx;
    }
  }
}

void ParallelNed::price_update_owned(std::int32_t worker) {
  const std::int32_t row = worker / n_;
  const std::int32_t col = worker % n_;
  WorkerState& w = workers_[static_cast<std::size_t>(worker)];
  // Identical update rule to NedSolver::iterate (see ned.cc); `i` is the
  // link's local index, `link` its global one.
  const auto update = [&](std::size_t i, LinkId link) {
    const std::size_t l = link.value();
    const double h = w.dxdp[i];
    const double cap = problem_.capacity(l);
    if (h < 0.0) {
      const double g = w.alloc[i] - cap;
      w.price[i] = std::max(0.0, w.price[i] - cfg_.gamma * g / h);
    }
    w.ratio[i] = w.alloc[i] / cap;
    global_price_[l] = w.price[i];
    global_alloc_[l] = w.alloc[i];
  };
  if (row == col) {  // upward owner of block `row`
    const std::span<const LinkId> links = block_links(true, row);
    for (std::size_t i = 0; i < links.size(); ++i) update(i, links[i]);
  }
  if (row == n_ - 1 - col) {  // downward owner of block `col`
    const std::span<const LinkId> links = block_links(false, col);
    for (std::size_t i = 0; i < links.size(); ++i) {
      update(w.down_off + i, links[i]);
    }
  }
}

void ParallelNed::normalize_band(WorkerState& w) {
  // F-NORM using the distributed ratios, in band order.
  const std::size_t nf = w.flows.size();
  const std::uint16_t* r = w.route.data();
  const std::uint8_t* len = w.route_len.data();
  const double* ratio = w.ratio.data();
  const double* x = w.x.data();
  double* norm = w.norm.data();
  for (std::size_t i = 0; i < nf; ++i, r += kMaxRouteLinks) {
    const std::uint32_t nl = len[i];
    double m = 0.0;
    for (std::uint32_t k = 0; k < nl; ++k) m = std::max(m, ratio[r[k]]);
    norm[i] = m > 0.0 ? x[i] / m : x[i];
  }
}

void ParallelNed::gather(std::size_t lo, std::size_t hi,
                         std::vector<double> WorkerState::*from,
                         std::vector<double>& to) const {
  const SlotState* st = slot_.data();
  const std::uint32_t* pos = flow_pos_.data();
  double* out = to.data();
  for (std::size_t s = lo; s < hi; ++s) {
    const std::int32_t wi = st[s].worker;
    out[s] = wi < 0 ? 0.0  // free slot
                    : (workers_[static_cast<std::size_t>(wi)].*from)[pos[s]];
  }
}

std::span<const double> ParallelNed::rates() {
  if (rates_stale_) {
    // The bands still hold the last iteration's rates, at the positions
    // the slot index arrays name until the next churn is recorded.
    FT_CHECK(removes_.empty() && adds_.empty());
    rates_.resize(norm_rates_.size());
    gather(0, rates_.size(), &WorkerState::x, rates_);
    rates_stale_ = false;
  }
  return rates_;
}

void ParallelNed::run_phases(std::int32_t t) {
  // Contiguous band: thread t owns [band_lo, band_hi) -- whole grid rows
  // when num_threads == n, matching the row pinning.
  const std::int32_t band_lo = band_begin_[static_cast<std::size_t>(t)];
  const std::int32_t band_hi =
      band_begin_[static_cast<std::size_t>(t) + 1];
  const auto my_worker = [band_lo, band_hi](std::int32_t w) {
    return w >= band_lo && w < band_hi;
  };
  const auto band = std::span<WorkerState>(workers_).subspan(
      static_cast<std::size_t>(band_lo),
      static_cast<std::size_t>(band_hi - band_lo));

  // Band timing is always on (obs::now_ns, two reads per barrier --
  // tens of ns against a multi-us phase): the flight recorder wants
  // last_band_max_us() per round even when no registry is bound. Wait
  // time accumulates locally and is recorded once per iteration, so the
  // record cost does not scale with the barrier count.
  const std::int64_t t_begin = obs::now_ns();
  std::int64_t wait_ns = 0;
  const auto phase_wait = [&] {
    const std::int64_t w0 = obs::now_ns();
    phase_barrier_.arrive_and_wait();
    wait_ns += obs::now_ns() - w0;
  };

  // Churn recorded since the last iteration: this band's removals, then
  // its adds. A slot removed from one block may be re-added to another
  // (the free list recycles it), and the two touch its flow_pos_ entry.
  for (const Pending& r : removes_) {
    if (my_worker(r.worker)) remove_from_band(r);
  }
  if (!removes_.empty() && !adds_.empty()) phase_wait();
  for (const FlowIndex slot : adds_) {
    if (my_worker(slot_[slot].worker)) add_to_band(slot);
  }

  if (refresh_floors_) {
    // A capacity changed since the last iteration: re-read the demand
    // floors set_capacity refreshed.
    const double* floor = problem_.price_floor().data();
    for (WorkerState& w : band) {
      for (std::size_t i = 0; i < w.flows.size(); ++i) {
        w.floor[i] = floor[w.flows[i]];
      }
    }
  }

  // Rate update on private copies.
  for (WorkerState& w : band) rate_update(w);

  // Aggregation: receiver-side adds in schedule order. A step needs a
  // barrier only when it reads a sender another thread wrote.
  for (const Step& step : steps_) {
    if (step.crosses) phase_wait();
    for (const Move& m : step.moves) {
      if (!my_worker(m.dst)) continue;
      const WorkerState& src = workers_[static_cast<std::size_t>(m.src)];
      WorkerState& dst = workers_[static_cast<std::size_t>(m.dst)];
      for (std::uint32_t i = 0; i < m.len; ++i) {
        dst.alloc[m.dst_off + i] += src.alloc[m.src_off + i];
        dst.dxdp[m.dst_off + i] += src.dxdp[m.src_off + i];
      }
    }
  }

  // Price update + ratio computation at the owners. No barrier: every
  // add into an owner's sums ran on the owner's own thread.
  for (std::int32_t w = band_lo; w < band_hi; ++w) {
    price_update_owned(w);
  }

  // Distribution: reverse schedule, reversed transfer direction,
  // receiver-side copies (the receiver is the original sender).
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    if (it->crosses) phase_wait();
    for (const Move& m : it->moves) {
      if (!my_worker(m.src)) continue;
      const WorkerState& from = workers_[static_cast<std::size_t>(m.dst)];
      WorkerState& to = workers_[static_cast<std::size_t>(m.src)];
      std::copy_n(from.price.begin() + m.dst_off, m.len,
                  to.price.begin() + m.src_off);
      std::copy_n(from.ratio.begin() + m.dst_off, m.len,
                  to.ratio.begin() + m.src_off);
    }
  }

  // Rates leave the bands in slot order: each band normalizes its own
  // flows, then (once every band has) this thread gathers its slot
  // range and sweeps it.
  const bool normalize = norm_this_iter_;
  if (normalize) {
    for (WorkerState& w : band) normalize_band(w);
  }
  phase_wait();
  std::vector<double>& to = normalize ? norm_rates_ : rates_;
  const std::size_t slots = to.size();
  const auto threads = static_cast<std::size_t>(num_threads_);
  const auto tu = static_cast<std::size_t>(t);
  const std::size_t lo = slots * tu / threads;
  const std::size_t hi = slots * (tu + 1) / threads;
  gather(lo, hi, normalize ? &WorkerState::norm : &WorkerState::x, to);
  if (sweep_ != nullptr) sweep_->sweep(tu, lo, hi, to);

  const std::int64_t compute_ns = obs::now_ns() - t_begin - wait_ns;
  last_band_ns_[static_cast<std::size_t>(t)] = compute_ns;
  if (band_us_ != nullptr) {
    band_us_->record_signed(compute_ns / 1000);
    barrier_wait_us_->record_signed(wait_ns / 1000);
  }
}

double ParallelNed::last_band_max_us() const {
  std::int64_t max_ns = 0;
  for (const std::int64_t ns : last_band_ns_) {
    max_ns = std::max(max_ns, ns);
  }
  return static_cast<double>(max_ns) / 1000.0;
}

void ParallelNed::bind_metrics(obs::MetricsRegistry& reg) {
  // Resolve before publishing: worker threads only read these between
  // the start/end barriers, so a pre-iterate bind is race-free.
  barrier_wait_us_ = &reg.histo("core.par.barrier_wait_us");
  band_us_ = &reg.histo("core.par.band_us");
}

void ParallelNed::thread_main(std::int32_t t) {
  if (cpu_map_.enabled()) {
    // §6.1 block -> CPU mapping: with at most one thread per row, pin to
    // the CPU of the first grid row this thread's band covers. With more
    // threads than rows (several threads splitting a row), pin each
    // thread to its own layout slot -- row-major bands keep same-row
    // threads on adjacent CPUs without oversubscribing any core.
    const std::int32_t first_row =
        band_begin_[static_cast<std::size_t>(t)] / n_;
    const std::int32_t slot = num_threads_ <= n_ ? first_row : t;
    CpuMap::pin_current_thread(cpu_map_.cpu_for_row(slot));
  }
  while (true) {
    start_barrier_.arrive_and_wait();
    if (stop_.load(std::memory_order_acquire)) return;
    run_phases(t);
    end_barrier_.arrive_and_wait();
  }
}

void ParallelNed::iterate(bool compute_norm, SweepHook* sweep) {
  norm_this_iter_ = cfg_.compute_norm && compute_norm;
  sweep_ = sweep;
  const std::uint64_t capacity_version = problem_.capacity_version();
  refresh_floors_ = capacity_version != capacity_version_;
  capacity_version_ = capacity_version;
  const std::size_t slots = problem_.num_slots();
  rates_stale_ = norm_this_iter_;
  (norm_this_iter_ ? norm_rates_ : rates_).resize(slots, 0.0);
  if (slot_.size() < slots) {  // slots the engine was never told of
    slot_.resize(slots);
    flow_pos_.resize(slots, 0);
  }
  // obs::now_ns, not steady_clock: iterate() wall time is differenced
  // against worker-thread band stamps, so every side must read the same
  // (RAW) clock.
  const std::int64_t t0 = obs::now_ns();
  const std::uint64_t c0 = read_cycles();
  start_barrier_.arrive_and_wait();
  end_barrier_.arrive_and_wait();
  removes_.clear();
  adds_.clear();
  last_iter_cycles_ = read_cycles() - c0;
  last_iter_seconds_ = static_cast<double>(obs::now_ns() - t0) / 1e9;
}

}  // namespace ft::core
