// Multicore NED + F-NORM engine (paper §5, Figures 2-3).
//
// Workers form an n x n grid of FlowBlocks (row = source block, column =
// destination block). Each worker keeps *private copies* of the link
// state (prices, aggregate allocation, Hessian diagonal, F-NORM ratios)
// for exactly its two LinkBlocks -- its row's upward LinkBlock at local
// indices [0, up_n) and its column's downward LinkBlock at
// [up_n, up_n + down_n) -- so the rate update performs no cross-worker
// writes at all. A log2(n)-step pairwise aggregation (Figure 3) then
// combines the private sums onto authoritative owners -- upward LinkBlock
// i at worker (i,i), downward LinkBlock j at worker (n-1-j, j) -- which
// apply the NED price update and compute F-NORM's link ratios; the same
// schedule replayed in reverse distributes fresh prices and ratios back
// to every worker's private copies. Every transfer is a contiguous range
// add or copy.
//
// The engine runs its workers on a configurable number of threads, as in
// §6.1 where multiple FlowBlocks are mapped to each CPU: each thread owns
// a *contiguous* band of grid workers (whole rows when num_threads ==
// num_blocks) and, when a CpuMap is configured, pins itself to that
// band's row CPU so LinkBlock state stays cache-resident across
// iterations.
//
// Band state belongs to the band's thread. Each worker holds its flows'
// solve inputs band-locally: routes in LinkBlock-local link indices,
// weights, alphas, demand floors, rates and normalized rates as
// contiguous arrays in assignment order. Only the thread that owns a
// worker writes its state; another thread reads it only across a barrier
// (a crossing aggregation step, or the gather), and the calling thread
// not at all.
//
// Churn lands at the next iterate(). assign_flow and unassign_flow run on
// the calling thread and only record the change: the slot's worker
// index, and an entry in the pending add or removal list. A start and an
// end of one slot between two iterations cancel. At the next iterate()
// each thread applies its own bands' removals, then (after one barrier:
// a slot freed from one block may be recycled onto another) its adds,
// translating each added route to local link indices and checking the
// partition property there. Removals before adds keep each band's array
// order exactly what immediate application would give whenever a batch
// of ends precedes its starts. Floors are the one input that can change
// under an assigned slot (NumProblem::set_capacity); iterate() re-reads
// them when the problem's capacity version moves.
//
// Rates leave the bands in slot order. Each worker computes its flows'
// F-NORM rates into its own band array; after one barrier, thread t of T
// gathers norm_rates() (rates() on an iteration that does not
// normalize) for the contiguous slots [S*t/T, S*(t+1)/T) of the S
// problem slots, so no cache line of the output is written by two
// threads. Given a SweepHook, the thread then runs it on that same slot
// range (range t), still on its own thread.
//
// The engine produces results identical to the sequential NedSolver up to
// floating-point summation order (unit-tested), and bit-identical across
// thread counts: the pending lists, the band arrays and every summation
// order are the same whatever the thread count. Every add is done by the
// receiving worker's thread, so threads synchronise only at the start
// and end handshakes, between churn removals and adds, before the
// aggregation (and reverse distribution) steps in which some transfer
// crosses from one thread's band to another's, and before the gather.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/cpu_map.h"
#include "core/problem.h"
#include "topo/partition.h"

namespace ft::obs {
class LatencyHisto;
class MetricsRegistry;
}  // namespace ft::obs

namespace ft::core {

class SweepHook;  // core/backend.h

struct ParallelConfig {
  std::int32_t num_blocks = 2;   // n; must be a power of two
  std::int32_t num_threads = 0;  // 0 = min(n^2, hardware_concurrency)
  double gamma = 1.0;
  bool compute_norm = true;      // piggyback F-NORM on the same schedule
  // §6.1 block-row -> CPU pinning for the worker threads (no-op when
  // disabled). Thread t is pinned to the CPU of the first grid row it
  // owns, so with num_threads == num_blocks each row has its own core.
  CpuMapConfig pin;
};

class ParallelNed {
 public:
  ParallelNed(NumProblem& problem, const topo::BlockPartition& partition,
              ParallelConfig cfg);
  ~ParallelNed();

  ParallelNed(const ParallelNed&) = delete;
  ParallelNed& operator=(const ParallelNed&) = delete;

  // Assigns a flow slot to FlowBlock (src_block, dst_block). Every link
  // on the flow's route must belong to the matching LinkBlock; the next
  // iterate() checks that when it applies the assignment.
  void assign_flow(FlowIndex slot, std::int32_t src_block,
                   std::int32_t dst_block);
  void unassign_flow(FlowIndex slot);

  // Pre-sizes the per-slot index arrays and the pending churn lists for
  // `slots` slots: assign/unassign below that size never allocate,
  // however many starts and ends arrive between two iterations.
  void reserve(std::size_t slots);

  // One full parallel iteration (apply churn, rate update, aggregate,
  // price update, distribute, normalize, gather). Pass compute_norm =
  // false to skip the normalization pass for this iteration (e.g. all
  // but the last of a multi-iteration round -- only the final rates are
  // normalized); it is also skipped whenever the config disables it.
  // With a `sweep`, thread t calls sweep->sweep(t, lo, hi, ...) on its
  // gathered slot range, passing norm_rates() when this iteration
  // normalized and rates() otherwise.
  void iterate(bool compute_norm = true, SweepHook* sweep = nullptr);

  // Raw NED rates of the last iterate(), per slot (0 for a free slot).
  // An iteration that normalizes publishes only norm_rates(); rates()
  // then gathers the raw rates from the bands on the first call. Read
  // it before recording more churn.
  [[nodiscard]] std::span<const double> rates();
  // F-NORM rates of the last normalizing iterate(), per slot.
  [[nodiscard]] std::span<const double> norm_rates() const {
    return norm_rates_;
  }
  // Authoritative per-link prices / allocations (written by owners).
  [[nodiscard]] std::span<const double> prices() const {
    return global_price_;
  }
  [[nodiscard]] std::span<const double> link_alloc() const {
    return global_alloc_;
  }

  [[nodiscard]] std::int32_t num_workers() const { return num_workers_; }
  [[nodiscard]] std::int32_t num_threads() const { return num_threads_; }
  // Barriers an iterate() can cross: the start and end handshakes with
  // the calling thread, the churn barrier (crossed only when removals
  // and adds are both pending), two per crossing aggregation step and
  // the gather barrier. A deterministic function of (num_blocks,
  // num_threads), the engine's synchronisation cost.
  [[nodiscard]] std::int32_t barriers_per_iter() const;
  // Row -> CPU layout in use ("" when pinning is disabled); for logs and
  // bench run metadata.
  [[nodiscard]] std::string pinning() const { return cpu_map_.describe(); }

  // Wall-clock duration of the last iterate() in seconds, and TSC cycles
  // when available (0 otherwise).
  [[nodiscard]] double last_iter_seconds() const {
    return last_iter_seconds_;
  }
  [[nodiscard]] std::uint64_t last_iter_cycles() const {
    return last_iter_cycles_;
  }
  // Slowest thread's compute time (barrier waits excluded, churn,
  // gather and sweep included) in the last iterate(), in microseconds.
  // The flight recorder stores this per round so a solve spike can be
  // attributed to band load imbalance without re-running with tracing
  // on. Valid after the first iterate().
  [[nodiscard]] double last_band_max_us() const;

  // Telemetry (cold path; call before the first iterate): each worker
  // thread records its per-iteration compute time (barrier waits
  // excluded) into core.par.band_us and its accumulated barrier wait
  // into core.par.barrier_wait_us -- the spread between threads is the
  // load-imbalance signal.
  void bind_metrics(obs::MetricsRegistry& reg);

 private:
  // One FlowBlock's band-local state (see the file comment). Link arrays
  // are LinkBlock-sized; flow arrays are parallel to `flows`, with
  // routes at stride kMaxRouteLinks in local link indices. `norm` holds
  // the F-NORM rates of the last normalizing iteration.
  struct WorkerState {
    std::uint32_t down_off = 0;  // up_n of the worker's row
    std::vector<double> price;
    std::vector<double> alloc;
    std::vector<double> dxdp;
    std::vector<double> ratio;
    std::vector<FlowIndex> flows;
    std::vector<std::uint16_t> route;
    std::vector<std::uint8_t> route_len;
    std::vector<double> weight;
    std::vector<double> alpha;
    std::vector<double> floor;
    std::vector<double> x;
    std::vector<double> norm;
  };

  // A recorded removal, applied by the worker's thread.
  struct Pending {
    FlowIndex slot = 0;
    std::int32_t worker = 0;
  };
  static constexpr std::uint32_t kNotPending = UINT32_MAX;
  // A slot's assignment as of the last assign/unassign: its worker (-1 =
  // none) and, while the band has yet to apply it, its index in adds_.
  struct SlotState {
    std::int32_t worker = -1;
    std::uint32_t add_pos = kNotPending;
  };

  // One aggregation transfer as a local range: `len` entries at src_off
  // in the sender and dst_off in the receiver.
  struct Move {
    std::int32_t src = 0;
    std::int32_t dst = 0;
    std::uint32_t src_off = 0;
    std::uint32_t dst_off = 0;
    std::uint32_t len = 0;
  };
  struct Step {
    std::vector<Move> moves;
    // Some move's sender and receiver lie in different thread bands:
    // a phase barrier must precede the step (and its reverse).
    bool crosses = false;
  };

  void thread_main(std::int32_t t);
  void run_phases(std::int32_t t);
  void remove_from_band(const Pending& r);
  void add_to_band(FlowIndex slot);
  static void rate_update(WorkerState& w);
  static void normalize_band(WorkerState& w);
  void price_update_owned(std::int32_t worker);
  void gather(std::size_t lo, std::size_t hi,
              std::vector<double> WorkerState::*from,
              std::vector<double>& to) const;

  [[nodiscard]] std::span<const LinkId> block_links(bool upward,
                                                    std::int32_t b) const {
    const auto& v = upward ? part_.up_links[static_cast<std::size_t>(b)]
                           : part_.down_links[static_cast<std::size_t>(b)];
    return v;
  }

  NumProblem& problem_;
  topo::BlockPartition part_;
  ParallelConfig cfg_;
  std::int32_t n_;
  std::int32_t num_workers_;
  std::int32_t num_threads_;
  CpuMap cpu_map_;

  // Contiguous worker -> thread bands: thread t owns workers
  // [band_begin_[t], band_begin_[t + 1]), i.e. whole rows when
  // num_threads == n. Any partition is correct (the barrier placement in
  // steps_ is derived from it); contiguity is what makes row pinning
  // meaningful and keeps most transfers inside one band.
  std::vector<std::int32_t> band_begin_;  // size num_threads + 1

  std::vector<WorkerState> workers_;
  std::vector<Step> steps_;                  // aggregation order
  std::vector<std::uint32_t> link_pos_;      // link -> index in its block
  // Per slot, both sized alike: slot_ holds what assign/unassign record
  // (one cache line per call), flow_pos_ the slot's index in its
  // worker's flow arrays once the band applied it.
  std::vector<SlotState> slot_;
  std::vector<std::uint32_t> flow_pos_;
  // Churn recorded since the last iterate(), in call order: removals
  // name the worker the slot leaves, adds only the slot (its worker is
  // slot_[slot].worker). A slot has at most one pending add and one
  // pending removal, so neither list outgrows the slot count.
  std::vector<Pending> removes_;
  std::vector<FlowIndex> adds_;
  std::vector<double> rates_;
  bool rates_stale_ = false;  // last iteration published norm_rates_ only
  std::vector<double> norm_rates_;
  std::vector<double> global_price_;
  std::vector<double> global_alloc_;

  // Written by the calling thread before the start barrier.
  bool norm_this_iter_ = true;  // F-NORM configured and asked for
  bool refresh_floors_ = false;
  SweepHook* sweep_ = nullptr;
  std::uint64_t capacity_version_ = 0;  // problem's, at the last refresh
  std::vector<std::jthread> threads_;
  std::barrier<> start_barrier_;   // num_threads + 1 (main)
  std::barrier<> end_barrier_;     // num_threads + 1 (main)
  std::barrier<> phase_barrier_;   // num_threads
  std::atomic<bool> stop_{false};

  double last_iter_seconds_ = 0.0;
  std::uint64_t last_iter_cycles_ = 0;
  // Per-thread compute ns of the last iteration. Each thread writes only
  // its own slot between the start/end barriers; the main thread reads
  // after the end barrier, so access is race-free without atomics.
  std::vector<std::int64_t> last_band_ns_;

  obs::LatencyHisto* band_us_ = nullptr;          // per-thread compute
  obs::LatencyHisto* barrier_wait_us_ = nullptr;  // per-thread waiting
};

}  // namespace ft::core
