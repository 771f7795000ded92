// Pluggable solve backends for the allocator (paper §5, §6.1).
//
// The Allocator's control logic (flowlet bookkeeping, thresholded update
// emission, headroom) is independent of *how* the NED iteration and
// F-NORM normalization are computed. A SolveBackend owns that part:
//
//   * SequentialNedBackend -- the single-core reference: NedSolver
//     iterations followed by core::normalize.
//   * ParallelNedBackend -- the §5 multicore engine: core::ParallelNed
//     over a topo::BlockPartition, with F-NORM piggybacked on the same
//     aggregation schedule. Flow slots are assigned to FlowBlocks
//     (src_block, dst_block) derived from each flow's route, so the
//     Allocator API is unchanged: flowlet_start/end keep mapping wire
//     keys to slots, and the backend keeps the grid in sync.
//
// Both backends produce identical rates up to floating-point summation
// order (unit-tested), so they are interchangeable behind the service.
//
// The allocator's thresholded update sweep rides inside solve() as a
// SweepHook, called once per slot range as soon as that range's final
// rates are in place: the sequential backend sweeps all slots as one
// range on the calling thread; the parallel backend sweeps one range per
// worker thread, on that thread, right after it gathered the range's
// rates.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "core/normalizer.h"
#include "core/parallel.h"
#include "core/problem.h"

namespace ft::obs {
class MetricsRegistry;
}  // namespace ft::obs

namespace ft::core {

// The per-slot-range sweep contract. solve() calls sweep() exactly once
// per range r in [0, sweep_ranges()), after norm_rates[lo, hi) hold that
// range's final normalized rates. Ranges are disjoint, contiguous and
// numbered in slot order, and together cover [0, num_slots). Different
// ranges may be swept concurrently on different threads while the
// calling thread waits inside solve(), so an implementation may write
// only state indexed by slots in [lo, hi) and per-range scratch of its
// own; it may read (never write) anything the round does not change.
// The call is a plain virtual dispatch: nothing is allocated to make it.
class SweepHook {
 public:
  virtual void sweep(std::size_t range, std::size_t lo, std::size_t hi,
                     std::span<const double> norm_rates) = 0;

 protected:
  ~SweepHook() = default;
};

class SolveBackend {
 public:
  virtual ~SolveBackend() = default;

  // Slot lifecycle: flow_added runs after `slot` was added to the
  // problem; flow_removed runs before it is removed (the entry is still
  // active). Slots are recycled through the problem's free list, so the
  // same index recurs across churn.
  virtual void flow_added(FlowIndex slot) = 0;
  virtual void flow_removed(FlowIndex slot) = 0;

  // Pre-sizes the backend's per-slot churn state for `slots` slots, so
  // churn below that size allocates nothing. Default: nothing to size.
  virtual void reserve(std::size_t /*slots*/) {}

  // `iters` NED iterations followed by normalization, with `sweep`
  // called on every slot range of the final rates (see SweepHook).
  // Afterwards norm_rates() covers every problem slot (values for
  // inactive slots are unspecified).
  virtual void solve(int iters, SweepHook& sweep) = 0;
  [[nodiscard]] virtual std::span<const double> norm_rates() const = 0;
  // How many ranges solve() hands to the hook; fixed for the backend's
  // life.
  [[nodiscard]] virtual std::size_t sweep_ranges() const { return 1; }

  // Resolves backend-specific metric handles in `reg` (cold path; the
  // registry must outlive the backend). The sequential backend splits
  // solve time into core.ned_us / core.norm_us; the parallel backend
  // adds per-band solve and barrier-wait histograms. Default: no-op.
  virtual void bind_metrics(obs::MetricsRegistry& /*reg*/) {}

  // Slowest worker band's compute time (us) in the most recent solve --
  // its share of churn, solve, gather and sweep -- for flight-recorder
  // spike attribution; 0 when the backend has no notion of bands
  // (sequential).
  [[nodiscard]] virtual double last_band_max_us() const { return 0.0; }

  [[nodiscard]] virtual const char* name() const = 0;
};

// Factory invoked by the Allocator once its NumProblem exists (after
// headroom scaling); gamma and the normalization kind come from the
// AllocatorConfig.
using BackendFactory = std::function<std::unique_ptr<SolveBackend>(
    NumProblem& problem, double gamma, NormKind norm)>;

// The default single-core backend (NedSolver + core::normalize).
[[nodiscard]] BackendFactory sequential_backend();

// The §5 multicore backend. `partition` must cover the topology the
// allocator's link capacities came from; routes must only traverse
// partitioned (up/down) links, so external_traffic_start over allocator
// attachment links is not supported with this backend. cfg.gamma is
// overridden by the allocator's gamma; U-NORM is not supported (the
// parallel engine piggybacks F-NORM only).
[[nodiscard]] BackendFactory parallel_backend(topo::BlockPartition partition,
                                              ParallelConfig cfg);

}  // namespace ft::core
