// The Flowtune allocator (paper §2, Figure 1): receives flowlet start/end
// notifications, runs NED every iteration period, normalizes rates with
// F-NORM, and emits rate updates to endpoints -- suppressing updates whose
// relative change is below the notification threshold (§6.4). To keep
// suppressed drift from over-filling links, the allocator reserves one
// threshold's worth of headroom by scaling link capacities by
// (1 - threshold).
//
// The NED+normalization computation itself is a pluggable SolveBackend
// (core/backend.h): the default is the sequential NedSolver; pass
// core::parallel_backend(...) to run the §5 multicore FlowBlock engine
// instead -- the allocator keeps the grid assignment in sync with
// flowlet churn and the rest of its behaviour is identical.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "core/backend.h"
#include "core/normalizer.h"
#include "core/problem.h"

namespace ft::obs {
class MetricsRegistry;
}  // namespace ft::obs

namespace ft::core {

struct RateUpdate {
  std::uint64_t key = 0;
  double rate_bps = 0.0;       // quantized (post rate-code) value
  std::uint16_t rate_code = 0;
};

struct AllocatorConfig {
  double gamma = 0.4;           // paper §6.2
  double threshold = 0.01;      // notification threshold (§6.4)
  // Anti-entropy for lossy delivery layers (0 = off). The threshold
  // filter tracks the last rate *emitted*, not what the agent actually
  // received: if a delivery layer drops an update and the rate then
  // stays inside the threshold band, the flow is never re-notified and
  // the agent holds the stale rate for as long as heartbeats keep its
  // lease alive. With refresh_rounds = N, slot s is re-emitted on every
  // round where (round + s) % N == 0 regardless of the filter, so a
  // lost update is repaired within N rounds and the per-round overhead
  // is a flat active/N updates (staggered, never a burst).
  int refresh_rounds = 0;
  NormKind norm = NormKind::kPerFlow;  // F-NORM
  int iters_per_round = 1;
  Utility default_util = Utility::log_utility();
  bool reserve_headroom = true;
  // Telemetry sink (src/obs/). When null the allocator owns a private
  // registry, so per-instance stats() stays exact either way; the daemon
  // passes a shared registry so core.* metrics land on its stats plane.
  obs::MetricsRegistry* metrics = nullptr;
};

// Point-in-time view assembled from the allocator's registry counters
// (core.flowlet_starts etc.); kept as a plain struct so existing callers
// read fields exactly as before the registry unification.
struct AllocatorStats {
  std::uint64_t flowlet_starts = 0;
  std::uint64_t flowlet_ends = 0;
  std::uint64_t iterations = 0;
  std::uint64_t updates_emitted = 0;
  std::uint64_t updates_suppressed = 0;
  // Of updates_emitted, how many were anti-entropy re-emissions (the
  // threshold filter alone would have suppressed them). emitted minus
  // refreshed is the "organic" update stream -- the convergence signal.
  std::uint64_t updates_refreshed = 0;
};

class Allocator : private SweepHook {
 public:
  Allocator(std::vector<double> link_capacities_bps, AllocatorConfig cfg);
  // With an explicit solve backend (core/backend.h). The factory runs
  // after headroom scaling, so the backend sees final capacities.
  Allocator(std::vector<double> link_capacities_bps, AllocatorConfig cfg,
            BackendFactory backend);
  ~Allocator();
  // Not movable: the backend holds a reference to problem_ (prvalue
  // returns still work through guaranteed copy elision).
  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  // Registers a new flowlet with the given route. Returns false (no-op)
  // if the key is already active.
  bool flowlet_start(std::uint64_t key, std::span<const LinkId> route);
  bool flowlet_start(std::uint64_t key, std::span<const LinkId> route,
                     Utility util);
  // Ends a flowlet. Returns false if the key is unknown.
  bool flowlet_end(std::uint64_t key);

  // §7 closed loop: registers uncontrolled external traffic of
  // `rate_bps` on `route` as a fixed-demand dummy flow. It consumes
  // capacity in the optimization and is never scaled by normalization;
  // end it with flowlet_end.
  bool external_traffic_start(std::uint64_t key,
                              std::span<const LinkId> route,
                              double rate_bps) {
    return flowlet_start(key, route, Utility::fixed_demand(rate_bps));
  }

  // §7 closed loop: adjusts a link's capacity at runtime (headroom
  // scaling is applied on top when configured).
  void set_link_capacity(std::size_t link, double capacity_bps);
  [[nodiscard]] bool is_active(std::uint64_t key) const {
    return key_to_slot_.contains(key);
  }

  // One allocation round: NED iteration(s), normalization, thresholded
  // update emission. Updates are appended to `out`, in slot order. The
  // emission sweep is one function over a slot range that the backend
  // calls as each range's final rates land (SweepHook): the sequential
  // backend sweeps every slot as range 0; the parallel backend sweeps
  // one range per worker thread. Range 0 appends straight to `out`, each
  // later range to a buffer of its own, and this thread appends those
  // buffers in range order -- the same stream, key for key, as one
  // sweep in slot order. Steady state (stable flow set, recycled `out`)
  // performs no heap allocation; churn spikes re-reserve up front rather
  // than reallocating mid-round. core.solve_us / core.emit_us split this
  // thread's time: a sweep that ran on it counts as emission, one on a
  // worker thread as part of the solve it waited for.
  void run_iteration(std::vector<RateUpdate>& out);

  // Pre-sizes every per-flow structure (problem SoA arrays, key map,
  // notification state, emission scratch and per-range update buffers,
  // the backend's churn state) for `flows` concurrent flowlets. Churn up
  // to that size then allocates nothing, however the flows spread over
  // the links and however many starts and ends come between two rounds.
  void reserve(std::size_t flows);

  // Marks a flow as never-notified so the next run_iteration re-emits
  // its rate unconditionally. For delivery layers that can drop an
  // emitted update (e.g. a full shard ring under overload): without
  // this the threshold filter would suppress the flow until its rate
  // drifted past the threshold again.
  void invalidate_notification(std::uint64_t key);

  // CLOCK_MONOTONIC_RAW stamps (obs::now_ns) of the most recent
  // run_iteration's phase boundaries: solve start, solve/normalize done
  // (the latest slot range's, when ranges are swept on several threads),
  // emission done (after the per-range buffers are merged). The
  // service's update-path tracer copies these into a traced flow's
  // kHopSolveDone / kHopEmitDone slots.
  struct RoundStamps {
    std::int64_t solve_start_ns = 0;
    std::int64_t solve_end_ns = 0;
    std::int64_t emit_end_ns = 0;
  };
  [[nodiscard]] const RoundStamps& last_round_stamps() const {
    return stamps_;
  }

  // Most recent *normalized, quantized* rate notified for a flow (0 if
  // never notified or unknown).
  [[nodiscard]] double notified_rate(std::uint64_t key) const;
  // Most recent normalized rate (pre-threshold) for a flow.
  [[nodiscard]] double allocated_rate(std::uint64_t key) const;

  [[nodiscard]] AllocatorStats stats() const;
  // The registry this allocator records into (cfg.metrics, or the
  // private one): core.solve_us / core.emit_us round-phase histograms,
  // backend timing, and the counters behind stats().
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] const AllocatorConfig& config() const { return cfg_; }
  [[nodiscard]] const NumProblem& problem() const { return problem_; }
  [[nodiscard]] const SolveBackend& backend() const { return *backend_; }
  [[nodiscard]] std::size_t num_active_flowlets() const {
    return key_to_slot_.size();
  }

 private:
  struct Metrics;  // resolved registry handles (allocator.cc)

  // One slot range's sweep: its update buffer (unused by range 0, which
  // sweeps straight into the round's `out`), counts and stamps. Written
  // only by the thread that sweeps the range; one cache line apart.
  struct alignas(64) RangeSweep {
    std::vector<RateUpdate> out;
    std::size_t emitted = 0;
    std::uint64_t refreshed = 0;
    std::int64_t solve_done_ns = 0;  // range's final rates in place
    std::int64_t sweep_ns = 0;
    bool on_caller = false;          // swept on run_iteration's thread
  };

  // SweepHook: the backend calls this once per range of the final rates.
  void sweep(std::size_t range, std::size_t lo, std::size_t hi,
             std::span<const double> norm_rates) override;
  // The thresholded emission sweep over slots [lo, hi): appends the
  // updates to `out` in slot order and returns {emitted, refreshed}.
  // The caller gives `out` room for every update the range can emit.
  std::pair<std::size_t, std::uint64_t> emit_range(
      std::size_t lo, std::size_t hi, const double* rate,
      std::vector<RateUpdate>& out);

  AllocatorConfig cfg_;
  NumProblem problem_;
  std::unique_ptr<SolveBackend> backend_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when cfg has none
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<Metrics> m_;
  // Open-addressing flat map (common/flat_map.h): key lookups on the
  // churn and notification hot paths never touch the heap.
  FlatMap64<FlowIndex> key_to_slot_;
  std::vector<std::uint64_t> slot_to_key_;
  std::vector<double> last_notified_;  // per slot; <0 = never notified
  // Per slot: the emission sweep's selected slot indices (run_iteration
  // writes one entry per slot before keeping it, so this is sized with
  // slot_to_key_, never inside a round).
  std::vector<std::uint32_t> emit_sel_;
  std::uint64_t round_seq_ = 0;        // run_iteration count (refresh stagger)
  std::vector<RangeSweep> ranges_;     // one per backend sweep range
  // The running round's `out` and thread, for the hook.
  std::vector<RateUpdate>* round_out_ = nullptr;
  std::thread::id round_thread_;
  RoundStamps stamps_;
};

}  // namespace ft::core
