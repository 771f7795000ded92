// Tail-latency flight recorder for the allocation round loop.
//
// The metrics registry can say *which phase* is slow in aggregate; the
// flight recorder says *why a particular round* was slow. Every round
// deposits one fixed-size RoundRecord (phase timings, per-shard SPSC
// high-waters, batch/record counts, churn size, epoll wakeup-to-drain)
// into a ring of recent rounds. Rounds that breach an adaptive
// p99-tracking threshold are additionally *promoted* into a persistent
// black-box ring that survives until dumped -- so a 20 ms spike at 3 am
// is still attributable when someone pulls the dump at 9 am, even though
// the recent ring has long since wrapped.
//
// The threshold is an EWMA-style stochastic p99 estimate of round_us
// (SGD on the pinball loss: the estimate steps up by 99x the down-step,
// so it settles where ~1% of samples land above it), scaled by a
// headroom factor so only genuine outliers promote, with a floor so a
// quiet service does not promote 3 us rounds.
//
// Threading: record() and the dump/inspection methods must be driven
// from one thread (the allocation loop; the stats socket's `flight` verb
// runs on that same loop, so the daemon serializes naturally). record()
// never allocates after construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ft::obs {

// One allocation round's black-box entry. All durations in microseconds
// (matching the svc.*_us registry histograms); wall anchor in
// CLOCK_MONOTONIC_RAW ns (obs::now_ns) so records line up with trace
// hop stamps.
struct RoundRecord {
  std::uint64_t round = 0;      // monotonically increasing round id
  std::int64_t t_start_ns = 0;  // obs::now_ns at round start
  double ingest_us = 0;         // up-ring drain (includes churn apply)
  double solve_us = 0;          // NED iterations + normalization
  double emit_us = 0;           // thresholded update emission sweep
  double fanout_us = 0;         // update queueing / shard handoff
  double round_us = 0;          // end-to-end round time
  double wakeup_us = 0;         // worst shard eventfd wakeup-to-drain
  double band_max_us = 0;       // slowest parallel solve band (0 = seq)
  std::uint32_t churn_events = 0;   // up events applied since last round
  std::uint32_t updates = 0;        // rate updates emitted
  // Shards the fanout handed rate updates to: one batch and one wakeup
  // (a ring kick, or a direct flush) per shard, whatever the delivery.
  std::uint32_t batches = 0;
  std::uint32_t queue_drops = 0;    // down-ring drops this round
  std::uint16_t up_ring_hw = 0;     // max per-shard up-ring depth seen
  std::uint16_t down_ring_hw = 0;   // max per-shard down-ring depth seen
  float threshold_us = 0;  // promotion threshold at record time (0 = not
                           // promoted; set only on black-box copies)
};

class FlightRecorder {
 public:
  struct Config {
    std::size_t ring_capacity = 1024;      // recent rounds, always on
    std::size_t black_box_capacity = 256;  // promoted slow rounds
    // p99-estimate SGD step, as a fraction of the current estimate.
    double quantile_step = 0.05;
    // Promote when round_us > headroom * p99_estimate (and > floor).
    double promote_headroom = 2.0;
    double promote_floor_us = 50.0;
    // Rounds to observe before promotion arms (lets the estimate settle).
    std::uint64_t warmup_rounds = 64;
  };

  FlightRecorder();
  explicit FlightRecorder(Config cfg);

  // Deposits one round; promotes it into the black box when it breaches
  // the adaptive threshold. Returns true iff the round was promoted.
  bool record(const RoundRecord& r);

  // Current promotion threshold in microseconds (headroom * p99
  // estimate, floored). Before warmup completes this is the floor.
  [[nodiscard]] double threshold_us() const;
  [[nodiscard]] double p99_estimate_us() const { return q99_us_; }
  [[nodiscard]] std::uint64_t rounds_seen() const { return rounds_seen_; }
  [[nodiscard]] std::uint64_t promoted() const { return promoted_; }

  // Oldest-first copies of the live rings (allocates; cold path).
  [[nodiscard]] std::vector<RoundRecord> recent() const;
  [[nodiscard]] std::vector<RoundRecord> black_box() const;

  // {"p99_estimate_us":..,"threshold_us":..,"recent":[..],"black_box":[..]}
  // -- the payload behind the stats socket's `flight` verb and the
  // daemon's shutdown auto-flush; tools/obs_dump.py renders it.
  [[nodiscard]] std::string dump_json() const;

  // Writes dump_json() to `path`; returns false on I/O failure.
  bool dump_to_file(const std::string& path) const;

 private:
  void update_quantile(double round_us);

  Config cfg_;
  std::vector<RoundRecord> recent_;     // ring, head_ = next write slot
  std::vector<RoundRecord> black_box_;  // ring, bb_head_ = next write slot
  std::size_t head_ = 0;
  std::size_t bb_head_ = 0;
  std::uint64_t rounds_seen_ = 0;
  std::uint64_t promoted_ = 0;
  double q99_us_ = 0.0;
};

}  // namespace ft::obs
