// End-to-end experiment harness: builds the paper's simulation setup
// (§6.2) for a chosen scheme -- topology, queue disciplines, transports,
// workload, the Flowtune allocator when applicable -- runs it, and
// collects the measurements behind Figures 8-11.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "topo/clos.h"
#include "transport/control.h"
#include "transport/flow.h"
#include "transport/tcp.h"
#include "workload/traffic_gen.h"

namespace ft::transport {

enum class Scheme {
  kFlowtune,
  kDctcp,
  kPfabric,
  kSfqCodel,  // Cubic over sfqCoDel
  kXcp,
  kTcp,       // plain NewReno over drop-tail (plumbing baseline)
};

[[nodiscard]] const char* scheme_name(Scheme s);

struct ExpConfig {
  topo::ClosConfig topo;          // with_allocator is set automatically
  wl::TrafficConfig traffic;      // num_hosts is taken from `topo`
  Scheme scheme = Scheme::kFlowtune;
  Time duration = 40 * kMillisecond;   // measured window
  Time warmup = 5 * kMillisecond;      // excluded from all statistics
  Time drain = 10 * kMillisecond;      // extra time for stragglers
  Time queue_sample_period = 1 * kMillisecond;  // §6.5
  ControlPlaneConfig allocator;   // Flowtune only
  // Scheme knobs (per-10G-link values; scaled by capacity).
  std::int64_t dctcp_marking_bytes = 65 * 1538;
  std::int64_t droptail_limit_bytes = 512 * 1538;
  std::int64_t pfabric_limit_bytes = 24 * 1538;
  sim::SfqCodelConfig sfq_codel = [] {
    sim::SfqCodelConfig c;
    // Datacenter-scaled CoDel (see DESIGN.md): WAN defaults (5 ms /
    // 100 ms) never engage at 14-22 us RTTs. 64 buckets makes
    // flow-to-bucket collisions as frequent as the paper's results
    // imply (mid-size flows colliding with elephants inherit their
    // queue and drops).
    c.num_buckets = 64;
    c.target = 100 * kMicrosecond;
    c.interval = 2 * kMillisecond;
    c.limit_bytes = 384 * 1538;
    return c;
  }();
};

struct BucketResult {
  double p99_norm_fct = 0.0;
  double p50_norm_fct = 0.0;
  std::size_t count = 0;
};

struct ExpResult {
  std::string scheme;
  double load = 0.0;
  std::array<BucketResult, wl::kNumSizeBuckets> buckets;
  double fairness_score = 0.0;     // mean log2(rate_gbps), Figure 11
  double p99_queue_2hop_us = 0.0;  // Figure 9
  double p99_queue_4hop_us = 0.0;
  double dropped_gbps = 0.0;       // Figure 10 (measured window)
  double goodput_gbps = 0.0;       // application bytes acked / duration
  std::size_t flows_started = 0;
  std::size_t flows_completed = 0;
  std::size_t flows_unfinished = 0;
  double mean_norm_fct = 0.0;
  // Flowtune only: control-plane traffic over the measured window.
  double to_allocator_gbps = 0.0;
  double from_allocator_gbps = 0.0;
  std::uint64_t allocator_updates = 0;
  // Packet-sim cost of the whole run (warm-up, window and drain): event
  // queue entries popped, and the most ever pending at once.
  std::uint64_t events = 0;
  std::uint64_t peak_pending_events = 0;
};

[[nodiscard]] ExpResult run_experiment(const ExpConfig& cfg);

// Builds the per-scheme queue factory (exposed for tests).
[[nodiscard]] sim::QueueFactory make_queue_factory(const ExpConfig& cfg);

// Builds the per-scheme data-flow TcpConfig (exposed for tests).
[[nodiscard]] TcpConfig make_data_tcp_config(Scheme s);

// Builds scheme `s`'s data flow from host `src` to `dst` on the ECMP
// paths that `hash` picks (both directions).
[[nodiscard]] std::unique_ptr<TcpFlow> make_flow(
    Scheme s, FlowRegistry& reg, const topo::ClosTopology& clos,
    std::int32_t src, std::int32_t dst, std::uint64_t hash);

}  // namespace ft::transport
