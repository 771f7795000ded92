// Output checks. Each returns the list of violations (empty = the output
// is correct); the workloads run them outside every timed region.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/problem.h"
#include "sim/control_plane_harness.h"
#include "transport/experiment.h"

namespace flowbench {

// fct_web: completed + unfinished measured flows must equal the measured
// starts the traffic generator scheduled (and every flow, warm-up ones
// included, must have been started); each non-empty size bucket's p50
// normalized FCT is at least 1 (nothing beats an empty network); the
// bucket counts add up to the completed flows; the allocator sent
// updates.
[[nodiscard]] std::vector<std::string> check_fct(
    const ft::transport::ExpResult& r, std::size_t expected_started,
    std::size_t expected_measured);

// solve_*: on every link the normalized rates of the flows crossing it
// sum to at most its (headroom-scaled) capacity, and every live flowlet
// holds a positive rate. `rates` is indexed by problem slot.
[[nodiscard]] std::vector<std::string> check_allocation(
    const ft::core::NumProblem& problem, std::span<const double> rates);

// plane_sim_10k: the plane converged, every generated flow saw a rate
// (`flows_seen == total_flows`), and agents received no more updates
// than the service sent.
[[nodiscard]] std::vector<std::string> check_plane(
    const ft::sim::ConvergeStats& st, std::size_t flows_seen,
    std::size_t total_flows);

}  // namespace flowbench
