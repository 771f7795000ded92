// Clocks, CPU placement and sample statistics of the flowbench runner, and
// what one workload run reports. Metric names, units and sections live in
// BENCHMARK.json alone; run.py builds the result line from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace flowbench {

// Steady-clock nanoseconds: the benchmark's own clock. obs::now_ns reads
// virtual time while a ControlPlaneHarness is alive, so no benchmark
// timing goes through it.
[[nodiscard]] inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Records one benchmark span on obs::PhaseTracer's chrome-trace ring,
// stamped with wall_ns(). The tracer is enabled only for the record
// itself, so the ring holds the benchmark's spans and none of the
// program's own (whose stamps may be virtual).
void trace_span(const char* name, std::int64_t t0_ns, std::int64_t t1_ns);

// Spreads a single-threaded run over the machine: pin(slot) binds the
// calling thread to the slot-th CPU the process may use, round robin.
// Workloads move their simulation or solver thread to the next CPU every
// kRoundsPerCpu rounds, so one run visits every CPU many times and the
// contention other tenants put on one core averages out instead of
// deciding a whole run. Threads created while pinned inherit the pin;
// they call release_this_thread(). The destructor restores the calling
// thread's full CPU set.
class CpuRotation {
 public:
  static constexpr int kRoundsPerCpu = 50;

  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(int slot) const { pin_thread(0, slot); }
  // Pins thread `tid` (a gettid() value; 0 = the calling thread).
  void pin_thread(int tid, int slot) const;
  void release_this_thread() const;

 private:
  std::vector<int> cpus_;
};

// splitmix64 of (seed, i): one independent input seed for the i-th
// experiment or cycle of a run.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Linear interpolation between closest ranks (q in [0, 1]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// Peak resident set of this process, in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

// Threads of this process right now (entries of /proc/self/task).
[[nodiscard]] int thread_count();

// What one workload run measured and checked.
struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Output checks that did not hold; any entry makes the run incorrect.
  std::vector<std::string> check_errors;
  // Metric values by name, as BENCHMARK.json lists them.
  std::map<std::string, double> metrics;
  // Sample count behind each timing metric (printed, not in the result).
  std::map<std::string, std::int64_t> samples;
  // Workload facts for the detail report (sizes, seeds, exact outputs).
  std::map<std::string, double> facts;
  // How the run placed its threads and which allocator backend solved,
  // for the run metadata of the detail report.
  std::string pinning;
  std::string backend;

  void fail_check(std::string what) { check_errors.push_back(std::move(what)); }
};

}  // namespace flowbench
