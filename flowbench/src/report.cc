#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>

#include "obs/trace.h"

namespace flowbench {
CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

CpuRotation::~CpuRotation() { release_this_thread(); }

void CpuRotation::pin_thread(int tid, int slot) const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[static_cast<std::size_t>(slot) % cpus_.size()], &set);
  (void)sched_setaffinity(tid, sizeof set, &set);
}

void CpuRotation::release_this_thread() const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void trace_span(const char* name, std::int64_t t0_ns, std::int64_t t1_ns) {
  ft::obs::PhaseTracer::set_enabled(true);
  ft::obs::PhaseTracer::record(name, t0_ns / 1000, (t1_ns - t0_ns) / 1000);
  ft::obs::PhaseTracer::set_enabled(false);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int thread_count() {
  std::error_code ec;
  int n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

}  // namespace flowbench
