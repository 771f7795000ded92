// flowbench runner: one workload per process.
//
//   flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--report <path>] [--trace-out <path>]
//
// Prints a human-readable summary (every metric with its sample count,
// every failed output check), writes a detail report with the run
// metadata to --report, and ends stdout with machine-readable lines:
//
//   flowbench.result correct|attempted|failed <n>
//   flowbench.metric <name> <value>
//
// run.py turns them into the benchmark's result line, with the names,
// units and sections of BENCHMARK.json. With --trace 1 the process runs
// the untraced pass, then the traced pass on the same seed, and reports
// the traced pass plus the traced / untraced overhead of every
// end-to-end timing.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "obs/trace.h"
#include "workloads.h"

namespace flowbench {
namespace {

constexpr const char* kWorkloads[] = {"fct_web", "solve_100k", "solve_par",
                                      "plane_sim_10k"};

// Work per run scales with --seconds (sized so a run measures for about
// that long on a 4-core x86 box); the scale is fixed by the argument, so
// every virtual-time output is exact for a (seed, seconds) pair.
WorkloadResult run_workload(const std::string& name, double seconds,
                            const RunOptions& opt) {
  const double scale = std::max(seconds, 1.0) / 10.0;
  const auto scaled = [scale](double base, int at_least) {
    return std::max(at_least, static_cast<int>(std::lround(base * scale)));
  };
  if (name == "fct_web") {
    FctWebConfig cfg;
    cfg.experiments = scaled(2.5, 1);
    return run_fct_web(cfg, opt);
  }
  if (name == "solve_100k" || name == "solve_par") {
    SolveConfig cfg;
    if (name == "solve_par") cfg.par_blocks = 8;
    cfg.timed_rounds = scaled(name == "solve_par" ? 1300 : 2000, 1100);
    return run_solve(cfg, opt);
  }
  PlaneConfig cfg;
  cfg.idle_rounds = scaled(1250, 1100);
  return run_plane(cfg, opt);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
#else
  return "unknown";
#endif
}

void print_summary(const std::string& workload, const WorkloadResult& r) {
  std::printf("flowbench %s: %lld attempted, %lld failed, output checks %s\n",
              workload.c_str(), static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              r.check_errors.empty() ? "passed" : "FAILED");
  for (const std::string& e : r.check_errors) {
    std::printf("  check failed: %s\n", e.c_str());
  }
  for (const auto& [name, value] : r.metrics) {
    std::printf("  %-32s %16.6g", name.c_str(), value);
    const auto s = r.samples.find(name);
    if (s != r.samples.end()) {
      std::printf(" (%lld samples)", static_cast<long long>(s->second));
    }
    std::printf("\n");
  }
}

void print_result(const WorkloadResult& r) {
  std::printf("flowbench.result correct %d\n", r.check_errors.empty() ? 1 : 0);
  std::printf("flowbench.result attempted %lld\n",
              static_cast<long long>(r.attempted));
  std::printf("flowbench.result failed %lld\n",
              static_cast<long long>(r.failed));
  for (const auto& [name, value] : r.metrics) {
    std::printf("flowbench.metric %s %.17g\n", name.c_str(), value);
  }
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload <fct_web|solve_100k|solve_par|"
               "plane_sim_10k> --seed <n> --seconds <s> --trace <0|1> "
               "[--report <path>] [--trace-out <path>]\n",
               prog);
  return 2;
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) {
  using namespace flowbench;
  std::string workload, report_path, trace_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--report") {
      report_path = v;
    } else if (k == "--trace-out") {
      trace_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
          std::end(kWorkloads) ||
      !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }

  RunOptions opt;
  opt.seed = seed;
  WorkloadResult res = run_workload(workload, seconds, opt);
  res.metrics["peak_rss_mb"] = peak_rss_mb();
  if (trace == 1) {
    const WorkloadResult untraced = res;
    opt.trace = true;
    res = run_workload(workload, seconds, opt);
    res.attempted += untraced.attempted;
    res.failed += untraced.failed;
    res.check_errors.insert(res.check_errors.begin(),
                            untraced.check_errors.begin(),
                            untraced.check_errors.end());
    // Overhead as a slowdown factor: > 1 means tracing cost time.
    const auto ratio = [&](const char* m, bool lower_better) {
      const double a = untraced.metrics.at(m);
      const double b = res.metrics.at(m);
      res.metrics[std::string("overhead.") + m] =
          lower_better ? b / a : a / b;
    };
    ratio("setup_s", true);
    ratio("round_mean_us", true);
    ratio("round_p90_us", true);
    ratio("flowlets_per_s", false);
    if (!trace_path.empty()) (void)ft::obs::PhaseTracer::dump_json(trace_path);
  }
  print_summary(workload, res);

  if (!report_path.empty()) {
    ft::bench::Json j;
    ft::bench::Json& run = j.add_run_metadata(res.pinning, res.backend);
    run.set("cpu_model", cpu_model());
    run.set("build_type", FLOWBENCH_BUILD_TYPE);
    run.set("traffic",
            "no traffic crosses a real link: packet simulator and virtual "
            "transport only");
    j.set("workload", workload);
    j.set("seed", static_cast<std::int64_t>(seed));
    j.set("seconds", seconds);
    j.set("trace", trace == 1);
    j.set("correct", res.check_errors.empty());
    j.set("attempted", res.attempted);
    j.set("failed", res.failed);
    ft::bench::Json& checks = j.child("check_errors");
    for (std::size_t i = 0; i < res.check_errors.size(); ++i) {
      checks.set(std::to_string(i), res.check_errors[i]);
    }
    ft::bench::Json& metrics = j.child("metrics");
    for (const auto& [k, v] : res.metrics) metrics.set(k, v);
    ft::bench::Json& samples = j.child("samples");
    for (const auto& [k, v] : res.samples) samples.set(k, v);
    ft::bench::Json& facts = j.child("facts");
    for (const auto& [k, v] : res.facts) facts.set(k, v);
    (void)j.write_file(report_path);
  }

  std::fflush(stdout);
  print_result(res);
  return 0;
}
