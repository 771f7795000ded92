#include "sim/chaos.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace ft::sim {
namespace {

bool windowed(ChaosFaultKind k) {
  switch (k) {
    case ChaosFaultKind::kBlackHole:
    case ChaosFaultKind::kPartitionUp:
    case ChaosFaultKind::kPartitionDown:
    case ChaosFaultKind::kDropFrames:
      return true;
    case ChaosFaultKind::kKillConnections:
    case ChaosFaultKind::kRestartService:
      return false;
  }
  return false;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string keep_list(const ChaosSchedule& s) {
  std::string out;
  for (const ChaosEvent& e : s.events) {
    if (!out.empty()) out += ',';
    out += std::to_string(e.idx);
  }
  return out;
}

}  // namespace

const char* chaos_fault_name(ChaosFaultKind k) {
  switch (k) {
    case ChaosFaultKind::kKillConnections:
      return "kill_connections";
    case ChaosFaultKind::kRestartService:
      return "restart_service";
    case ChaosFaultKind::kBlackHole:
      return "black_hole";
    case ChaosFaultKind::kPartitionUp:
      return "partition_up";
    case ChaosFaultKind::kPartitionDown:
      return "partition_down";
    case ChaosFaultKind::kDropFrames:
      return "drop_frames";
  }
  return "unknown";
}

ChaosSchedule ChaosEngine::generate(std::uint64_t seed) const {
  Rng rng(derive_seed(seed, 0xC4A05ULL));
  ChaosSchedule s;
  s.seed = seed;
  const int span = cfg_.max_events - cfg_.min_events + 1;
  const int n =
      cfg_.min_events + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(std::max(span, 1))));
  s.events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ChaosEvent e;
    e.kind = static_cast<ChaosFaultKind>(rng.below(6));
    e.at_us = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(cfg_.window_us)));
    if (windowed(e.kind)) {
      e.duration_us =
          cfg_.min_fault_duration_us +
          static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(
              cfg_.max_fault_duration_us - cfg_.min_fault_duration_us + 1)));
    }
    if (e.kind == ChaosFaultKind::kDropFrames) {
      e.magnitude = rng.uniform(cfg_.min_drop_frac, cfg_.max_drop_frac);
    }
    s.events.push_back(e);
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at_us < b.at_us;
                   });
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    s.events[i].idx = static_cast<int>(i);
  }
  return s;
}

ChaosSchedule ChaosEngine::apply_keep(const ChaosSchedule& s,
                                      const std::vector<int>& keep) {
  ChaosSchedule out;
  out.seed = s.seed;
  for (const ChaosEvent& e : s.events) {
    if (std::find(keep.begin(), keep.end(), e.idx) != keep.end()) {
      out.events.push_back(e);
    }
  }
  return out;
}

ChaosResult ChaosEngine::run_schedule(const ChaosSchedule& s) const {
  ChaosResult out;
  out.schedule = s;

  ControlPlaneHarness h(cfg_.harness);
  const ConvergeStats pre = h.run_to_convergence();
  FT_CHECK(pre.converged);  // the plane must be healthy before faults
  const std::vector<std::uint16_t> baseline = Oracles::collect_rate_codes(h);

  // Expand events into a timeline of apply/clear actions. Windowed
  // faults are level-triggered flags, so overlapping windows of the
  // same kind are resolved by nesting depth.
  struct Action {
    std::int64_t at_us;
    int seq;  // stable tiebreak: expansion order
    ChaosFaultKind kind;
    bool on;
    double magnitude;
  };
  std::vector<Action> acts;
  int seq = 0;
  std::int64_t last_us = 0;
  for (const ChaosEvent& e : s.events) {
    acts.push_back({e.at_us, seq++, e.kind, true, e.magnitude});
    if (windowed(e.kind)) {
      acts.push_back({e.at_us + e.duration_us, seq++, e.kind, false, 0.0});
      last_us = std::max(last_us, e.at_us + e.duration_us);
    } else {
      last_us = std::max(last_us, e.at_us);
    }
  }
  std::stable_sort(acts.begin(), acts.end(),
                   [](const Action& a, const Action& b) {
                     return a.at_us != b.at_us ? a.at_us < b.at_us
                                               : a.seq < b.seq;
                   });

  SimTransport& tr = h.transport();
  int depth_black = 0;
  int depth_up = 0;
  int depth_down = 0;
  int depth_drop = 0;
  double drop_frac = 0.0;
  const auto apply = [&](const Action& a) {
    switch (a.kind) {
      case ChaosFaultKind::kKillConnections:
        tr.kill_all();
        break;
      case ChaosFaultKind::kRestartService:
        h.restart_service();
        break;
      case ChaosFaultKind::kBlackHole:
        depth_black += a.on ? 1 : -1;
        tr.set_black_hole(depth_black > 0);
        break;
      case ChaosFaultKind::kPartitionUp:
        depth_up += a.on ? 1 : -1;
        tr.set_partition_up(depth_up > 0);
        break;
      case ChaosFaultKind::kPartitionDown:
        depth_down += a.on ? 1 : -1;
        tr.set_partition_down(depth_down > 0);
        break;
      case ChaosFaultKind::kDropFrames:
        depth_drop += a.on ? 1 : -1;
        if (a.on) drop_frac = std::max(drop_frac, a.magnitude);
        if (depth_drop == 0) drop_frac = 0.0;
        tr.set_drop_down_frac(depth_drop > 0 ? drop_frac : 0.0);
        break;
    }
  };

  // Sweep the safety oracles between every virtual-time advance; the
  // first report ends the schedule (the shrinker only needs a yes/no,
  // and mutation bugs keep violating forever anyway).
  const Oracles orc(cfg_.oracle);
  std::int64_t cursor = 0;  // offset from pre-fault convergence
  const auto sweep_until = [&](std::int64_t target) -> bool {
    while (cursor < target) {
      const std::int64_t step =
          std::min(cfg_.sweep_period_us, target - cursor);
      h.run_for(step);
      cursor += step;
      auto v = orc.check_safety(h);
      if (!v.empty()) {
        out.violations = std::move(v);
        return false;
      }
    }
    return true;
  };

  for (const Action& a : acts) {
    if (!sweep_until(a.at_us)) {
      out.trajectory_hash = h.trajectory_hash();
      return out;
    }
    apply(a);
  }
  if (!sweep_until(last_us + cfg_.settle_us)) {
    out.trajectory_hash = h.trajectory_hash();
    return out;
  }

  // All windows have closed by construction; clear defensively anyway
  // so reconvergence is measured fault-free.
  tr.set_black_hole(false);
  tr.set_partition_up(false);
  tr.set_partition_down(false);
  tr.set_drop_down_frac(0.0);

  const std::int64_t rc_start = h.virtual_now_us();
  const ConvergeStats rc = h.run_to_convergence();
  out.trajectory_hash = h.trajectory_hash();
  if (!rc.converged) {
    OracleReport r;
    r.oracle = "reconvergence";
    r.detail = "plane did not reconverge before the virtual horizon";
    r.virtual_us = h.virtual_now_us();
    out.violations.push_back(std::move(r));
    return out;
  }
  out.reconverge_us = h.virtual_now_us() - rc_start;
  if (out.reconverge_us > cfg_.max_reconverge_us) {
    OracleReport r;
    r.oracle = "reconvergence";
    r.detail = "reconverged in " + std::to_string(out.reconverge_us) +
               " us, bound " + std::to_string(cfg_.max_reconverge_us);
    r.virtual_us = h.virtual_now_us();
    out.violations.push_back(std::move(r));
    return out;
  }

  out.violations = orc.check_quiesce(h);
  if (auto r = orc.check_reconvergence(h, baseline)) {
    out.violations.push_back(std::move(*r));
  }
  out.ok = out.violations.empty();
  return out;
}

ShrinkResult ChaosEngine::shrink(const ChaosResult& failing) const {
  FT_CHECK(!failing.ok && !failing.violations.empty());
  const std::string& oracle = failing.violations.front().oracle;
  ShrinkResult out;
  out.minimal = failing.schedule;
  out.result = failing;
  bool improved = true;
  while (improved && out.minimal.events.size() > 1) {
    improved = false;
    for (std::size_t i = 0; i < out.minimal.events.size(); ++i) {
      ChaosSchedule cand = out.minimal;
      cand.events.erase(cand.events.begin() +
                        static_cast<std::ptrdiff_t>(i));
      ChaosResult r = run_schedule(cand);
      ++out.runs;
      if (!r.ok && !r.violations.empty() &&
          r.violations.front().oracle == oracle) {
        out.minimal = std::move(cand);
        out.result = std::move(r);
        improved = true;
        break;
      }
    }
  }
  return out;
}

std::string ChaosEngine::replay_command(const ChaosResult& r) const {
  std::string cmd = "bench_chaos --replay-schedule-seed=" +
                    std::to_string(r.schedule.seed) +
                    " --keep=" + keep_list(r.schedule) +
                    " --endpoints=" +
                    std::to_string(cfg_.harness.num_endpoints) +
                    " --plane-seed=" + std::to_string(cfg_.harness.seed);
  if (cfg_.harness.use_vip_proxy) cmd += " --vip";
  return cmd;
}

std::string ChaosEngine::repro_json(const ChaosResult& r) const {
  std::string j = "{\n";
  j += "  \"schedule_seed\": " + std::to_string(r.schedule.seed) + ",\n";
  j += "  \"plane_seed\": " + std::to_string(cfg_.harness.seed) + ",\n";
  j += "  \"endpoints\": " +
       std::to_string(cfg_.harness.num_endpoints) + ",\n";
  j += "  \"vip\": ";
  j += cfg_.harness.use_vip_proxy ? "true" : "false";
  j += ",\n";
  j += "  \"keep\": [" + keep_list(r.schedule) + "],\n";
  j += "  \"events\": [";
  for (std::size_t i = 0; i < r.schedule.events.size(); ++i) {
    const ChaosEvent& e = r.schedule.events[i];
    if (i > 0) j += ",";
    j += "\n    {\"idx\": " + std::to_string(e.idx) + ", \"kind\": \"";
    j += chaos_fault_name(e.kind);
    j += "\", \"at_us\": " + std::to_string(e.at_us) +
         ", \"duration_us\": " + std::to_string(e.duration_us) +
         ", \"magnitude\": " + std::to_string(e.magnitude) + "}";
  }
  j += "\n  ],\n";
  if (!r.violations.empty()) {
    const OracleReport& v = r.violations.front();
    j += "  \"violated_oracle\": \"";
    json_escape_into(j, v.oracle);
    j += "\",\n  \"detail\": \"";
    json_escape_into(j, v.detail);
    j += "\",\n  \"virtual_us\": " + std::to_string(v.virtual_us) + ",\n";
  }
  j += "  \"replay\": \"";
  json_escape_into(j, replay_command(r));
  j += "\"\n}\n";
  return j;
}

CampaignResult ChaosEngine::run_campaign(std::uint64_t campaign_seed,
                                         int n) const {
  CampaignResult out;
  const auto fnv = [&out](std::uint64_t v) {
    out.campaign_hash ^= v;
    out.campaign_hash *= 1099511628211ULL;
  };
  for (int i = 0; i < n; ++i) {
    const ChaosSchedule s = generate(
        derive_seed(campaign_seed, static_cast<std::uint64_t>(i)));
    ChaosResult r = run_schedule(s);
    ++out.schedules_run;
    fnv(r.trajectory_hash);
    if (r.ok) {
      if (r.reconverge_us >= 0) out.reconverge_us.push_back(r.reconverge_us);
      continue;
    }
    // First failure: shrink it and stop -- one minimal repro beats a
    // pile of unshrunk ones.
    ++out.violations;
    out.first_violation = r;
    out.shrunk = shrink(r);
    break;
  }
  return out;
}

}  // namespace ft::sim
