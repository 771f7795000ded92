#include "core/backend.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "core/ned.h"
#include "obs/metrics.h"

namespace ft::core {
namespace {

class SequentialNedBackend final : public SolveBackend {
 public:
  SequentialNedBackend(NumProblem& problem, double gamma, NormKind norm)
      : problem_(problem), ned_(problem, gamma), norm_(norm) {}

  void flow_added(FlowIndex) override {}
  void flow_removed(FlowIndex) override {}

  void solve(int iters, SweepHook& sweep) override {
    const std::int64_t t0 = ned_us_ != nullptr ? obs::now_us() : 0;
    for (int i = 0; i < iters; ++i) ned_.iterate();
    const std::int64_t t1 = ned_us_ != nullptr ? obs::now_us() : 0;
    norm_rates_.resize(problem_.num_slots());
    // Reused scratch: steady-state rounds perform no heap allocation.
    // F-NORM reuses the solver's per-link accumulators from the final
    // iteration (one sweep instead of f_norm's re-scatter).
    if (norm_ == NormKind::kPerFlow) {
      f_norm_from_alloc(problem_, ned_.rates(), ned_.link_alloc(),
                        ned_.link_fixed(), norm_rates_, scratch_);
    } else {
      normalize(norm_, problem_, ned_.rates(), norm_rates_, scratch_);
    }
    if (ned_us_ != nullptr) {
      ned_us_->record_signed(t1 - t0);
      norm_us_->record_signed(obs::now_us() - t1);
    }
    sweep.sweep(0, 0, problem_.num_slots(), norm_rates_);
  }

  void bind_metrics(obs::MetricsRegistry& reg) override {
    ned_us_ = &reg.histo("core.ned_us");
    norm_us_ = &reg.histo("core.norm_us");
  }

  [[nodiscard]] std::span<const double> norm_rates() const override {
    return norm_rates_;
  }
  [[nodiscard]] const char* name() const override { return "sequential"; }

 private:
  NumProblem& problem_;
  NedSolver ned_;
  NormKind norm_;
  std::vector<double> norm_rates_;
  NormScratch scratch_;
  obs::LatencyHisto* ned_us_ = nullptr;   // NED iteration time per round
  obs::LatencyHisto* norm_us_ = nullptr;  // normalization time per round
};

class ParallelNedBackend final : public SolveBackend {
 public:
  ParallelNedBackend(NumProblem& problem, topo::BlockPartition partition,
                     ParallelConfig cfg, NormKind norm)
      : problem_(problem), part_(std::move(partition)), norm_(norm) {
    // The parallel engine piggybacks F-NORM on its aggregation schedule;
    // U-NORM (a global ratio) has no per-block formulation here.
    FT_CHECK(norm == NormKind::kPerFlow || norm == NormKind::kNone);
    cfg.compute_norm = norm == NormKind::kPerFlow;
    par_ = std::make_unique<ParallelNed>(problem, part_, cfg);
  }

  void flow_added(FlowIndex slot) override {
    const FlowView f = problem_.flow(slot);
    // FlowBlock coordinates (Figure 2): the block whose upward LinkBlock
    // carries the route's up links, and the block whose downward
    // LinkBlock carries its down links. Every host-to-host route has at
    // least one of each (host->ToR up, ToR->host down).
    std::int32_t src_block = -1;
    std::int32_t dst_block = -1;
    for (std::uint32_t l : f.route()) {
      const topo::LinkClass& cls = part_.link_class[l];
      if (cls.dir == topo::LinkDir::kUp && src_block < 0) {
        src_block = cls.block;
      } else if (cls.dir == topo::LinkDir::kDown && dst_block < 0) {
        dst_block = cls.block;
      }
    }
    FT_CHECK(src_block >= 0 && dst_block >= 0);
    par_->assign_flow(slot, src_block, dst_block);
  }

  void flow_removed(FlowIndex slot) override { par_->unassign_flow(slot); }

  void reserve(std::size_t slots) override { par_->reserve(slots); }

  void solve(int iters, SweepHook& sweep) override {
    // Normalization only matters for the final rates, so skip its pass
    // on all but the last iteration (matching the sequential backend,
    // which normalizes once per round); the sweep runs on the last.
    for (int i = 0; i + 1 < iters; ++i) par_->iterate(false);
    par_->iterate(true, &sweep);
  }

  [[nodiscard]] std::size_t sweep_ranges() const override {
    return static_cast<std::size_t>(par_->num_threads());
  }

  [[nodiscard]] std::span<const double> norm_rates() const override {
    return norm_ == NormKind::kPerFlow ? par_->norm_rates()
                                       : par_->rates();
  }

  void bind_metrics(obs::MetricsRegistry& reg) override {
    par_->bind_metrics(reg);
  }

  [[nodiscard]] double last_band_max_us() const override {
    return par_->last_band_max_us();
  }

  [[nodiscard]] const char* name() const override { return "parallel"; }

 private:
  NumProblem& problem_;
  topo::BlockPartition part_;
  NormKind norm_;
  std::unique_ptr<ParallelNed> par_;
};

}  // namespace

BackendFactory sequential_backend() {
  return [](NumProblem& problem, double gamma, NormKind norm) {
    return std::make_unique<SequentialNedBackend>(problem, gamma, norm);
  };
}

BackendFactory parallel_backend(topo::BlockPartition partition,
                                ParallelConfig cfg) {
  return [partition = std::move(partition), cfg](
             NumProblem& problem, double gamma,
             NormKind norm) mutable -> std::unique_ptr<SolveBackend> {
    cfg.gamma = gamma;
    cfg.num_blocks = partition.num_blocks;
    return std::make_unique<ParallelNedBackend>(problem, partition, cfg,
                                                norm);
  };
}

}  // namespace ft::core
