/// \file sweep_workload.cpp
/// The `sweep_grid` workload: a miniature of the paper's experiment grid
/// (KTH and CTC x the five paper shrinking factors x four scheduler
/// configurations x a small ensemble) through `exp::SweepOrchestrator`,
/// each repetition from an empty point-cache directory.
///
/// Every run also simulates each cell once, serially, through
/// `exp::simulate_sweep_cell` without a workspace (the path `SweepRunner`
/// takes, and the one a workspace must be bit-identical to): those
/// schedules are validated and digested, and their combined points are the
/// reference every timed grid must equal.

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "core/decider.hpp"
#include "exp/experiment.hpp"
#include "exp/orchestrator.hpp"
#include "exp/point_cache.hpp"
#include "metrics/validate.hpp"
#include "replay.hpp"
#include "workload/models.hpp"

namespace perfbench {

namespace core = dynp::core;
namespace exp = dynp::exp;
namespace workload = dynp::workload;

namespace {

constexpr std::size_t kSets = 10;
constexpr std::size_t kJobs = 120;
constexpr std::size_t kThreads = 4;
constexpr int kMinReps = 3;

struct Shape {
  std::vector<workload::TraceModel> models{workload::kth_model(),
                                           workload::ctc_model()};
  std::vector<double> factors = exp::paper_shrinking_factors();
  std::vector<core::SimulationConfig> configs;
  exp::ExperimentScale scale;
  std::size_t threads = 1;

  explicit Shape(std::uint64_t seed) {
    core::SimulationConfig easy =
        core::static_config(dynp::policies::PolicyKind::kFcfs);
    easy.semantics = core::PlannerSemantics::kQueueingEasy;
    core::SimulationConfig guarantee =
        core::dynp_config(exp::sjf_preferred_decider());
    guarantee.semantics = core::PlannerSemantics::kGuarantee;
    configs = {easy, core::static_config(dynp::policies::PolicyKind::kSjf),
               core::dynp_config(core::make_advanced_decider()), guarantee};
    scale = exp::ExperimentScale{kSets, kJobs, seed};
    threads = std::min<std::size_t>(
        kThreads, std::max(1u, std::thread::hardware_concurrency()));
  }

  [[nodiscard]] std::size_t cells() const {
    return models.size() * factors.size() * configs.size() * scale.sets;
  }
};

[[nodiscard]] bool same_point(const exp::CombinedPoint& a,
                              const exp::CombinedPoint& b) {
  return a.sldwa == b.sldwa && a.utilization == b.utilization &&
         a.avg_bounded_slowdown == b.avg_bounded_slowdown &&
         a.avg_response == b.avg_response && a.switches == b.switches &&
         a.decisions == b.decisions && a.sldwa_stddev == b.sldwa_stddev &&
         a.util_stddev == b.util_stddev && a.sldwa_per_set == b.sldwa_per_set &&
         a.util_per_set == b.util_per_set;
}

[[nodiscard]] bool same_grid(const exp::SweepGrid& grid,
                             const std::vector<exp::CombinedPoint>& points) {
  if (grid.points.size() != points.size()) return false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!same_point(grid.points[i], points[i])) return false;
  }
  return true;
}

/// Every cell simulated once, serially, and checked.
struct Reference {
  std::vector<exp::CombinedPoint> points;  ///< grid order
  Check check;
  std::vector<double> cell_s;
  double wall_s = 0;      ///< the cell loop, generation excluded
  double generate_s = 0;  ///< `workload::generate_ensemble` per trace
  std::uint64_t events = 0;
};

[[nodiscard]] Reference simulate_cells(const Shape& shape, Report& report) {
  Reference ref;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<workload::JobSet>> ensembles;
  for (const workload::TraceModel& model : shape.models) {
    ensembles.push_back(workload::generate_ensemble(
        model, shape.scale.sets, shape.scale.jobs, shape.scale.seed));
  }
  const Clock::time_point t1 = Clock::now();
  ref.generate_s = seconds_between(t0, t1);
  ref.check.digest = kFnvBasis;
  for (std::size_t t = 0; t < shape.models.size(); ++t) {
    for (const double factor : shape.factors) {
      for (const core::SimulationConfig& config : shape.configs) {
        std::vector<core::SimulationResult> results;
        for (std::size_t s = 0; s < shape.scale.sets; ++s) {
          const Clock::time_point c0 = Clock::now();
          results.push_back(
              exp::simulate_sweep_cell(ensembles[t][s], factor, config, s));
          ref.cell_s.push_back(seconds_between(c0, Clock::now()));
          const core::SimulationResult& r = results.back();
          const bool valid =
              dynp::metrics::validate_outcomes(
                  ensembles[t][s].with_shrinking_factor(factor), r.outcomes)
                  .ok();
          ++report.attempted;
          if (!valid) ++report.failed;
          ref.check.valid = ref.check.valid && valid;
          ref.check.digest = fold_starts(ref.check.digest, r.outcomes);
          ref.check.decisions += r.decisions;
          ref.check.switches += r.switches;
          ref.events += r.events;
        }
        ref.points.push_back(exp::combine_results(results));
        ref.check.sldwa += ref.points.back().sldwa;
      }
    }
  }
  ref.wall_s = seconds_between(t1, Clock::now());
  return ref;
}

/// One orchestrated grid from an empty cache directory.
struct GridRun {
  double setup_s = 0;  ///< orchestrator construction (ensemble generation)
  double wall_s = 0;   ///< `run_grid`
  exp::SweepStats stats;
  std::uint64_t events = 0;
  std::vector<double> gaps_us;
  bool matches = false;
};

[[nodiscard]] GridRun run_orchestrated(const Shape& shape, std::size_t threads,
                               const Options& options,
                               const Reference& ref) {
  static int serial = 0;
  const std::string dir = options.work_dir + "/sweep-cache-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(serial++);
  std::filesystem::remove_all(dir);
  GridRun run;
  LatencyObserver observer;
  std::vector<core::SimulationConfig> configs = shape.configs;
  for (core::SimulationConfig& c : configs) c.observer = &observer;
  exp::OrchestratorOptions orchestrator_options;
  orchestrator_options.threads = threads;
  orchestrator_options.cache_dir = dir;
  const Clock::time_point t0 = Clock::now();
  exp::SweepOrchestrator orchestrator(shape.models, shape.scale,
                                      orchestrator_options);
  const Clock::time_point t1 = Clock::now();
  const exp::SweepGrid grid = orchestrator.run_grid(shape.factors, configs);
  const Clock::time_point t2 = Clock::now();
  std::filesystem::remove_all(dir);
  run.setup_s = seconds_between(t0, t1);
  run.wall_s = seconds_between(t1, t2);
  run.stats = orchestrator.stats();
  run.events = observer.events();
  run.gaps_us = observer.gaps_us();
  run.matches = same_grid(grid, ref.points) &&
                run.stats.cells_simulated == shape.cells() &&
                run.events == ref.events;
  return run;
}

[[nodiscard]] Report run_untraced(const Shape& shape, const Options& options) {
  Report report;
  const Reference ref = simulate_cells(shape, report);
  std::optional<Check> first;
  if (!judge(ref.check, options, first)) ++report.failed;

  std::vector<double> setup_s, cells_per_s, events_per_s, p50, p99;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < options.seconds ||
         cells_per_s.size() < static_cast<std::size_t>(kMinReps)) {
    const GridRun run = run_orchestrated(shape, shape.threads, options, ref);
    report.attempted += shape.cells();
    if (!run.matches) report.failed += shape.cells();
    setup_s.push_back(run.setup_s);
    cells_per_s.push_back(static_cast<double>(shape.cells()) / run.wall_s);
    events_per_s.push_back(static_cast<double>(run.events) / run.wall_s);
    p50.push_back(quantile(run.gaps_us, 0.50));
    p99.push_back(quantile(run.gaps_us, 0.99));
  }
  std::printf("timed grids: %zu of %zu cells on %zu threads\n",
              cells_per_s.size(), shape.cells(), shape.threads);
  report.add("events_per_s", median(events_per_s), "1/s");
  report.add("event_us_p50", median(p50), "us");
  report.add("event_us_p99", median(p99), "us");
  report.add("cells_per_s", median(cells_per_s), "1/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("setup_s", median(setup_s), "s");
  return report;
}

[[nodiscard]] Report run_traced(const Shape& shape, const Options& options) {
  Report report;
  // The serial cell-by-cell pass is the traced run of this workload.
  const Reference ref = simulate_cells(shape, report);
  std::optional<Check> first;
  if (!judge(ref.check, options, first)) ++report.failed;

  // Untraced references: the same grid on one worker, and on the
  // benchmark's worker count.
  const GridRun serial = run_orchestrated(shape, 1, options, ref);
  std::vector<double> ensemble_s, wall_s, steals;
  bool all_match = serial.matches;
  for (int r = 0; r < kMinReps; ++r) {
    const GridRun run = run_orchestrated(shape, shape.threads, options, ref);
    all_match = all_match && run.matches;
    ensemble_s.push_back(run.setup_s);
    wall_s.push_back(run.wall_s);
    steals.push_back(static_cast<double>(run.stats.stolen_tasks));
  }
  report.attempted += (kMinReps + 1) * shape.cells();
  if (!all_match) {
    report.fatal = "a grid differs from the cell-by-cell reference";
    return report;
  }

  // PointCache::store, one entry per point, into a fresh directory.
  std::vector<double> store_us;
  {
    const std::string dir = options.work_dir + "/sweep-store-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    const exp::PointCache cache(dir);
    std::size_t i = 0;
    for (const workload::TraceModel& model : shape.models) {
      for (const double factor : shape.factors) {
        for (const core::SimulationConfig& config : shape.configs) {
          const std::string key =
              exp::PointCache::key_string(model, shape.scale, factor, config);
          const Clock::time_point t0 = Clock::now();
          cache.store(key, ref.points[i++]);
          store_us.push_back(micros_between(t0, Clock::now()));
        }
      }
    }
    std::filesystem::remove_all(dir);
  }

  std::printf("work counts: core.events=%llu core.decisions=%llu "
              "core.switches=%llu rms.jobs_placed=0 rms.jobs_moved=0 "
              "rms.segments_peak=0 exp.cells=%zu\n",
              static_cast<unsigned long long>(ref.events),
              static_cast<unsigned long long>(ref.check.decisions),
              static_cast<unsigned long long>(ref.check.switches),
              shape.cells());

  const double cell_total = sum(ref.cell_s);
  LayerReport l;
  l.simulate_s = cell_total;
  l.events = static_cast<double>(ref.events);
  l.decisions = static_cast<double>(ref.check.decisions);
  l.switches = static_cast<double>(ref.check.switches);
  l.generate_s = ref.generate_s;
  l.ensemble_s = median(ensemble_s);
  l.cells = static_cast<double>(shape.cells());
  l.cell_s_p50 = quantile(ref.cell_s, 0.5);
  l.cell_s_p99 = quantile(ref.cell_s, 0.99);
  l.steals = median(steals);
  l.pool_idle_frac =
      1 - cell_total / (static_cast<double>(shape.threads) * median(wall_s));
  l.cache_store_us_p50 = quantile(store_us, 0.5);
  l.attributed_frac = cell_total / serial.wall_s;
  l.overhead_frac = ref.wall_s / serial.wall_s - 1;
  l.emit(report, true);
  return report;
}

}  // namespace

Report run_sweep_workload(const Options& options) {
  const Shape shape(options.seed);
  return options.trace ? run_traced(shape, options)
                       : run_untraced(shape, options);
}

}  // namespace perfbench
