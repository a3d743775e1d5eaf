/// \file simulate_workloads.cpp
/// The three single-simulation workloads: one generated trace replayed in
/// simulated time through `core::simulate`, one simulation at a time.
///
/// Inputs: `workload::generate` draws a base job set from the paper
/// harness's master seed, and `--seed` derives eight perturbed copies of it
/// (submit times jittered by up to ten minutes, actual run times by up to
/// ten percent, estimates untouched); one pass simulates all eight. Every
/// seed therefore gives different schedules and digests while keeping the
/// load profile of the base trace. Scheduling is chaotic, so each copy
/// still does a few percent more or less work than another; a pass sums
/// eight of them to average that out, and runs with different seeds
/// measure comparable work. Metrics are medians over the timed passes of a
/// run.

#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/decider.hpp"
#include "exp/experiment.hpp"
#include "metrics/validate.hpp"
#include "replay.hpp"
#include "util/rng.hpp"
#include "workload/models.hpp"

namespace perfbench {

namespace core = dynp::core;
namespace workload = dynp::workload;

namespace {

struct SimWorkload {
  workload::TraceModel model;
  std::size_t jobs = 0;
  double factor = 1;
  core::SimulationConfig config;
};

[[nodiscard]] std::optional<SimWorkload> find_workload(const std::string& name) {
  SimWorkload w;
  if (name == "paper_replan") {
    w.model = workload::kth_model();
    w.jobs = 2000;
    w.factor = 0.5;
    w.config = core::dynp_config(dynp::exp::sjf_preferred_decider());
    w.config.semantics = core::PlannerSemantics::kReplan;
  } else if (name == "paper_guarantee") {
    w.model = workload::kth_model();
    w.jobs = 1200;
    w.factor = 0.5;
    w.config = core::dynp_config(core::make_advanced_decider());
    w.config.semantics = core::PlannerSemantics::kGuarantee;
  } else if (name == "federation_guarantee") {
    w.model = workload::scale_machine(workload::kth_model(), 10000);
    w.jobs = 100000;
    w.factor = 0.3;
    w.config = core::static_config(dynp::policies::PolicyKind::kFcfs);
    w.config.semantics = core::PlannerSemantics::kGuarantee;
  } else {
    return std::nullopt;
  }
  return w;
}

constexpr std::uint64_t kBaseSeed = 42;
constexpr double kSubmitJitterS = 600;
constexpr double kRuntimeJitter = 0.1;
/// Perturbed copies of the base trace one run simulates (one "pass").
constexpr std::size_t kInputs = 8;
/// Input builds per run: at least kSetupReps. After every timed pass of an
/// untraced run, builds are timed until they took kSetupShare of the pass's
/// wall time (single builds vary by +-25 % on a shared host, so a steady
/// median needs dozens of them).
constexpr std::size_t kSetupReps = 7;
constexpr double kSetupShare = 0.1;
constexpr int kMinPasses = 3;

struct Inputs {
  std::vector<workload::JobSet> sets;
  double generate_s = 0;  ///< `workload::generate` alone
  double setup_s = 0;     ///< generation + perturbation + shrinking
};

/// The base trace, then kInputs perturbations of it derived from \p seed.
[[nodiscard]] Inputs make_inputs(const SimWorkload& w, std::uint64_t seed) {
  Inputs in;
  const Clock::time_point t0 = Clock::now();
  const workload::JobSet base = workload::generate(w.model, w.jobs, kBaseSeed);
  const Clock::time_point t1 = Clock::now();
  for (std::size_t k = 0; k < kInputs; ++k) {
    std::vector<workload::Job> jobs = base.jobs();
    dynp::util::Xoshiro256 rng(dynp::util::derive_seed(seed, 0x9e7b, k));
    for (workload::Job& job : jobs) {
      job.submit += std::floor(rng.next_double() * kSubmitJitterS);
      const double scale = 1 + (2 * rng.next_double() - 1) * kRuntimeJitter;
      job.actual_runtime = std::clamp(std::round(job.actual_runtime * scale),
                                      1.0, job.estimated_runtime);
    }
    in.sets.push_back(workload::JobSet(base.machine(), std::move(jobs))
                          .with_shrinking_factor(w.factor));
  }
  const Clock::time_point t2 = Clock::now();
  in.generate_s = seconds_between(t0, t1);
  in.setup_s = seconds_between(t0, t2);
  return in;
}

/// Times repeated input builds; `setup_s` and `workload.generate_s` are
/// the medians. The untraced run spreads its builds between the timed
/// passes, so set-up is sampled over the same stretch of host time as the
/// simulations rather than in one burst at the start.
struct SetupTimer {
  std::vector<double> setup_s;
  std::vector<double> generate_s;

  Inputs build(const SimWorkload& w, std::uint64_t seed) {
    Inputs in = make_inputs(w, seed);
    setup_s.push_back(in.setup_s);
    generate_s.push_back(in.generate_s);
    return in;
  }
  void rebuild(const SimWorkload& w, std::uint64_t seed, std::size_t times) {
    for (std::size_t i = 0; i < times; ++i) (void)build(w, seed);
  }
  /// Builds at least once, until the builds took \p budget_s in total.
  void rebuild_for(const SimWorkload& w, std::uint64_t seed, double budget_s) {
    double spent = 0;
    do {
      spent += build(w, seed).setup_s;
    } while (spent < budget_s);
  }
};

/// Folds one simulation's checked values into a pass's.
void fold_check(Check& pass, const workload::JobSet& set,
                const core::SimulationResult& result) {
  pass.valid = pass.valid &&
               dynp::metrics::validate_outcomes(set, result.outcomes).ok();
  pass.sldwa += result.summary.sldwa;
  pass.decisions += result.decisions;
  pass.switches += result.switches;
  pass.digest = fold_starts(pass.digest, result.outcomes);
}

struct Pass {
  double wall_s = 0;            ///< summed `simulate` wall time
  std::uint64_t events = 0;
  std::vector<double> gaps_us;  ///< event-opening gaps
};

/// Simulates every input once under \p config, judging the pass's outputs.
/// \p observer must be the one wired into \p config.
Pass run_pass(const Inputs& in, const core::SimulationConfig& config,
              LatencyObserver& observer, const Options& options,
              std::optional<Check>& first, Report& report) {
  Pass pass;
  Check check;
  check.digest = kFnvBasis;
  for (const workload::JobSet& set : in.sets) {
    observer.reset(2 * set.size());
    const Clock::time_point t0 = Clock::now();
    const core::SimulationResult result = core::simulate(set, config);
    pass.wall_s += seconds_between(t0, Clock::now());
    fold_check(check, set, result);
    const std::vector<double> gaps = observer.gaps_us();
    pass.gaps_us.insert(pass.gaps_us.end(), gaps.begin(), gaps.end());
    pass.events += result.events;
  }
  report.attempted += in.sets.size();
  if (!judge(check, options, first)) report.failed += in.sets.size();
  return pass;
}

[[nodiscard]] Report run_untraced(const SimWorkload& w, const Options& options) {
  Report report;
  SetupTimer setup;
  const Inputs in = setup.build(w, options.seed);
  LatencyObserver observer;
  core::SimulationConfig config = w.config;
  config.observer = &observer;

  std::optional<Check> first;
  std::vector<double> events_per_s, p50, p99;
  {
    // Warm-up: faults in the allocator and caches; checked, not timed.
    const workload::JobSet& set = in.sets.front();
    const core::SimulationResult result = core::simulate(set, w.config);
    ++report.attempted;
    if (!dynp::metrics::validate_outcomes(set, result.outcomes).ok()) {
      ++report.failed;
    }
  }
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < options.seconds ||
         events_per_s.size() < static_cast<std::size_t>(kMinPasses)) {
    const Pass pass = run_pass(in, config, observer, options, first, report);
    events_per_s.push_back(static_cast<double>(pass.events) / pass.wall_s);
    p50.push_back(quantile(pass.gaps_us, 0.50));
    p99.push_back(quantile(pass.gaps_us, 0.99));
    setup.rebuild_for(w, options.seed, kSetupShare * pass.wall_s);
  }
  if (setup.setup_s.size() < kSetupReps) {
    setup.rebuild(w, options.seed, kSetupReps - setup.setup_s.size());
  }
  std::printf("timed passes of %zu simulations, events/s:", in.sets.size());
  for (const double v : events_per_s) std::printf(" %.0f", v);
  std::printf("\n");
  report.add("events_per_s", median(events_per_s), "1/s");
  report.add("event_us_p50", median(p50), "us");
  report.add("event_us_p99", median(p99), "us");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("input builds, s:");
  for (const double v : setup.setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  report.add("setup_s", median(setup.setup_s), "s");
  return report;
}

[[nodiscard]] bool same_counts(const LayerTrace& a, const LayerTrace& b) {
  return a.events == b.events && a.decisions == b.decisions &&
         a.switches == b.switches && a.plan.full_plans == b.plan.full_plans &&
         a.plan.incremental_plans == b.plan.incremental_plans &&
         a.plan.jobs_placed == b.plan.jobs_placed &&
         a.plan.jobs_replayed == b.plan.jobs_replayed &&
         a.compress_sweeps == b.compress_sweeps &&
         a.jobs_moved == b.jobs_moved && a.segments_peak == b.segments_peak;
}

[[nodiscard]] Report run_traced(const SimWorkload& w, const Options& options) {
  Report report;
  SetupTimer setup;
  const Inputs in = setup.build(w, options.seed);
  setup.rebuild(w, options.seed, kSetupReps - 1);

  // Per input: record the event stream through the observer and a
  // delegating decider, replay it once (a warm-up whose work counts must
  // equal the second's and the simulation's own), then replay it again
  // between two untraced simulations of the plain configuration. Layer
  // shares divide the second replay's times by the mean of those two, so
  // the reference comes from the same stretch of host time.
  const double timer_us = timer_overhead_us();
  std::optional<Check> first;
  LayerTrace trace;
  double simulate_s = 0;
  double traced_s = 0;
  Check traced_check, before_check, after_check;
  for (Check* c : {&traced_check, &before_check, &after_check}) {
    c->digest = kFnvBasis;
  }
  const auto untraced = [&](const workload::JobSet& set, Check& check) {
    const Clock::time_point t0 = Clock::now();
    const core::SimulationResult result = core::simulate(set, w.config);
    simulate_s += seconds_between(t0, Clock::now()) / 2;
    fold_check(check, set, result);
    ++report.attempted;
  };
  for (const workload::JobSet& set : in.sets) {
    RecordingObserver recorder(set.size());
    core::SimulationConfig config = w.config;
    config.observer = &recorder;
    std::shared_ptr<RecordingDecider> decider;
    if (config.decider != nullptr) {
      decider = std::make_shared<RecordingDecider>(config.decider);
      config.decider = decider;
    }
    const Clock::time_point t0 = Clock::now();
    const core::SimulationResult result = core::simulate(set, config);
    traced_s += seconds_between(t0, Clock::now());
    fold_check(traced_check, set, result);
    ++report.attempted;
    const Recording& rec = recorder.recording();
    if (decider != nullptr && decider->log() != rec.decisions) {
      report.fatal = "the decider and the observer saw different decisions";
      return report;
    }
    const LayerTrace first_replay = replay(set, w.config, rec, timer_us);
    untraced(set, before_check);
    LayerTrace second_replay = replay(set, w.config, rec, timer_us);
    untraced(set, after_check);
    report.attempted += 2;
    for (const LayerTrace* t :
         std::initializer_list<const LayerTrace*>{&first_replay,
                                                  &second_replay}) {
      if (!t->mismatch.empty()) {
        report.fatal = "replay self-check: " + t->mismatch;
        return report;
      }
    }
    if (!same_counts(first_replay, second_replay) ||
        first_replay.events != result.events ||
        first_replay.decisions != result.decisions ||
        first_replay.switches != result.switches) {
      report.fatal = "work counts differ between runs of the same seed";
      return report;
    }
    trace.merge(std::move(second_replay));
  }
  for (const Check* c : {&traced_check, &before_check, &after_check}) {
    if (!judge(*c, options, first)) report.failed += in.sets.size();
  }
  std::printf("work counts: core.events=%llu core.decisions=%llu "
              "core.switches=%llu rms.jobs_placed=%llu rms.jobs_moved=%llu "
              "rms.segments_peak=%llu exp.cells=0\n",
              static_cast<unsigned long long>(trace.events),
              static_cast<unsigned long long>(trace.decisions),
              static_cast<unsigned long long>(trace.switches),
              static_cast<unsigned long long>(trace.plan.jobs_placed),
              static_cast<unsigned long long>(trace.jobs_moved),
              static_cast<unsigned long long>(trace.segments_peak));

  const auto share = [&](const std::vector<double>& us) {
    return sum(us) * 1e-6 / simulate_s;
  };
  LayerReport l;
  l.plan_us_p50 = quantile(trace.plan_us, 0.5);
  l.plan_us_p99 = quantile(trace.plan_us, 0.99);
  l.base_profile_us_p50 = quantile(trace.base_profile_us, 0.5);
  l.base_profile_us_p99 = quantile(trace.base_profile_us, 0.99);
  l.full_plans = static_cast<double>(trace.plan.full_plans);
  l.incremental_plans = static_cast<double>(trace.plan.incremental_plans);
  l.jobs_placed = static_cast<double>(trace.plan.jobs_placed);
  l.jobs_replayed = static_cast<double>(trace.plan.jobs_replayed);
  l.compress_us_p50 = quantile(trace.compress_us, 0.5);
  l.compress_us_p99 = quantile(trace.compress_us, 0.99);
  l.profile_copy_us_p50 = quantile(trace.copy_us, 0.5);
  l.compress_sweeps = static_cast<double>(trace.compress_sweeps);
  l.jobs_moved = static_cast<double>(trace.jobs_moved);
  l.segments_p50 = quantile(trace.segments, 0.5);
  l.segments_peak = static_cast<double>(trace.segments_peak);
  l.reserve_us_p50 = quantile(trace.reserve_us, 0.5);
  l.reserve_us_p99 = quantile(trace.reserve_us, 0.99);
  l.release_us_p50 = quantile(trace.release_us, 0.5);
  l.release_us_p99 = quantile(trace.release_us, 0.99);
  l.trim_us_p50 = quantile(trace.trim_us, 0.5);
  l.trim_us_p99 = quantile(trace.trim_us, 0.99);
  l.queue_update_us_p50 = quantile(trace.queue_us, 0.5);
  l.queue_update_us_p99 = quantile(trace.queue_us, 0.99);
  l.queue_depth_p50 = quantile(trace.queue_depth, 0.5);
  l.queue_depth_p99 = quantile(trace.queue_depth, 0.99);
  l.preview_us_p50 = quantile(trace.preview_us, 0.5);
  l.preview_us_p99 = quantile(trace.preview_us, 0.99);
  l.simulate_s = simulate_s;
  l.events = static_cast<double>(trace.events);
  l.decisions = static_cast<double>(trace.decisions);
  l.switches = static_cast<double>(trace.switches);
  l.decide_us_p50 = quantile(trace.decide_us, 0.5);
  l.decide_us_p99 = quantile(trace.decide_us, 0.99);
  l.calendar_ns_per_event = trace.calendar_s * 1e9 / static_cast<double>(trace.events);
  l.generate_s = median(setup.generate_s);
  l.plan_frac = share(trace.plan_us);
  l.base_profile_frac = share(trace.base_profile_us);
  l.compress_frac = share(trace.compress_us);
  l.profile_copy_frac = share(trace.copy_us);
  l.reserve_release_frac = share(trace.reserve_us) + share(trace.release_us);
  l.trim_frac = share(trace.trim_us);
  l.queue_frac = share(trace.queue_us);
  l.preview_frac = share(trace.preview_us);
  l.decide_frac = share(trace.decide_us);
  l.calendar_frac = trace.calendar_s / simulate_s;
  l.attributed_frac = trace.attributed_s() / simulate_s;
  l.overhead_frac = trace.wall_s / simulate_s - 1;
  l.record_overhead_frac = traced_s / simulate_s - 1;
  l.timer_ns = timer_us * 1e3;
  l.emit(report, false);
  return report;
}

}  // namespace

bool is_simulate_workload(const std::string& name) {
  return find_workload(name).has_value();
}

Report run_simulate_workload(const Options& options) {
  const SimWorkload w = *find_workload(options.workload);
  return options.trace ? run_traced(w, options) : run_untraced(w, options);
}

}  // namespace perfbench
