#pragma once

/// \file bench.hpp
/// Shared vocabulary of the benchmark program: run options, the reported
/// metrics, timing and percentile helpers, the output-check record and the
/// start-time digest.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double micros_between(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile \p q in [0, 1] of \p v (0 for an empty
/// sample, so a layer a workload never enters reports 0).
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// Reference values of one workload's output for one seed.
struct Expected {
  double sldwa = 0;
  std::uint64_t decisions = 0;
  std::uint64_t switches = 0;
  std::string digest;
};

/// Command-line options of one benchmark invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for temporary files (point caches) inside the checkout.
  std::string work_dir = ".";
  std::optional<Expected> expected;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Set when a self-check failed: the run then reports no numbers.
  std::string fatal;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// The checked output values of one operation (one simulation, or one
/// whole sweep grid).
struct Check {
  double sldwa = 0;
  std::uint64_t decisions = 0;
  std::uint64_t switches = 0;
  std::uint64_t digest = 0;
  bool valid = true;  ///< `metrics::validate_outcomes` passed

  [[nodiscard]] std::string digest_hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
  }
  [[nodiscard]] bool same_values(const Check& o) const {
    return sldwa == o.sldwa && decisions == o.decisions &&
           switches == o.switches && digest == o.digest;
  }
  [[nodiscard]] bool matches(const Expected& e) const {
    return sldwa == e.sldwa && decisions == e.decisions &&
           switches == e.switches && digest_hex() == e.digest;
  }
};

/// Folds every job's start time (in job-id order) into an FNV-1a digest.
[[nodiscard]] inline std::uint64_t fold_starts(
    std::uint64_t hash, const std::vector<dynp::metrics::JobOutcome>& out) {
  for (const dynp::metrics::JobOutcome& o : out) {
    char bytes[sizeof(double)];
    std::memcpy(bytes, &o.start, sizeof bytes);
    for (const char c : bytes) {
      hash ^= static_cast<std::uint8_t>(c);
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Judges one operation's output: valid schedule, and values equal to the
/// reference (the expected values for the default seed, else the first
/// operation of this run, so every repetition must reproduce it).
/// Returns false when the operation failed.
[[nodiscard]] inline bool judge(const Check& check, const Options& options,
                                std::optional<Check>& first) {
  if (!first.has_value()) {
    first = check;
    std::printf("check: sldwa=%.17g decisions=%llu switches=%llu "
                "digest=%s schedule=%s\n",
                check.sldwa, static_cast<unsigned long long>(check.decisions),
                static_cast<unsigned long long>(check.switches),
                check.digest_hex().c_str(), check.valid ? "valid" : "INVALID");
  }
  if (!check.valid) return false;
  if (options.expected.has_value()) return check.matches(*options.expected);
  return check.same_values(*first);
}

/// Every per-layer metric of the traced run. A workload fills what it
/// exercises; a layer it bypasses reports 0.
struct LayerReport {
  double plan_us_p50 = 0, plan_us_p99 = 0;
  double base_profile_us_p50 = 0, base_profile_us_p99 = 0;
  double full_plans = 0, incremental_plans = 0;
  double jobs_placed = 0, jobs_replayed = 0;
  double compress_us_p50 = 0, compress_us_p99 = 0, profile_copy_us_p50 = 0;
  double compress_sweeps = 0, jobs_moved = 0;
  double segments_p50 = 0, segments_peak = 0;
  double reserve_us_p50 = 0, reserve_us_p99 = 0;
  double release_us_p50 = 0, release_us_p99 = 0;
  double trim_us_p50 = 0, trim_us_p99 = 0;
  double queue_update_us_p50 = 0, queue_update_us_p99 = 0;
  double queue_depth_p50 = 0, queue_depth_p99 = 0;
  double preview_us_p50 = 0, preview_us_p99 = 0;
  double simulate_s = 0, events = 0, decisions = 0, switches = 0;
  double decide_us_p50 = 0, decide_us_p99 = 0;
  double calendar_ns_per_event = 0;
  double generate_s = 0;
  double ensemble_s = 0, cells = 0, cell_s_p50 = 0, cell_s_p99 = 0;
  double steals = 0, pool_idle_frac = 0, cache_store_us_p50 = 0;
  // Share of `simulate_s` spent in each replayed layer.
  double plan_frac = 0, base_profile_frac = 0, compress_frac = 0;
  double profile_copy_frac = 0, reserve_release_frac = 0, trim_frac = 0;
  double queue_frac = 0, preview_frac = 0, decide_frac = 0;
  double calendar_frac = 0;
  double attributed_frac = 0, overhead_frac = 0, record_overhead_frac = 0;
  double timer_ns = 0;  ///< subtracted from every timed replay call

  /// Appends the fields to \p report under their published names; the
  /// `exp.*` ones only \p with_exp (the sweep workload).
  void emit(Report& report, bool with_exp) const;
};

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Entry points of the workload families.
[[nodiscard]] bool is_simulate_workload(const std::string& name);
[[nodiscard]] Report run_simulate_workload(const Options& options);
[[nodiscard]] Report run_sweep_workload(const Options& options);

}  // namespace perfbench
