/// \file main.cpp
/// The benchmark program: `perfbench --workload <name> --seed <n> --seconds <s>
/// --trace <0|1> [--work-dir <dir>] [--expect-* ...]`.
///
/// Prints the build stamp, each metric as `metric <name> = <value> <unit>`,
/// and as its last line one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics`. Exits 0 only when every output
/// check passed; a failed traced self-check prints no numbers at all.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM is this program's own high-water mark. getrusage's ru_maxrss is
  // not: it survives execve, so it would report the launching process's
  // footprint whenever that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;  // no /proc/self/status
}

void LayerReport::emit(Report& r, bool with_exp) const {
  r.add("rms.plan_us_p50", plan_us_p50, "us");
  r.add("rms.plan_us_p99", plan_us_p99, "us");
  r.add("rms.base_profile_us_p50", base_profile_us_p50, "us");
  r.add("rms.base_profile_us_p99", base_profile_us_p99, "us");
  r.add("rms.full_plans", full_plans, "count");
  r.add("rms.incremental_plans", incremental_plans, "count");
  r.add("rms.jobs_placed", jobs_placed, "count");
  r.add("rms.jobs_replayed", jobs_replayed, "count");
  r.add("rms.compress_us_p50", compress_us_p50, "us");
  r.add("rms.compress_us_p99", compress_us_p99, "us");
  r.add("rms.profile_copy_us_p50", profile_copy_us_p50, "us");
  r.add("rms.compress_sweeps", compress_sweeps, "count");
  r.add("rms.jobs_moved", jobs_moved, "count");
  r.add("rms.segments_p50", segments_p50, "count");
  r.add("rms.segments_peak", segments_peak, "count");
  r.add("rms.reserve_us_p50", reserve_us_p50, "us");
  r.add("rms.reserve_us_p99", reserve_us_p99, "us");
  r.add("rms.release_us_p50", release_us_p50, "us");
  r.add("rms.release_us_p99", release_us_p99, "us");
  r.add("rms.trim_us_p50", trim_us_p50, "us");
  r.add("rms.trim_us_p99", trim_us_p99, "us");
  r.add("policies.queue_update_us_p50", queue_update_us_p50, "us");
  r.add("policies.queue_update_us_p99", queue_update_us_p99, "us");
  r.add("policies.queue_depth_p50", queue_depth_p50, "count");
  r.add("policies.queue_depth_p99", queue_depth_p99, "count");
  r.add("metrics.preview_us_p50", preview_us_p50, "us");
  r.add("metrics.preview_us_p99", preview_us_p99, "us");
  r.add("core.simulate_s", simulate_s, "s");
  r.add("core.events", events, "count");
  r.add("core.decisions", decisions, "count");
  r.add("core.switches", switches, "count");
  r.add("core.decide_us_p50", decide_us_p50, "us");
  r.add("core.decide_us_p99", decide_us_p99, "us");
  r.add("sim.calendar_ns_per_event", calendar_ns_per_event, "ns");
  r.add("workload.generate_s", generate_s, "s");
  r.add("rms.plan_frac", plan_frac, "ratio");
  r.add("rms.base_profile_frac", base_profile_frac, "ratio");
  r.add("rms.compress_frac", compress_frac, "ratio");
  r.add("rms.profile_copy_frac", profile_copy_frac, "ratio");
  r.add("rms.reserve_release_frac", reserve_release_frac, "ratio");
  r.add("rms.trim_frac", trim_frac, "ratio");
  r.add("policies.queue_frac", queue_frac, "ratio");
  r.add("metrics.preview_frac", preview_frac, "ratio");
  r.add("core.decide_frac", decide_frac, "ratio");
  r.add("sim.calendar_frac", calendar_frac, "ratio");
  r.add("trace.attributed_frac", attributed_frac, "ratio");
  r.add("trace.overhead_frac", overhead_frac, "ratio");
  r.add("trace.record_overhead_frac", record_overhead_frac, "ratio");
  r.add("trace.timer_ns", timer_ns, "ns");
  if (!with_exp) return;
  r.add("exp.ensemble_s", ensemble_s, "s");
  r.add("exp.cells", cells, "count");
  r.add("exp.cell_s_p50", cell_s_p50, "s");
  r.add("exp.cell_s_p99", cell_s_p99, "s");
  r.add("exp.steals", steals, "count");
  r.add("exp.pool_idle_frac", pool_idle_frac, "ratio");
  r.add("exp.cache_store_us_p50", cache_store_us_p50, "us");
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "                 [--expect-sldwa <x> --expect-decisions <n> "
               "--expect-switches <n> --expect-digest <hex>]\n",
               why.c_str());
  std::exit(2);
}

[[nodiscard]] Options parse(int argc, char** argv) {
  Options o;
  Expected e;
  int expect_fields = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = value == "1";
      } else if (arg == "--work-dir") {
        o.work_dir = value;
      } else if (arg == "--expect-sldwa") {
        e.sldwa = std::stod(value);
        ++expect_fields;
      } else if (arg == "--expect-decisions") {
        e.decisions = std::stoull(value);
        ++expect_fields;
      } else if (arg == "--expect-switches") {
        e.switches = std::stoull(value);
        ++expect_fields;
      } else if (arg == "--expect-digest") {
        e.digest = value;
        ++expect_fields;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (expect_fields == 4) {
    o.expected = e;
  } else if (expect_fields != 0) {
    usage("give all four --expect-* values or none");
  }
  return o;
}

void print_result(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("metric %s = %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(DYNP_OBS_DISABLED)
  const char* obs_hooks = "off";
#else
  const char* obs_hooks = "on";
#endif
  std::printf("build: type=%s compiler=%s obs_hooks=%s\n", build_type.c_str(),
              PERFBENCH_COMPILER, obs_hooks);
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; "
                 "configure with CMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  std::printf("workload: %s seed=%llu seconds=%g trace=%d expected=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.expected ? "recorded" : "none");
  std::fflush(stdout);

  Report report;
  if (is_simulate_workload(options.workload)) {
    report = run_simulate_workload(options);
  } else if (options.workload == "sweep_grid") {
    report = run_sweep_workload(options);
  } else {
    usage("unknown workload " + options.workload);
  }

  if (!report.fatal.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", report.fatal.c_str());
    return 1;
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  print_result(report);
  return report.failed == 0 ? 0 : 1;
}
