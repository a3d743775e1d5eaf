#pragma once

/// \file replay.hpp
/// The traced run's instruments, all built on public library seams:
///
///  * `LatencyObserver` — the only hook of an untraced run: one clock read
///    in each callback that opens an event (submit or finish), from any
///    number of simulation threads;
///  * `RecordingObserver` + `RecordingDecider` — record a run's event stream
///    (submits, finishes, starts, decision inputs and picks) through
///    `core::SimulationObserver` and a delegating `core::Decider`;
///  * `replay` — re-executes the recorded stream layer by layer through the
///    layers' public functions (`sim::EventQueue`, `policies::SortedQueue`,
///    `rms::Planner`, `rms::ResourceProfile`, `metrics::evaluate_preview`,
///    `core::Decider::decide`), timing every call, and checks that its
///    picks and starts equal what the simulation did.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/simulation.hpp"

namespace perfbench {

/// Stamps the wall clock at every callback that opens an event (submit or
/// finish). Any number of simulation threads may share one observer: each
/// thread appends to its own slot, so a single simulation behaves as with a
/// plain stamp vector.
class LatencyObserver final : public dynp::core::SimulationObserver {
 public:
  /// \p reserve: stamps each thread's slot holds without reallocating.
  explicit LatencyObserver(std::size_t reserve = std::size_t{1} << 16);

  void on_job_submitted(dynp::Time, const dynp::workload::Job&) override {
    stamp();
  }
  void on_job_finished(dynp::Time, const dynp::workload::Job&,
                       const dynp::metrics::JobOutcome&) override {
    stamp();
  }

  /// Drops every stamp. The accessors and `reset` are only valid while no
  /// simulation uses the observer.
  void reset(std::size_t reserve);
  [[nodiscard]] std::uint64_t events() const;
  /// Wall time between consecutive event openings on each thread, in
  /// microseconds.
  [[nodiscard]] std::vector<double> gaps_us() const;

 private:
  struct Slot {
    std::vector<Clock::time_point> stamps;
  };

  void stamp();

  std::uint64_t id_;  ///< renewed by `reset`, so threads take fresh slots
  std::size_t reserve_;
  std::mutex mutex_;  ///< guards `slots_` growth
  std::vector<std::unique_ptr<Slot>> slots_;
};

struct DecisionRecord {
  std::vector<double> values;
  std::size_t old_index = 0;
  std::size_t chosen = 0;

  [[nodiscard]] bool operator==(const DecisionRecord&) const = default;
};

/// One submit or finish event as the observer saw it.
struct EventRecord {
  dynp::Time time = 0;
  bool submit = false;  ///< false = finish
  dynp::JobId job = 0;
  std::uint32_t starts_begin = 0;  ///< range into `Recording::starts`
  std::uint32_t starts_end = 0;
  std::int64_t decision = -1;      ///< index into `Recording::decisions`
};

struct Recording {
  std::vector<EventRecord> events;
  std::vector<dynp::JobId> starts;
  std::vector<DecisionRecord> decisions;
};

class RecordingObserver final : public dynp::core::SimulationObserver {
 public:
  explicit RecordingObserver(std::size_t jobs);

  void on_job_submitted(dynp::Time now, const dynp::workload::Job& job) override;
  void on_job_started(dynp::Time now, const dynp::workload::Job& job) override;
  void on_job_finished(dynp::Time now, const dynp::workload::Job& job,
                       const dynp::metrics::JobOutcome& outcome) override;
  void on_decision(dynp::Time now, const dynp::core::DecisionInput& input,
                   std::size_t chosen) override;

  [[nodiscard]] const Recording& recording() const noexcept { return rec_; }

 private:
  void open(dynp::Time now, bool submit, dynp::JobId job);
  Recording rec_;
};

/// Delegates to the configured decider and logs each call. Serves a single
/// simulation at a time (the log is unsynchronised).
class RecordingDecider final : public dynp::core::Decider {
 public:
  explicit RecordingDecider(std::shared_ptr<const dynp::core::Decider> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::size_t decide(
      const dynp::core::DecisionInput& input) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::optional<std::size_t> fallback_index() const override {
    return inner_->fallback_index();
  }

  [[nodiscard]] const std::vector<DecisionRecord>& log() const noexcept {
    return log_;
  }

 private:
  std::shared_ptr<const dynp::core::Decider> inner_;
  mutable std::vector<DecisionRecord> log_;
};

/// Per-layer samples (microseconds per call) and work counts of one replay.
struct LayerTrace {
  std::vector<double> queue_us;         ///< SortedQueue insert / remove_marked
  std::vector<double> base_profile_us;  ///< Planner::base_profile_into
  std::vector<double> plan_us;          ///< plan_into / replan_inserted_into
  std::vector<double> preview_us;       ///< preview build + evaluate_preview
  std::vector<double> decide_us;        ///< Decider::decide
  std::vector<double> compress_us;      ///< one candidate's compression
  std::vector<double> copy_us;          ///< profile + reservation copies
  std::vector<double> reserve_us;       ///< earliest_start + allocate
  std::vector<double> release_us;       ///< deallocate of a finished tail
  std::vector<double> trim_us;          ///< ResourceProfile::trim_before
  std::vector<double> segments;         ///< profile segments after each event
  std::vector<double> queue_depth;      ///< waiting jobs after each event
  double calendar_s = 0;                ///< sim::EventQueue push + pop
  std::uint64_t calendar_calls = 0;     ///< timed pushes and pops
  double wall_s = 0;                    ///< whole replay

  std::uint64_t events = 0;
  std::uint64_t decisions = 0;
  std::uint64_t switches = 0;
  dynp::rms::PlanStats plan;
  std::uint64_t compress_sweeps = 0;
  std::uint64_t jobs_moved = 0;
  std::uint64_t segments_peak = 0;

  /// First self-check failure ("" = the replay reproduced the run).
  std::string mismatch;

  /// Sum of every timed layer call, in seconds.
  [[nodiscard]] double attributed_s() const;

  /// Pools \p other's samples and counts into this trace.
  void merge(LayerTrace&& other);
};

/// Wall time, in microseconds, of a timed call that does nothing: the clock
/// reads that every replay sample carries.
[[nodiscard]] double timer_overhead_us();

/// Replays \p rec of a run of \p config over \p set. Supports the planning
/// semantics (replan, guarantee) with tuning on every event, no planning
/// budget and no faults — the benchmark's configurations; anything else
/// shows up as a self-check mismatch. The decider is `config.decider`
/// itself, not a recording wrapper. \p timer_us (from
/// `timer_overhead_us`) is subtracted from every timed call, so samples and
/// shares hold the layers' own time.
[[nodiscard]] LayerTrace replay(const dynp::workload::JobSet& set,
                                const dynp::core::SimulationConfig& config,
                                const Recording& rec, double timer_us);

}  // namespace perfbench
