#include "replay.hpp"

#include <array>
#include <atomic>
#include <limits>

#include "policies/policy.hpp"
#include "rms/planner.hpp"
#include "rms/profile.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

using dynp::JobId;
using dynp::Time;
namespace core = dynp::core;
namespace rms = dynp::rms;

RecordingObserver::RecordingObserver(std::size_t jobs) {
  rec_.events.reserve(2 * jobs);
  rec_.starts.reserve(jobs);
}

void RecordingObserver::open(Time now, bool submit, JobId job) {
  const auto at = static_cast<std::uint32_t>(rec_.starts.size());
  rec_.events.push_back(EventRecord{now, submit, job, at, at, -1});
}

void RecordingObserver::on_job_submitted(Time now,
                                         const dynp::workload::Job& job) {
  open(now, true, job.id);
}

void RecordingObserver::on_job_finished(Time now,
                                        const dynp::workload::Job& job,
                                        const dynp::metrics::JobOutcome&) {
  open(now, false, job.id);
}

void RecordingObserver::on_job_started(Time, const dynp::workload::Job& job) {
  rec_.starts.push_back(job.id);
  rec_.events.back().starts_end = static_cast<std::uint32_t>(rec_.starts.size());
}

void RecordingObserver::on_decision(Time, const core::DecisionInput& input,
                                    std::size_t chosen) {
  rec_.events.back().decision = static_cast<std::int64_t>(rec_.decisions.size());
  rec_.decisions.push_back(DecisionRecord{input.values, input.old_index, chosen});
}

namespace {

/// The per-call time samples of a trace, in microseconds.
constexpr std::array kTimedSamples{
    &LayerTrace::queue_us,    &LayerTrace::base_profile_us,
    &LayerTrace::plan_us,     &LayerTrace::preview_us,
    &LayerTrace::decide_us,   &LayerTrace::compress_us,
    &LayerTrace::copy_us,     &LayerTrace::reserve_us,
    &LayerTrace::release_us,  &LayerTrace::trim_us};

[[nodiscard]] std::uint64_t next_observer_id() {
  static std::atomic<std::uint64_t> next{0};
  return ++next;
}

}  // namespace

LatencyObserver::LatencyObserver(std::size_t reserve)
    : id_(next_observer_id()), reserve_(reserve) {}

void LatencyObserver::reset(std::size_t reserve) {
  id_ = next_observer_id();
  reserve_ = reserve;
  slots_.clear();
}

void LatencyObserver::stamp() {
  thread_local std::uint64_t owner = 0;
  thread_local Slot* slot = nullptr;
  if (owner != id_) {
    const std::lock_guard lock(mutex_);
    slots_.push_back(std::make_unique<Slot>());
    slot = slots_.back().get();
    slot->stamps.reserve(reserve_);
    owner = id_;
  }
  slot->stamps.push_back(Clock::now());
}

std::uint64_t LatencyObserver::events() const {
  std::uint64_t n = 0;
  for (const auto& slot : slots_) n += slot->stamps.size();
  return n;
}

std::vector<double> LatencyObserver::gaps_us() const {
  std::vector<double> gaps;
  for (const auto& slot : slots_) {
    for (std::size_t i = 1; i < slot->stamps.size(); ++i) {
      gaps.push_back(micros_between(slot->stamps[i - 1], slot->stamps[i]));
    }
  }
  return gaps;
}

std::size_t RecordingDecider::decide(const core::DecisionInput& input) const {
  const std::size_t chosen = inner_->decide(input);
  log_.push_back(DecisionRecord{input.values, input.old_index, chosen});
  return chosen;
}

double LayerTrace::attributed_s() const {
  double us = 0;
  for (const auto member : kTimedSamples) us += sum(this->*member);
  return us * 1e-6 + calendar_s;
}

void LayerTrace::merge(LayerTrace&& other) {
  const auto append = [&](std::vector<double> LayerTrace::*member) {
    (this->*member).insert((this->*member).end(), (other.*member).begin(),
                           (other.*member).end());
  };
  for (const auto member : kTimedSamples) append(member);
  append(&LayerTrace::segments);
  append(&LayerTrace::queue_depth);
  calendar_s += other.calendar_s;
  calendar_calls += other.calendar_calls;
  wall_s += other.wall_s;
  events += other.events;
  decisions += other.decisions;
  switches += other.switches;
  plan.full_plans += other.plan.full_plans;
  plan.incremental_plans += other.plan.incremental_plans;
  plan.jobs_placed += other.plan.jobs_placed;
  plan.jobs_replayed += other.plan.jobs_replayed;
  compress_sweeps += other.compress_sweeps;
  jobs_moved += other.jobs_moved;
  segments_peak = std::max(segments_peak, other.segments_peak);
  if (mismatch.empty()) mismatch = std::move(other.mismatch);
}

namespace {

/// Runs \p f and appends its wall time in microseconds to \p samples.
template <typename F>
void timed(std::vector<double>& samples, F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  samples.push_back(micros_between(t0, Clock::now()));
}

constexpr std::uint32_t kNotRunning = std::numeric_limits<std::uint32_t>::max();

/// Mirror of the scheduler state a planning RMS keeps between events,
/// advanced only through public layer calls.
class Replayer {
 public:
  Replayer(const dynp::workload::JobSet& set,
           const core::SimulationConfig& config, LayerTrace& out)
      : table_(set.table()),
        nodes_(set.machine().nodes),
        config_(config),
        guarantee_(config.semantics == core::PlannerSemantics::kGuarantee),
        dynp_(config.mode == core::SchedulerMode::kDynP),
        out_(out),
        profile_(nodes_),
        base_(nodes_) {
    const std::vector<dynp::policies::PolicyKind> kinds =
        dynp_ ? config.pool
              : std::vector<dynp::policies::PolicyKind>{config.static_policy};
    for (const dynp::policies::PolicyKind kind : kinds) {
      queues_.emplace_back(kind, table_);
    }
    slots_.resize(kinds.size());
    reusable_.assign(kinds.size(), 0);
    policy_index_ = config.initial_index;
    running_slot_.assign(table_.size(), kNotRunning);
    mark_.assign(table_.size(), 0);
    reserved_.assign(table_.size(), -1.0);
    for (JobId id = 0; id < table_.size(); ++id) {
      calendar_.push(table_.submit(id), dynp::sim::EventKind::kSubmit, id);
    }
  }

  void run(const Recording& rec) {
    for (const EventRecord& ev : rec.events) {
      if (!step(ev, rec)) return;
    }
    if (!calendar_.empty()) fail("calendar holds events the run never saw");
    for (const Slot& s : slots_) {
      const rms::PlanStats& st = s.scratch.stats();
      out_.plan.full_plans += st.full_plans;
      out_.plan.incremental_plans += st.incremental_plans;
      out_.plan.jobs_placed += st.jobs_placed;
      out_.plan.jobs_replayed += st.jobs_replayed;
    }
  }

 private:
  struct Slot {
    rms::PlanScratch scratch;
    rms::Schedule schedule;
    rms::ResourceProfile profile{1};
    std::vector<Time> reserved;
    double value = 0;
  };

  bool fail(std::string what) {
    if (out_.mismatch.empty()) out_.mismatch = std::move(what);
    return false;
  }

  bool step(const EventRecord& ev, const Recording& rec) {
    ++out_.events;
    const Time now = ev.time;
    {
      if (calendar_.empty()) return fail("the run saw more events than it had");
      const Clock::time_point t0 = Clock::now();
      const dynp::sim::Event e = calendar_.pop();
      out_.calendar_s += seconds_between(t0, Clock::now());
      ++out_.calendar_calls;
      const auto kind = ev.submit ? dynp::sim::EventKind::kSubmit
                                  : dynp::sim::EventKind::kFinish;
      if (e.time != now || e.kind != kind || e.job != ev.job) {
        return fail("calendar order differs at event " +
                    std::to_string(out_.events));
      }
    }
    if (guarantee_) timed(out_.trim_us, [&] { profile_.trim_before(now); });
    if (ev.submit) {
      admit(ev.job, now);
    } else {
      finish(ev.job, now);
    }

    due_.clear();
    const DecisionRecord* seen =
        ev.decision >= 0 ? &rec.decisions[static_cast<std::size_t>(ev.decision)]
                         : nullptr;
    if (!waiting_.empty()) {
      const bool ok = guarantee_ ? guarantee_pass(now, seen)
                                 : replan_pass(now, ev.submit, seen);
      if (!ok) return false;
    } else {
      if (!guarantee_) std::fill(reusable_.begin(), reusable_.end(), char{0});
      if (seen != nullptr) return fail("decision on an empty queue");
    }
    const std::size_t n_seen = ev.starts_end - ev.starts_begin;
    if (due_.size() != n_seen ||
        !std::equal(due_.begin(), due_.end(),
                    rec.starts.begin() + ev.starts_begin)) {
      return fail("planned starts differ at event " +
                  std::to_string(out_.events));
    }
    start_due(now);
    out_.queue_depth.push_back(static_cast<double>(waiting_.size()));
    const std::size_t segments =
        guarantee_ ? profile_.segment_count() : base_.segment_count();
    out_.segments.push_back(static_cast<double>(segments));
    out_.segments_peak = std::max<std::uint64_t>(out_.segments_peak, segments);
    return true;
  }

  void admit(JobId id, Time now) {
    waiting_.push_back(id);
    insert_pos_.clear();
    for (dynp::policies::SortedQueue& q : queues_) {
      timed(out_.queue_us, [&] { insert_pos_.push_back(q.insert(id)); });
    }
    if (guarantee_) {
      const std::uint32_t width = table_.width(id);
      const Time estimate = table_.estimate(id);
      timed(out_.reserve_us, [&] {
        const Time start = profile_.earliest_start(now, width, estimate);
        profile_.allocate(start, estimate, width);
        reserved_[id] = start;
      });
    }
  }

  void finish(JobId id, Time now) {
    const std::uint32_t slot = running_slot_[id];
    const rms::RunningJob gone = running_[slot];
    if (guarantee_ && gone.estimated_end > now) {
      timed(out_.release_us, [&] {
        profile_.deallocate(now, gone.estimated_end - now, gone.width);
      });
    }
    running_[slot] = running_.back();
    running_.pop_back();
    if (slot < running_.size()) running_slot_[running_[slot].id] = slot;
    running_slot_[id] = kNotRunning;
  }

  /// Records a decision; false when it differs from what the run decided.
  bool decide(const core::DecisionInput& input, const DecisionRecord* seen,
              std::size_t& chosen) {
    timed(out_.decide_us, [&] { chosen = config_.decider->decide(input); });
    if (seen == nullptr ||
        !(*seen == DecisionRecord{input.values, input.old_index, chosen})) {
      return fail("decider pick differs at event " +
                  std::to_string(out_.events));
    }
    ++out_.decisions;
    if (chosen != policy_index_) ++out_.switches;
    policy_index_ = chosen;
    return true;
  }

  [[nodiscard]] bool tuned() const { return dynp_; }

  // ----- replan semantics --------------------------------------------------

  void plan_slot(std::size_t i, Time now, bool submit) {
    Slot& s = slots_[i];
    bool replayable = true;
    for (const rms::PlannedJob& p : s.schedule.entries()) {
      if (p.start < now) replayable = false;
    }
    timed(out_.plan_us, [&] {
      if (submit && reusable_[i] != 0 && replayable) {
        rms::Planner::replan_inserted_into(base_, now, queues_[i].ids(),
                                           insert_pos_[i], table_, s.scratch,
                                           s.schedule);
      } else {
        rms::Planner::plan_into(base_, now, queues_[i].ids(), table_,
                                s.scratch, s.schedule);
      }
    });
  }

  bool replan_pass(Time now, bool submit, const DecisionRecord* seen) {
    timed(out_.base_profile_us, [&] {
      rms::Planner::base_profile_into(nodes_, now, running_, base_);
    });
    std::size_t chosen = dynp_ ? policy_index_ : 0;
    if (tuned()) {
      core::DecisionInput input;
      input.old_index = policy_index_;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        plan_slot(i, now, submit);
        timed(out_.preview_us, [&] {
          slots_[i].value = dynp::metrics::evaluate_preview(
              config_.preview, slots_[i].schedule, table_, now);
        });
        input.values.push_back(slots_[i].value);
      }
      if (!decide(input, seen, chosen)) return false;
    } else {
      if (seen != nullptr) return fail("decision in a static run");
      plan_slot(chosen, now, submit);
    }
    slots_[chosen].schedule.starting_at_into(now, due_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const bool planned = tuned() || i == chosen;
      reusable_[i] = planned && (due_.empty() || i == chosen) ? 1 : 0;
    }
    if (!due_.empty()) slots_[chosen].schedule.drop_started(now);
    return true;
  }

  // ----- guarantee semantics -------------------------------------------------

  /// The documented compression rule: sweep the waiting jobs in policy
  /// order, re-placing each at its earliest feasible start, until a sweep
  /// moves nothing (at most 64 sweeps). False if a guarantee moved later.
  bool compress(rms::ResourceProfile& profile, std::vector<Time>& reserved,
                const std::vector<JobId>& order, Time now) {
    bool later = false;
    timed(out_.compress_us, [&] {
      for (int sweep = 0; sweep < 64; ++sweep) {
        ++out_.compress_sweeps;
        std::size_t moves = 0;
        for (const JobId id : order) {
          const std::uint32_t width = table_.width(id);
          const Time estimate = table_.estimate(id);
          profile.deallocate(reserved[id], estimate, width);
          const Time start = profile.earliest_start(now, width, estimate);
          if (start > reserved[id]) later = true;
          if (start < reserved[id]) {
            reserved[id] = start;
            ++moves;
          }
          profile.allocate(start, estimate, width);
        }
        out_.jobs_moved += moves;
        if (moves == 0) break;
      }
    });
    return later ? fail("a guarantee moved later at event " +
                        std::to_string(out_.events))
                 : true;
  }

  void score(Slot& s, Time now) {
    timed(out_.preview_us, [&] {
      s.schedule.clear();
      for (const JobId id : waiting_) {
        s.schedule.push_back(rms::PlannedJob{id, s.reserved[id]});
      }
      s.value = dynp::metrics::evaluate_preview(config_.preview, s.schedule,
                                                table_, now);
    });
  }

  bool guarantee_pass(Time now, const DecisionRecord* seen) {
    if (tuned()) {
      core::DecisionInput input;
      input.old_index = policy_index_;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        timed(out_.copy_us, [&] {
          s.profile = profile_;
          s.reserved = reserved_;
        });
        if (!compress(s.profile, s.reserved, queues_[i].ids(), now)) {
          return false;
        }
        score(s, now);
        input.values.push_back(s.value);
      }
      std::size_t chosen = 0;
      if (!decide(input, seen, chosen)) return false;
      timed(out_.copy_us, [&] {
        profile_ = slots_[chosen].profile;
        reserved_ = slots_[chosen].reserved;
      });
    } else {
      if (seen != nullptr) return fail("decision in a static run");
      if (!compress(profile_, reserved_, queues_[0].ids(), now)) return false;
    }
    for (const JobId id : waiting_) {
      if (reserved_[id] <= now) due_.push_back(id);
    }
    return true;
  }

  // ----- commit --------------------------------------------------------------

  void start_due(Time now) {
    if (due_.empty()) return;
    for (const JobId id : due_) {
      running_slot_[id] = static_cast<std::uint32_t>(running_.size());
      running_.push_back(
          rms::RunningJob{id, table_.width(id), now + table_.estimate(id)});
      const Clock::time_point t0 = Clock::now();
      calendar_.push(now + table_.actual(id), dynp::sim::EventKind::kFinish,
                     id);
      out_.calendar_s += seconds_between(t0, Clock::now());
      ++out_.calendar_calls;
      mark_[id] = 1;
    }
    std::erase_if(waiting_, [this](JobId id) { return mark_[id] != 0; });
    for (dynp::policies::SortedQueue& q : queues_) {
      timed(out_.queue_us, [&] { q.remove_marked(mark_); });
    }
    for (const JobId id : due_) mark_[id] = 0;
  }

  const dynp::workload::JobTable& table_;
  const std::uint32_t nodes_;
  const core::SimulationConfig& config_;
  const bool guarantee_;
  const bool dynp_;
  LayerTrace& out_;

  dynp::sim::EventQueue calendar_;
  std::vector<dynp::policies::SortedQueue> queues_;
  std::vector<Slot> slots_;
  std::vector<char> reusable_;
  std::vector<std::size_t> insert_pos_;
  std::size_t policy_index_ = 0;
  std::vector<rms::RunningJob> running_;
  std::vector<std::uint32_t> running_slot_;
  std::vector<JobId> waiting_;
  std::vector<JobId> due_;
  std::vector<char> mark_;
  rms::ResourceProfile profile_;  ///< live reservations (guarantee)
  rms::ResourceProfile base_;     ///< running jobs only (replan)
  std::vector<Time> reserved_;    ///< JobId -> guaranteed start
};

}  // namespace

double timer_overhead_us() {
  // The median over batches of each batch's mean: robust to a preempted
  // batch, and not quantised to the clock's nanosecond ticks.
  constexpr int kBatches = 21;
  constexpr int kCalls = 1000;
  std::vector<double> samples;
  samples.reserve(kCalls);
  std::vector<double> batch_means;
  for (int b = 0; b < kBatches; ++b) {
    samples.clear();
    for (int i = 0; i < kCalls; ++i) timed(samples, [] {});
    batch_means.push_back(sum(samples) / kCalls);
  }
  return median(batch_means);
}

LayerTrace replay(const dynp::workload::JobSet& set,
                  const core::SimulationConfig& config, const Recording& rec,
                  double timer_us) {
  LayerTrace out;
  const Clock::time_point t0 = Clock::now();
  {
    Replayer replayer(set, config, out);
    replayer.run(rec);
  }
  out.wall_s = seconds_between(t0, Clock::now());
  for (const auto member : kTimedSamples) {
    for (double& us : out.*member) us = std::max(0.0, us - timer_us);
  }
  out.calendar_s = std::max(
      0.0, out.calendar_s -
               static_cast<double>(out.calendar_calls) * timer_us * 1e-6);
  return out;
}

}  // namespace perfbench
