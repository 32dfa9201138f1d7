// RunBatcher: decides when the submissions accumulated by the service are
// coalesced into one auction run. Three pluggable triggers, any subset
// active, OR-combined:
//
//   * count   — fire once `min_bids` bid submissions are pending;
//   * deadline— fire once the oldest pending bid has waited `max_delay`
//               seconds (bounded staleness even under a trickle of bids);
//   * budget  — fire once requesters have accrued `budget_target` of
//               spending authority via submit_tasks (the reverse-auction
//               analogue of size-based flushing: a run happens when there
//               is a run's worth of budget to spend);
//   * rolling — fire once per task-arrival batch (`per_task_arrival`): every
//               submit_tasks queues exactly one run against the standing
//               bid book, the continuous-auction workload (`--rolling`).
//
// Time is an explicit parameter (seconds on the service's clock), never
// read from a wall clock inside: with the service in manual-clock mode the
// whole batching schedule is a pure function of the request trace, which is
// what makes the serve-vs-batch bit-identity tests possible.
#pragma once

namespace melody::svc {

struct BatchPolicy {
  /// Fire when this many bid submissions are pending. 0 disables.
  int min_bids = 0;
  /// Fire when the oldest pending bid is this old (seconds). 0 disables.
  double max_delay = 0.0;
  /// Fire when accrued budget reaches this target. 0 disables.
  double budget_target = 0.0;
  /// Rolling auction: fire one run per task arrival (each submit_tasks
  /// queues exactly one run against the standing bid book).
  bool per_task_arrival = false;

  /// True iff at least one trigger is configured.
  bool active() const noexcept {
    return min_bids > 0 || max_delay > 0.0 || budget_target > 0.0 ||
           per_task_arrival;
  }
};

class RunBatcher {
 public:
  explicit RunBatcher(BatchPolicy policy) : policy_(policy) {}

  /// A bid submission arrived at time `now`.
  void note_bid(double now) {
    if (pending_bids_ == 0) oldest_bid_time_ = now;
    ++pending_bids_;
  }

  /// A task submission accrued `amount` of budget.
  void note_budget(double amount) {
    if (amount > 0.0) accrued_budget_ += amount;
  }

  /// A task batch arrived (rolling trigger). Arrivals queue: two arrivals
  /// between polls schedule two back-to-back runs.
  void note_task_arrival() noexcept {
    if (policy_.per_task_arrival) ++pending_arrivals_;
  }

  /// Should a run fire at time `now`?
  bool should_fire(double now) const noexcept {
    if (policy_.min_bids > 0 && pending_bids_ >= policy_.min_bids) return true;
    if (policy_.max_delay > 0.0 && pending_bids_ > 0 &&
        now - oldest_bid_time_ >= policy_.max_delay) {
      return true;
    }
    if (policy_.budget_target > 0.0 && accrued_budget_ >= policy_.budget_target) {
      return true;
    }
    if (policy_.per_task_arrival && pending_arrivals_ > 0) return true;
    return false;
  }

  /// Seconds until the deadline trigger would fire, for the event loop's
  /// poll timeout. Returns a negative value when no deadline is pending.
  double seconds_until_deadline(double now) const noexcept {
    if (policy_.max_delay <= 0.0 || pending_bids_ == 0) return -1.0;
    return oldest_bid_time_ + policy_.max_delay - now;
  }

  /// Consume the batch after a run fired at time `now`: pending bids are in
  /// the run; accrued budget is charged one target's worth (overshoot
  /// carries over so back-to-back task bursts schedule back-to-back runs).
  void consume(double now) noexcept {
    pending_bids_ = 0;
    oldest_bid_time_ = now;
    if (policy_.budget_target > 0.0 && accrued_budget_ >= policy_.budget_target) {
      accrued_budget_ -= policy_.budget_target;
    } else {
      accrued_budget_ = 0.0;
    }
    if (pending_arrivals_ > 0) --pending_arrivals_;
  }

  int pending_bids() const noexcept { return pending_bids_; }
  double accrued_budget() const noexcept { return accrued_budget_; }
  int pending_arrivals() const noexcept { return pending_arrivals_; }
  const BatchPolicy& policy() const noexcept { return policy_; }

  /// Checkpoint support: restore the exact accumulation state.
  void restore(int pending_bids, double oldest_bid_time,
               double accrued_budget, int pending_arrivals) noexcept {
    pending_bids_ = pending_bids;
    oldest_bid_time_ = oldest_bid_time;
    accrued_budget_ = accrued_budget;
    pending_arrivals_ = pending_arrivals;
  }
  double oldest_bid_time() const noexcept { return oldest_bid_time_; }

 private:
  BatchPolicy policy_;
  int pending_bids_ = 0;
  double oldest_bid_time_ = 0.0;
  double accrued_budget_ = 0.0;
  int pending_arrivals_ = 0;  // rolling trigger: queued task arrivals
};

}  // namespace melody::svc
