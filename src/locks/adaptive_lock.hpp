// Adaptive lock (§4, §5): a reconfigurable lock with a customized monitor
// and an adaptation policy, forming the closely-coupled feedback loop
// executed inline by unlocking threads.
//
// The constructor installs the lock's `policy_spec` once, through
// `policy::policy_registry::install`: the spec's sensors go on the lock's
// monitor (which folds each one with its aggregation) and a
// `policy::engine` over the registered decision core becomes the policy.
// The default spec is the paper's `simple-adapt`:
//
// Monitor: one sensor, `no-of-waiting-threads`, sampled once during every
// other unlock operation (period 2 by default).
//
// Policy (verbatim from §4):
//
//   IF   no-of-waiting-threads = 0                → configure pure spin
//   ELIF no-of-waiting-threads <= Waiting-Threshold → no-of-spins += n
//   ELSE                                          → no-of-spins -= 2n
//   IF   no-of-spins <= 0                         → configure pure blocking
//
// Waiting-Threshold and n are lock-specific constants, exposed here as
// parameters (the paper notes they must be tuned per lock; the ablation
// bench `bench_abl_threshold` sweeps them).
#pragma once

#include <string>

#include "core/policy.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "policy/spec.hpp"

namespace adx::locks {

struct simple_adapt_params {
  std::int64_t waiting_threshold = 4;  ///< Waiting-Threshold
  std::int64_t n = 10;                 ///< the per-lock adjustment constant
  std::int64_t spin_cap = 200;         ///< upper bound on no-of-spins
  std::uint64_t sample_period = 2;     ///< sample every k-th unlock (paper: 2)
  /// The paper's no-contention rule configures an *unbounded* pure spin —
  /// correct with one thread per processor (TSP, §4), but under
  /// multiprogramming a long spin steals cycles from runnable peers. With
  /// this false, the no-contention configuration is mixed(spin_cap): spin up
  /// to the cap, then block — the bounded-spin rule production adaptive
  /// mutexes use.
  bool pure_spin_on_idle = true;

  friend bool operator==(const simple_adapt_params&, const simple_adapt_params&) = default;
};

/// The policy interface an adaptive lock drives. The lock's feedback loop is
/// policy-agnostic: it delivers observations, charges the monitor/policy/Ψ
/// costs, and asks the installed policy for its identity and most recent
/// decision when annotating reconfigure events. The one implementation is
/// `policy::engine`, built by the policy registry from a `policy_spec`.
class lock_adapt_policy : public core::adaptation_policy {
 public:
  /// The most recent reconfiguration decision d_c together with the sensor
  /// value v_i that caused it and a rendering of the full sensor vector, for
  /// trace annotation.
  struct decision_record {
    std::int64_t sensor_value{0};
    waiting_policy applied{};
    std::string sensors{};  ///< "name=value ..." snapshot at decision time
  };

  /// Registry-style policy name ("simple-adapt", "break-even", ...).
  [[nodiscard]] virtual std::string_view policy_name() const = 0;
  [[nodiscard]] virtual const decision_record& last_decision() const = 0;
};

class adaptive_lock final : public reconfigurable_lock {
 public:
  /// Installs `spec` through the policy registry. `params` supplies the
  /// defaults of the spec's knobs and the default sensors' sample period.
  /// Throws std::invalid_argument on an unknown policy, sensor or wrapper.
  adaptive_lock(sim::node_id home, lock_cost_model cost,
                simple_adapt_params params = {},
                waiting_policy initial = waiting_policy::mixed(10),
                const policy::policy_spec& spec = {},
                std::unique_ptr<lock_scheduler> sched = nullptr);

  [[nodiscard]] std::string_view kind() const override { return "adaptive"; }

  [[nodiscard]] const simple_adapt_params& adapt_params() const { return params_; }

 protected:
  /// The closely-coupled feedback loop, executed by the unlocking thread:
  /// sample the sensor, run the policy, charge monitor + policy + any Ψ cost.
  ct::task<void> post_release_hook(ct::context& ctx) override;

 private:
  simple_adapt_params params_;
};

}  // namespace adx::locks
