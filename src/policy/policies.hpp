// Built-in decision cores: the concrete adaptation policies P the registry
// can instantiate. Each factory reads its knobs from the spec's `params` map
// (absent keys take defaults derived from the lock's `simple_adapt_params`
// and its cost model).
#pragma once

#include <memory>

#include "locks/adaptive_lock.hpp"
#include "locks/cost_model.hpp"
#include "policy/engine.hpp"
#include "policy/spec.hpp"

namespace adx::policy {

/// The paper's §4 rule, the adaptive lock's default policy (see
/// locks/adaptive_lock.hpp). Knobs: waiting_threshold, n, spin_cap,
/// pure_spin_on_idle (0/1).
[[nodiscard]] std::unique_ptr<decision_core> make_simple_adapt_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

/// Cost-model break-even rule: spin only while the expected wait (waiters ×
/// smoothed hold time) stays below the cost of a block/unblock round trip,
/// with the spin budget itself sized from the model. Knobs: break_even_us
/// (default: blocking minus spinning lock+unlock overhead), spin_cap.
[[nodiscard]] std::unique_ptr<decision_core> make_break_even_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

/// Hold-time tracking rule: size the spin budget to cover one (smoothed)
/// critical section; holds too long to spin through become pure blocking.
/// Knobs: spin_cap.
[[nodiscard]] std::unique_ptr<decision_core> make_ewma_hold_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

/// Two-sensor rule (waiting count + hold time): spin only when the queue is
/// short AND sections are short; either signal alone can flip the lock to
/// blocking. Knobs: waiting_threshold, spin_cap, spin_budget_us.
[[nodiscard]] std::unique_ptr<decision_core> make_multi_sensor_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

}  // namespace adx::policy
