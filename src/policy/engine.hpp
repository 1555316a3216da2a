// The adaptation-policy engine: turns a declarative `policy_spec` into a
// running `locks::lock_adapt_policy`.
//
// Structure of a built policy:
//
//   lock monitor M ──> decision core ──> wrappers ──> apply_waiting_policy (Ψ)
//   folds each sensor:  the policy P     hysteresis /
//   last-value / ewma / (P of §3)        deadband /
//   max-in-window                        cooldown
//
// The monitor samples and folds the sensors; the engine only decides. It
// hands each folded observation to the decision core, filters the core's
// desired configuration through the wrapper stack, and applies the survivor
// to the lock — recording the decision (sensor value, applied Ψ, and the
// folded sensor vector as delivered so far) for the obs reconfigure
// annotation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sensor.hpp"
#include "locks/adaptive_lock.hpp"
#include "locks/reconfigurable_lock.hpp"

namespace adx::policy {

/// A policy core: maps (folded observation, current configuration) to a
/// desired configuration, or nothing to leave the lock alone. Cores are pure
/// decision logic — sensor folding lives in the monitor, wrapper filtering
/// and Ψ application in the engine.
class decision_core {
 public:
  virtual ~decision_core() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// `obs.value` is the monitor's folded reading of the sensor `obs.sensor`.
  [[nodiscard]] virtual std::optional<locks::waiting_policy> decide(
      const core::observation& obs, const locks::waiting_policy& current) = 0;

  /// Called after a decision of this core was actually applied to the lock
  /// (post-wrapper). Lets cores that model state (e.g. cooldown-like logic)
  /// track real Ψ transitions rather than suppressed proposals.
  virtual void notify_applied() {}
};

/// Decision-filter combinators. Each wraps an inner core and passes, delays
/// or suppresses its desired configurations; `notify_applied` is forwarded
/// inward so nested cores still observe real transitions.
[[nodiscard]] std::unique_ptr<decision_core> wrap_hysteresis(
    std::unique_ptr<decision_core> inner, std::uint64_t confirm);
[[nodiscard]] std::unique_ptr<decision_core> wrap_deadband(
    std::unique_ptr<decision_core> inner, std::int64_t band);
[[nodiscard]] std::unique_ptr<decision_core> wrap_cooldown(
    std::unique_ptr<decision_core> inner, std::uint64_t observations);

/// The runtime policy installed on an adaptive lock: drives the wrapped core
/// from the lock monitor's folded observations and applies its decisions.
class engine final : public locks::lock_adapt_policy {
 public:
  engine(locks::reconfigurable_lock& lk, std::string spec_name,
         std::unique_ptr<decision_core> core);

  void observe(const core::observation& obs) override;

  [[nodiscard]] std::string_view policy_name() const override { return name_; }
  [[nodiscard]] const decision_record& last_decision() const override { return last_; }

 private:
  [[nodiscard]] std::string render_sensor_vector() const;

  locks::reconfigurable_lock* lk_;
  std::string name_;
  std::unique_ptr<decision_core> core_;
  /// The last folded value delivered per monitor sensor (parallel to the
  /// lock monitor's sensors). The record renders these, not the monitor's
  /// own aggregates: the monitor folds every sensor of a trigger before
  /// delivering the first, and a loosely-coupled queue runs further ahead,
  /// so its aggregates can hold values the core has not seen yet.
  std::vector<std::int64_t> seen_;
  decision_record last_{};
};

}  // namespace adx::policy
