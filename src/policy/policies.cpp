#include "policy/policies.hpp"

#include <algorithm>
#include <cmath>

namespace adx::policy {

namespace {

using locks::waiting_policy;

double knob(const policy_spec& spec, std::string_view key, double fallback) {
  const auto it = spec.params.find(key);
  return it == spec.params.end() ? fallback : it->second;
}

/// The block/unblock round trip a spinner avoids: what blocking costs over
/// spinning on the lock()/unlock() instruction paths (Table 4-5).
double default_break_even_us(const locks::lock_cost_model& cost) {
  return (cost.blocking_lock_overhead + cost.blocking_unlock_overhead -
          cost.spin_lock_overhead - cost.spin_unlock_overhead)
      .us();
}

std::int64_t clamp_spins(double spins, std::int64_t cap) {
  if (spins < 1.0) return 1;
  if (spins > static_cast<double>(cap)) return cap;
  return static_cast<std::int64_t>(spins);
}

// ---------------------------------------------------------------- simple-adapt

class simple_adapt_core final : public decision_core {
 public:
  simple_adapt_core(const policy_spec& spec, const locks::simple_adapt_params& d)
      : threshold_(static_cast<std::int64_t>(knob(spec, "waiting_threshold",
                                                  static_cast<double>(d.waiting_threshold)))),
        n_(static_cast<std::int64_t>(knob(spec, "n", static_cast<double>(d.n)))),
        spin_cap_(static_cast<std::int64_t>(knob(spec, "spin_cap",
                                                 static_cast<double>(d.spin_cap)))),
        pure_spin_on_idle_(knob(spec, "pure_spin_on_idle",
                                d.pure_spin_on_idle ? 1.0 : 0.0) != 0.0) {}

  [[nodiscard]] std::string_view name() const override { return "simple-adapt"; }

  std::optional<waiting_policy> decide(const core::observation& obs,
                                       const waiting_policy& cur) override {
    if (obs.sensor != "no-of-waiting-threads") return std::nullopt;
    const std::int64_t waiting = obs.value;
    if (waiting == 0) {
      return pure_spin_on_idle_ ? waiting_policy::pure_spin(spin_cap_)
                                : waiting_policy::mixed(spin_cap_);
    }
    std::int64_t spins = cur.spin_time;
    if (waiting <= threshold_) {
      spins += n_;
    } else {
      spins -= 2 * n_;
    }
    spins = std::min(spins, spin_cap_);
    if (spins <= 0) return waiting_policy::pure_sleep();
    return waiting_policy::mixed(spins);
  }

 private:
  std::int64_t threshold_;
  std::int64_t n_;
  std::int64_t spin_cap_;
  bool pure_spin_on_idle_;
};

// ------------------------------------------------------------------ break-even

class break_even_core final : public decision_core {
 public:
  break_even_core(const policy_spec& spec, const locks::simple_adapt_params& d,
                  const locks::lock_cost_model& cost)
      : break_even_us_(knob(spec, "break_even_us", default_break_even_us(cost))),
        spin_cap_(static_cast<std::int64_t>(knob(spec, "spin_cap",
                                                 static_cast<double>(d.spin_cap)))),
        spin_pause_us_(cost.spin_pause.us()) {}

  [[nodiscard]] std::string_view name() const override { return "break-even"; }

  std::optional<waiting_policy> decide(const core::observation& obs,
                                       const waiting_policy& /*cur*/) override {
    if (obs.sensor == "lock-hold-time") {
      hold_us_ = static_cast<double>(obs.value);
      return std::nullopt;
    }
    if (obs.sensor != "no-of-waiting-threads") return std::nullopt;
    const auto waiting = static_cast<double>(obs.value);
    // Spin budget: just enough iterations to cover the break-even window.
    const auto spins = clamp_spins(break_even_us_ / spin_pause_us_, spin_cap_);
    if (obs.value == 0) return waiting_policy::mixed(spins);
    // Expected wait = queue depth × smoothed hold time. Below break-even a
    // spinner wins; above it the block/unblock round trip is cheaper.
    const double expected_wait_us = waiting * hold_us_;
    if (hold_us_ <= 0.0 || expected_wait_us <= break_even_us_) {
      return waiting_policy::mixed(spins);
    }
    return waiting_policy::pure_sleep();
  }

 private:
  double break_even_us_;
  std::int64_t spin_cap_;
  double spin_pause_us_;
  double hold_us_{0.0};
};

// ------------------------------------------------------------------- ewma-hold

class ewma_hold_core final : public decision_core {
 public:
  ewma_hold_core(const policy_spec& spec, const locks::simple_adapt_params& d,
                 const locks::lock_cost_model& cost)
      : spin_cap_(static_cast<std::int64_t>(knob(spec, "spin_cap",
                                                 static_cast<double>(d.spin_cap)))),
        spin_pause_us_(cost.spin_pause.us()) {}

  [[nodiscard]] std::string_view name() const override { return "ewma-hold"; }

  std::optional<waiting_policy> decide(const core::observation& obs,
                                       const waiting_policy& /*cur*/) override {
    if (obs.sensor != "lock-hold-time") return std::nullopt;
    if (obs.value <= 0) return std::nullopt;  // no completed hold observed yet
    // Spin long enough to cover one smoothed critical section; a section the
    // cap cannot cover means waiters should block instead of burn the cap.
    const double spins = std::ceil(static_cast<double>(obs.value) / spin_pause_us_);
    if (spins > static_cast<double>(spin_cap_)) return waiting_policy::pure_sleep();
    return waiting_policy::mixed(clamp_spins(spins, spin_cap_));
  }

 private:
  std::int64_t spin_cap_;
  double spin_pause_us_;
};

// ---------------------------------------------------------------- multi-sensor

class multi_sensor_core final : public decision_core {
 public:
  multi_sensor_core(const policy_spec& spec, const locks::simple_adapt_params& d,
                    const locks::lock_cost_model& cost)
      : threshold_(static_cast<std::int64_t>(knob(spec, "waiting_threshold",
                                                  static_cast<double>(d.waiting_threshold)))),
        spin_cap_(static_cast<std::int64_t>(knob(spec, "spin_cap",
                                                 static_cast<double>(d.spin_cap)))),
        spin_budget_us_(knob(spec, "spin_budget_us", default_break_even_us(cost))),
        spin_pause_us_(cost.spin_pause.us()) {}

  [[nodiscard]] std::string_view name() const override { return "multi-sensor"; }

  std::optional<waiting_policy> decide(const core::observation& obs,
                                       const waiting_policy& /*cur*/) override {
    if (obs.sensor == "lock-hold-time") {
      hold_us_ = static_cast<double>(obs.value);
      return std::nullopt;
    }
    if (obs.sensor != "no-of-waiting-threads") return std::nullopt;
    if (obs.value == 0) return waiting_policy::mixed(spin_cap_);
    // Spin only when both signals agree it is cheap: a short queue AND short
    // sections. A deep queue or a long hold alone flips the lock to blocking.
    const bool short_queue = obs.value <= threshold_;
    const bool short_holds = hold_us_ <= spin_budget_us_;
    if (!short_queue || !short_holds) return waiting_policy::pure_sleep();
    const double cover_us = std::max(hold_us_, spin_pause_us_);
    return waiting_policy::mixed(
        clamp_spins(std::ceil(cover_us / spin_pause_us_), spin_cap_));
  }

 private:
  std::int64_t threshold_;
  std::int64_t spin_cap_;
  double spin_budget_us_;
  double spin_pause_us_;
  double hold_us_{0.0};
};

}  // namespace

std::unique_ptr<decision_core> make_simple_adapt_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& /*cost*/) {
  return std::make_unique<simple_adapt_core>(spec, defaults);
}

std::unique_ptr<decision_core> make_break_even_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost) {
  return std::make_unique<break_even_core>(spec, defaults, cost);
}

std::unique_ptr<decision_core> make_ewma_hold_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost) {
  return std::make_unique<ewma_hold_core>(spec, defaults, cost);
}

std::unique_ptr<decision_core> make_multi_sensor_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost) {
  return std::make_unique<multi_sensor_core>(spec, defaults, cost);
}

}  // namespace adx::policy
