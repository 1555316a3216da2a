#include "policy/engine.hpp"

#include <cstdlib>
#include <utility>

namespace adx::policy {

// ---------------------------------------------------------------- combinators

namespace {

class hysteresis_core final : public decision_core {
 public:
  hysteresis_core(std::unique_ptr<decision_core> inner, std::uint64_t confirm)
      : inner_(std::move(inner)), confirm_(confirm == 0 ? 1 : confirm) {
    name_ = std::string(inner_->name()) + "+hysteresis";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  std::optional<locks::waiting_policy> decide(const core::observation& obs,
                                              const locks::waiting_policy& cur) override {
    auto want = inner_->decide(obs, cur);
    if (!want) {
      streak_ = 0;
      return std::nullopt;
    }
    if (pending_ && *want == *pending_) {
      ++streak_;
    } else {
      pending_ = *want;
      streak_ = 1;
    }
    if (streak_ < confirm_) return std::nullopt;
    streak_ = 0;
    pending_.reset();
    return want;
  }

  void notify_applied() override { inner_->notify_applied(); }

 private:
  std::unique_ptr<decision_core> inner_;
  std::uint64_t confirm_;
  std::optional<locks::waiting_policy> pending_;
  std::uint64_t streak_{0};
  std::string name_;
};

/// True when two configurations have the same *shape* (pure spin / pure
/// blocking / spin-then-block) and differ only in the spin-time magnitude.
bool same_shape(const locks::waiting_policy& a, const locks::waiting_policy& b) {
  return (a.spin_time > 0) == (b.spin_time > 0) &&
         (a.sleep_time > 0) == (b.sleep_time > 0) &&
         (a.delay_time > 0) == (b.delay_time > 0) && a.timeout_us == b.timeout_us;
}

class deadband_core final : public decision_core {
 public:
  deadband_core(std::unique_ptr<decision_core> inner, std::int64_t band)
      : inner_(std::move(inner)), band_(band < 0 ? 0 : band) {
    name_ = std::string(inner_->name()) + "+deadband";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  std::optional<locks::waiting_policy> decide(const core::observation& obs,
                                              const locks::waiting_policy& cur) override {
    auto want = inner_->decide(obs, cur);
    if (!want) return std::nullopt;
    // Shape changes (spin↔block) always pass; small spin-time nudges within
    // the band are suppressed — they cost a Ψ (1R+1W + configure overhead)
    // for a negligible behavioral change.
    if (same_shape(*want, cur) &&
        std::llabs(want->spin_time - cur.spin_time) < band_) {
      return std::nullopt;
    }
    return want;
  }

  void notify_applied() override { inner_->notify_applied(); }

 private:
  std::unique_ptr<decision_core> inner_;
  std::int64_t band_;
  std::string name_;
};

class cooldown_core final : public decision_core {
 public:
  cooldown_core(std::unique_ptr<decision_core> inner, std::uint64_t observations)
      : inner_(std::move(inner)), cooldown_(observations) {
    name_ = std::string(inner_->name()) + "+cooldown";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  std::optional<locks::waiting_policy> decide(const core::observation& obs,
                                              const locks::waiting_policy& cur) override {
    // The inner core still sees every observation (its state advances), but
    // its decisions are discarded while the cooldown runs.
    auto want = inner_->decide(obs, cur);
    if (remaining_ > 0) {
      --remaining_;
      return std::nullopt;
    }
    return want;
  }

  void notify_applied() override {
    remaining_ = cooldown_;
    inner_->notify_applied();
  }

 private:
  std::unique_ptr<decision_core> inner_;
  std::uint64_t cooldown_;
  std::uint64_t remaining_{0};
  std::string name_;
};

}  // namespace

std::unique_ptr<decision_core> wrap_hysteresis(std::unique_ptr<decision_core> inner,
                                               std::uint64_t confirm) {
  return std::make_unique<hysteresis_core>(std::move(inner), confirm);
}

std::unique_ptr<decision_core> wrap_deadband(std::unique_ptr<decision_core> inner,
                                             std::int64_t band) {
  return std::make_unique<deadband_core>(std::move(inner), band);
}

std::unique_ptr<decision_core> wrap_cooldown(std::unique_ptr<decision_core> inner,
                                             std::uint64_t observations) {
  return std::make_unique<cooldown_core>(std::move(inner), observations);
}

// -------------------------------------------------------------------- engine

engine::engine(locks::reconfigurable_lock& lk, std::string spec_name,
               std::unique_ptr<decision_core> core)
    : lk_(&lk), name_(std::move(spec_name)), core_(std::move(core)) {}

void engine::observe(const core::observation& obs) {
  const auto& m = lk_->object_monitor();
  seen_.resize(m.sensor_count());
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (m.sensor_at(i).name() == obs.sensor) {
      seen_[i] = obs.value;
      break;
    }
  }
  const auto cur = lk_->current_policy();
  auto want = core_->decide(obs, cur);
  if (!want || *want == cur) return;
  if (lk_->apply_waiting_policy(*want)) {
    note_decision();
    core_->notify_applied();
    last_ = {obs.value, *want, render_sensor_vector()};
  }
}

std::string engine::render_sensor_vector() const {
  const auto& m = lk_->object_monitor();
  std::string out;
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += m.sensor_at(i).name();
    out += '=';
    out += std::to_string(seen_[i]);
  }
  return out;
}

}  // namespace adx::policy
