#include "policy/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ct/runtime.hpp"
#include "policy/registry.hpp"
#include "workload/cs_workload.hpp"

namespace adx::policy {
namespace {

using locks::waiting_policy;

locks::lock_cost_model cost() { return locks::lock_cost_model::fast_test(); }

// ------------------------------------------------------------- combinators

/// A core that always wants the configuration it was told to want.
class fixed_core final : public decision_core {
 public:
  explicit fixed_core(std::optional<waiting_policy> want) : want_(want) {}
  [[nodiscard]] std::string_view name() const override { return "fixed"; }
  std::optional<waiting_policy> decide(const core::observation&,
                                       const waiting_policy&) override {
    ++calls;
    return want_;
  }
  void notify_applied() override { ++applied; }

  std::optional<waiting_policy> want_;
  int calls{0};
  int applied{0};
};

const core::observation kObs{"no-of-waiting-threads", 1};

TEST(Hysteresis, PassesOnlyAfterKConsecutiveIdenticalDecisions) {
  auto inner = std::make_unique<fixed_core>(waiting_policy::pure_sleep());
  auto* raw = inner.get();
  auto h = wrap_hysteresis(std::move(inner), 3);
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(h->decide(kObs, {}), waiting_policy::pure_sleep());
  // The streak resets after a pass-through.
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  // notify_applied reaches the inner core.
  h->notify_applied();
  EXPECT_EQ(raw->applied, 1);
}

TEST(Hysteresis, ChangedDesireRestartsTheStreak) {
  auto inner = std::make_unique<fixed_core>(waiting_policy::mixed(10));
  auto* raw = inner.get();
  auto h = wrap_hysteresis(std::move(inner), 2);
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  raw->want_ = waiting_policy::mixed(20);  // inner changes its mind
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(h->decide(kObs, {}), waiting_policy::mixed(20));
}

TEST(Deadband, SuppressesSmallSameShapeSpinDeltas) {
  auto d = wrap_deadband(std::make_unique<fixed_core>(waiting_policy::mixed(14)), 8);
  // Current mixed(10): |14-10| = 4 < 8 — suppressed.
  EXPECT_EQ(d->decide(kObs, waiting_policy::mixed(10)), std::nullopt);
  // Current mixed(2): |14-2| = 12 >= 8 — passes.
  EXPECT_EQ(d->decide(kObs, waiting_policy::mixed(2)), waiting_policy::mixed(14));
}

TEST(Deadband, ShapeChangesAlwaysPass) {
  auto d = wrap_deadband(std::make_unique<fixed_core>(waiting_policy::pure_sleep()), 1000);
  EXPECT_EQ(d->decide(kObs, waiting_policy::mixed(10)),
            waiting_policy::pure_sleep());
}

TEST(Cooldown, SuppressesDecisionsAfterAnAppliedPsi) {
  auto c = wrap_cooldown(std::make_unique<fixed_core>(waiting_policy::pure_sleep()), 2);
  EXPECT_EQ(c->decide(kObs, {}), waiting_policy::pure_sleep());
  c->notify_applied();
  EXPECT_EQ(c->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(c->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(c->decide(kObs, {}), waiting_policy::pure_sleep());
}

// ------------------------------------------------------------------ engine

TEST(Engine, AppliesDecisionsAndRecordsThem) {
  locks::reconfigurable_lock lk(0, cost(), waiting_policy::mixed(30));
  auto eng = std::make_shared<engine>(
      lk, "fixed", std::make_unique<fixed_core>(waiting_policy::pure_sleep()));
  lk.set_policy(eng);
  lk.object_monitor().add_sensor(core::sensor("no-of-waiting-threads", [] { return 6; }, 1));
  EXPECT_EQ(lk.feedback_point(), 1u);
  EXPECT_TRUE(lk.current_policy().is_pure_sleep());
  EXPECT_EQ(eng->policy_name(), "fixed");
  EXPECT_EQ(eng->decisions(), 1u);
  EXPECT_EQ(eng->last_decision().sensor_value, 6);
  EXPECT_EQ(eng->last_decision().applied, waiting_policy::pure_sleep());
  // The sensor names come from the lock's monitor.
  EXPECT_EQ(eng->last_decision().sensors, "no-of-waiting-threads=6");
}

TEST(Engine, RecordShowsTheSensorVectorAsDelivered) {
  // The monitor folds both sensors of a trigger before delivering the first.
  // A decision on the first shows the second as the core last saw it (not
  // yet delivered: 0), not the monitor's fresher aggregate.
  locks::reconfigurable_lock lk(0, cost(), waiting_policy::mixed(30));
  auto eng = std::make_shared<engine>(
      lk, "fixed", std::make_unique<fixed_core>(waiting_policy::pure_sleep()));
  lk.set_policy(eng);
  lk.object_monitor().add_sensor(core::sensor("no-of-waiting-threads", [] { return 6; }, 1));
  lk.object_monitor().add_sensor(core::sensor("lock-hold-time", [] { return 14; }, 1));
  EXPECT_EQ(lk.feedback_point(), 2u);
  EXPECT_EQ(eng->decisions(), 1u);
  EXPECT_EQ(lk.object_monitor().aggregated_value(1), 14);
  EXPECT_EQ(eng->last_decision().sensors, "no-of-waiting-threads=6 lock-hold-time=0");
}

TEST(Engine, SkipsNoopDecisions) {
  locks::reconfigurable_lock lk(0, cost(), waiting_policy::pure_sleep());
  engine eng(lk, "fixed", std::make_unique<fixed_core>(waiting_policy::pure_sleep()));
  eng.observe({"no-of-waiting-threads", 2});
  EXPECT_EQ(eng.decisions(), 0u);  // desired == current: no Ψ, no record
}

// The monitor folds each sensor before the policy decides: a registry-built
// ewma-hold on a max-in-window hold-time sensor sizes its spin budget to the
// window's longest hold, not to the newest one, and the decision record
// shows the folded value.
TEST(Engine, AggregatesPerSensorBeforeDeciding) {
  sensor_spec hold;
  hold.name = "lock-hold-time";
  hold.period = 1;
  hold.agg = aggregation::max_in_window;
  hold.window = 4;
  locks::adaptive_lock lk(0, cost(), {}, waiting_policy::mixed(10),
                          policy_spec{}.with_name("ewma-hold").with_sensor(hold));
  const auto* pol = dynamic_cast<const locks::lock_adapt_policy*>(lk.policy());
  ASSERT_NE(pol, nullptr);

  ct::runtime rt(sim::machine_config::test_machine(1));
  std::vector<std::int64_t> raw;
  std::vector<std::uint64_t> decisions;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (const double hold_us : {90.0, 10.0, 30.0, 20.0, 20.0}) {
      co_await lk.lock(ctx);
      co_await ctx.compute(sim::microseconds(hold_us));
      co_await lk.unlock(ctx);
      raw.push_back(std::llround(lk.stats().last_held().us()));
      decisions.push_back(pol->decisions());
    }
  });
  rt.run_all();
  ASSERT_EQ(raw.size(), 5u);

  // Holds 1-4 fold to the first (longest) hold: one Ψ, then no-ops. A core
  // fed the raw samples would have re-sized the spin budget every time.
  EXPECT_EQ(decisions, (std::vector<std::uint64_t>{1, 1, 1, 1, 2}));
  // Hold 5 ages the first out of the 4-sample window; the max is hold 3.
  ASSERT_NE(raw[4], raw[2]);
  EXPECT_EQ(lk.current_policy(), waiting_policy::mixed(raw[2]));
  EXPECT_EQ(pol->last_decision().sensor_value, raw[2]);
  EXPECT_EQ(pol->last_decision().sensors, "lock-hold-time=" + std::to_string(raw[2]));
}

// The default spec (simple-adapt, empty sensor list) and an explicit spec
// naming the same single sensor at the same period are the same policy:
// same decisions, same costs, same elapsed virtual time.
TEST(Engine, DefaultSpecMatchesExplicitOneSensorSpecBitExactly) {
  const auto run = [](bool explicit_sensor) {
    workload::cs_config c;
    c.processors = 4;
    c.threads = 8;
    c.iterations = 40;
    c.cs_length = sim::microseconds(80);
    c.think_time = sim::microseconds(150);
    c.kind = locks::lock_kind::adaptive;
    c.cost = locks::lock_cost_model::fast_test();
    c.machine = sim::machine_config::test_machine(4);
    if (explicit_sensor) {
      sensor_spec waiting;
      waiting.period = c.params.adapt.sample_period;
      c.params.policy = policy_spec{}.with_sensor(waiting);
    }
    return run_cs_workload(c);
  };
  const auto by_default = run(false);
  const auto by_spec = run(true);
  EXPECT_GT(by_default.acquisitions, 0u);
  EXPECT_EQ(by_default.elapsed.ns, by_spec.elapsed.ns);
  EXPECT_EQ(by_default.acquisitions, by_spec.acquisitions);
  EXPECT_EQ(by_default.contended, by_spec.contended);
  EXPECT_EQ(by_default.blocks, by_spec.blocks);
}

}  // namespace
}  // namespace adx::policy
