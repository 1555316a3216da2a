#include "policy/registry.hpp"

#include <gtest/gtest.h>

#include "locks/factory.hpp"
#include "policy/engine.hpp"

namespace adx::policy {
namespace {

locks::lock_cost_model cost() { return locks::lock_cost_model::fast_test(); }

std::vector<std::string_view> lock_policies() {
  return policy_registry::names(policy_family::lock);
}

TEST(Registry, ListsTheFourBuiltinPolicies) {
  const auto names = lock_policies();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "simple-adapt");
  EXPECT_EQ(names[1], "break-even");
  EXPECT_EQ(names[2], "ewma-hold");
  EXPECT_EQ(names[3], "multi-sensor");
  for (const auto& info : policy_registry::catalogue()) {
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
}

TEST(Registry, ParseErrorListsTheValidPolicies) {
  try {
    (void)policy_registry::parse("fancy-adapt", policy_family::lock);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fancy-adapt"), std::string::npos);
    for (const auto name : lock_policies()) {
      EXPECT_NE(msg.find(std::string(name)), std::string::npos) << name;
    }
  }
}

TEST(Registry, DefaultSpecOfSimpleAdaptIsTheDefault) {
  // Empty sensors: install takes the sample period from the lock itself.
  EXPECT_TRUE(policy_registry::default_spec("simple-adapt").is_default());
}

TEST(Registry, DefaultSpecsCarryTheirSensors) {
  const auto be = policy_registry::default_spec("break-even", 4);
  ASSERT_EQ(be.sensors.size(), 2u);
  EXPECT_EQ(be.sensors[0].name, "no-of-waiting-threads");
  EXPECT_EQ(be.sensors[0].period, 4u);
  EXPECT_EQ(be.sensors[0].agg, aggregation::last_value);
  EXPECT_EQ(be.sensors[1].name, "lock-hold-time");
  EXPECT_EQ(be.sensors[1].agg, aggregation::ewma);

  const auto eh = policy_registry::default_spec("ewma-hold");
  ASSERT_EQ(eh.sensors.size(), 1u);
  EXPECT_EQ(eh.sensors[0].name, "lock-hold-time");
}

TEST(Registry, InstallReplacesSensorsAndPolicy) {
  locks::adaptive_lock lk(0, cost());
  policy_registry::install(lk, policy_registry::default_spec("break-even"), cost());
  ASSERT_EQ(lk.object_monitor().sensor_count(), 2u);
  EXPECT_EQ(lk.object_monitor().sensor_at(0).name(), "no-of-waiting-threads");
  EXPECT_EQ(lk.object_monitor().sensor_at(1).name(), "lock-hold-time");
  const auto* p = dynamic_cast<const locks::lock_adapt_policy*>(lk.policy());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->policy_name(), "break-even");
}

TEST(Registry, InstallAppliesWrappersOutermostFirst) {
  locks::adaptive_lock lk(0, cost());
  policy_registry::install(
      lk, policy_registry::default_spec("ewma-hold").with_hysteresis(2).with_cooldown(3),
      cost());
  const auto* p = dynamic_cast<const locks::lock_adapt_policy*>(lk.policy());
  ASSERT_NE(p, nullptr);
  // Wrapper names accumulate inside-out: cooldown is innermost-applied last
  // in the list, so the full name reads core+cooldown+hysteresis.
  EXPECT_EQ(p->policy_name(), "ewma-hold+cooldown+hysteresis");
}

TEST(Registry, InstallRejectsUnknownPolicy) {
  locks::adaptive_lock lk(0, cost());
  EXPECT_THROW(
      policy_registry::install(lk, policy_spec{}.with_name("fancy-adapt"), cost()),
      std::invalid_argument);
  // The constructor's install path rejects it the same way.
  EXPECT_THROW(locks::adaptive_lock(0, cost(), {}, locks::waiting_policy::mixed(10),
                                    policy_spec{}.with_name("fancy-adapt")),
               std::invalid_argument);
}

TEST(Registry, MakeLockRoutesNonDefaultSpecsThroughTheEngine) {
  locks::lock_params params;
  params.policy = policy_registry::default_spec("multi-sensor");
  const auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost(), params);
  auto* al = dynamic_cast<locks::adaptive_lock*>(lk.get());
  ASSERT_NE(al, nullptr);
  const auto* p = dynamic_cast<const locks::lock_adapt_policy*>(al->policy());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->policy_name(), "multi-sensor");
  EXPECT_EQ(al->object_monitor().sensor_count(), 2u);
}

TEST(Registry, MakeLockDefaultSpecKeepsTheBuiltinPolicy) {
  const auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost(), {});
  auto* al = dynamic_cast<locks::adaptive_lock*>(lk.get());
  ASSERT_NE(al, nullptr);
  // The registered simple-adapt, built by the engine like every other spec.
  const auto* eng = dynamic_cast<const engine*>(al->policy());
  ASSERT_NE(eng, nullptr);
  EXPECT_EQ(eng->policy_name(), "simple-adapt");
  ASSERT_EQ(al->object_monitor().sensor_count(), 1u);
  EXPECT_EQ(al->object_monitor().sensor_at(0).name(), "no-of-waiting-threads");
}

}  // namespace
}  // namespace adx::policy
