#include "policy/spec.hpp"

#include <gtest/gtest.h>

#include "policy/registry.hpp"

namespace adx::policy {
namespace {

TEST(PolicySpec, DefaultIsSimpleAdapt) {
  policy_spec s;
  EXPECT_EQ(s.name, "simple-adapt");
  EXPECT_TRUE(s.is_default());
  EXPECT_TRUE(s.params.empty());
  EXPECT_TRUE(s.sensors.empty());
  EXPECT_TRUE(s.wrappers.empty());
}

TEST(PolicySpec, AnyDeviationIsNotDefault) {
  EXPECT_FALSE(policy_spec{}.with_name("break-even").is_default());
  EXPECT_FALSE(policy_spec{}.with_param("spin_cap", 64).is_default());
  EXPECT_FALSE(policy_spec{}.with_sensor({}).is_default());
  EXPECT_FALSE(policy_spec{}.with_hysteresis().is_default());
}

TEST(PolicySpec, BuilderComposes) {
  sensor_spec hold;
  hold.name = "lock-hold-time";
  hold.period = 4;
  hold.agg = aggregation::ewma;
  hold.ewma_alpha = 0.5;
  const auto s = policy_spec{}
                     .with_name("break-even")
                     .with_param("spin_cap", 128)
                     .with_sensor(hold)
                     .with_hysteresis(3)
                     .with_cooldown(5);
  EXPECT_EQ(s.name, "break-even");
  EXPECT_EQ(s.params.at("spin_cap"), 128.0);
  ASSERT_EQ(s.sensors.size(), 1u);
  EXPECT_EQ(s.sensors[0].agg, aggregation::ewma);
  ASSERT_EQ(s.wrappers.size(), 2u);
  EXPECT_EQ(s.wrappers[0].kind, "hysteresis");
  EXPECT_EQ(s.wrappers[0].confirm, 3u);
  EXPECT_EQ(s.wrappers[1].kind, "cooldown");
  EXPECT_EQ(s.wrappers[1].observations, 5u);
}

TEST(PolicySpec, JsonRoundTripDefault) {
  const policy_spec s;
  EXPECT_EQ(policy_spec::from_json(s.to_json()), s);
}

TEST(PolicySpec, JsonRoundTripEveryRegisteredPolicy) {
  for (const auto& info : policy_registry::catalogue()) {
    const auto s = policy_registry::default_spec(info.name);
    EXPECT_EQ(policy_spec::from_json(s.to_json()), s) << info.name;
  }
}

TEST(PolicySpec, JsonRoundTripNestedCombinatorsAndParams) {
  sensor_spec wmax;
  wmax.name = "no-of-waiting-threads";
  wmax.period = 1;
  wmax.agg = aggregation::max_in_window;
  wmax.window = 16;
  const auto s = policy_spec{}
                     .with_name("multi-sensor")
                     .with_param("waiting_threshold", 3)
                     .with_param("spin_budget_us", 93.5)
                     .with_sensor(wmax)
                     .with_hysteresis(2)
                     .with_deadband(12)
                     .with_cooldown(7);
  const auto back = policy_spec::from_json(s.to_json());
  EXPECT_EQ(back, s);
  // Double params survive exactly (shortest round-trip formatting).
  EXPECT_EQ(back.params.at("spin_budget_us"), 93.5);
}

TEST(PolicySpec, AggregationNamesRoundTrip) {
  for (const auto a : {aggregation::last_value, aggregation::ewma,
                       aggregation::max_in_window}) {
    EXPECT_EQ(parse_aggregation(to_string(a)), a);
  }
  EXPECT_THROW((void)parse_aggregation("mean"), std::invalid_argument);
}

TEST(PolicySpec, RejectsUnknownWrapperKind) {
  try {
    (void)policy_spec::from_json(
        R"({"name":"simple-adapt","wrappers":[{"kind":"bogus"}]})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("hysteresis"), std::string::npos);
    EXPECT_NE(msg.find("deadband"), std::string::npos);
    EXPECT_NE(msg.find("cooldown"), std::string::npos);
  }
}

TEST(PolicySpec, MissingKeysKeepDefaults) {
  const auto s = policy_spec::from_json(R"({"name":"ewma-hold"})");
  EXPECT_EQ(s.name, "ewma-hold");
  EXPECT_TRUE(s.params.empty());
  EXPECT_TRUE(s.sensors.empty());
  EXPECT_TRUE(s.wrappers.empty());
}

}  // namespace
}  // namespace adx::policy
