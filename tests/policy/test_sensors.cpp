#include "policy/sensors.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "locks/adaptive_lock.hpp"
#include "locks/reconfigurable_lock.hpp"

namespace adx::policy {
namespace {

locks::lock_cost_model cost() { return locks::lock_cost_model::fast_test(); }

TEST(LockSensors, CatalogueListsFourSensors) {
  const auto names = all_sensor_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "no-of-waiting-threads");
  EXPECT_EQ(names[1], "lock-hold-time");
  EXPECT_EQ(names[2], "handoff-latency");
  EXPECT_EQ(names[3], "acquire-rate");
}

TEST(LockSensors, EveryCatalogueNameConstructs) {
  locks::reconfigurable_lock lk(0, cost());
  for (const auto name : all_sensor_names()) {
    auto s = make_lock_sensor(name, lk, 3);
    EXPECT_EQ(s.name(), name);
    EXPECT_EQ(s.period(), 3u);
  }
}

TEST(LockSensors, UnknownNameListsTheValidSensors) {
  locks::reconfigurable_lock lk(0, cost());
  try {
    (void)make_lock_sensor("cpu-temperature", lk, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cpu-temperature"), std::string::npos);
    for (const auto name : all_sensor_names()) {
      EXPECT_NE(msg.find(std::string(name)), std::string::npos) << name;
    }
  }
}

TEST(LockSensors, WaitingThreadsReadsLiveCount) {
  locks::reconfigurable_lock lk(0, cost());
  auto s = make_lock_sensor("no-of-waiting-threads", lk, 1);
  const auto obs = s.trigger();
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->value, 0);
}

TEST(LockSensors, HoldTimeReadsLastCompletedHold) {
  locks::reconfigurable_lock lk(0, cost());
  lk.stats().on_acquired(sim::vtime{1'000}, sim::vdur{0}, 1);
  lk.stats().on_release(sim::vtime{251'000}, 1);  // held 250us
  auto s = make_lock_sensor("lock-hold-time", lk, 1);
  const auto obs = s.trigger();
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->value, 250);
}

TEST(LockSensors, HandoffLatencyReadsReleaseToAcquireGap) {
  locks::reconfigurable_lock lk(0, cost());
  auto s = make_lock_sensor("handoff-latency", lk, 1);
  EXPECT_EQ(s.trigger()->value, 0);  // no handoff observed yet
  lk.stats().on_acquired(sim::vtime{1'000}, sim::vdur{0}, 1);
  lk.stats().on_release(sim::vtime{2'000}, 1);
  lk.stats().on_acquired(sim::vtime{42'000}, sim::vdur{40'000}, 2);  // 40us later
  EXPECT_EQ(s.trigger()->value, 40);
}

TEST(LockSensors, AcquireRateIsDeltaBetweenSamples) {
  locks::reconfigurable_lock lk(0, cost());
  auto s = make_lock_sensor("acquire-rate", lk, 1);
  EXPECT_EQ(s.trigger()->value, 0);
  for (int i = 0; i < 5; ++i) {
    lk.stats().on_acquired(sim::vtime{}, sim::vdur{}, 1);
  }
  EXPECT_EQ(s.trigger()->value, 5);
  EXPECT_EQ(s.trigger()->value, 0);  // no new acquisitions since last sample
}

// install_sensors validates the whole list before touching the monitor:
// the adaptive lock keeps its one default sensor when a list is rejected.
void expect_rejected(const std::vector<sensor_spec>& specs, const std::string& needle) {
  locks::adaptive_lock lk(0, cost());
  lock_sensor_host host(lk);
  try {
    install_sensors(lk, host, specs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
  ASSERT_EQ(lk.object_monitor().sensor_count(), 1u);
  EXPECT_EQ(lk.object_monitor().sensor_at(0).name(), "no-of-waiting-threads");
}

TEST(LockSensors, InstallRejectsASensorListedTwice) {
  // Each sensor has one fold in the monitor, so a second entry could only
  // contradict the first.
  sensor_spec smooth;
  smooth.name = "lock-hold-time";
  smooth.agg = aggregation::ewma;
  sensor_spec peak = smooth;
  peak.agg = aggregation::max_in_window;
  expect_rejected({smooth, peak}, "duplicate sensor: lock-hold-time");
  // The adaptive lock's constructor takes the same path.
  EXPECT_THROW(locks::adaptive_lock(0, cost(), {}, locks::waiting_policy::mixed(10),
                                    policy_spec{}.with_name("ewma-hold")
                                        .with_sensor(smooth)
                                        .with_sensor(peak)),
               std::invalid_argument);
}

TEST(LockSensors, InstallRejectsEwmaAlphaOutsideUnitInterval) {
  sensor_spec waiting;  // a valid entry ahead of the bad one
  sensor_spec hold;
  hold.name = "lock-hold-time";
  hold.agg = aggregation::ewma;
  for (const double alpha : {7.0, 0.0, -0.5}) {
    hold.ewma_alpha = alpha;
    expect_rejected({waiting, hold}, "bad ewma_alpha for sensor lock-hold-time");
  }
  // 1 is inside (0, 1]: the fold degenerates to last-value.
  hold.ewma_alpha = 1.0;
  locks::adaptive_lock lk(0, cost());
  lock_sensor_host host(lk);
  const std::vector<sensor_spec> ok = {waiting, hold};
  install_sensors(lk, host, ok);
  EXPECT_EQ(lk.object_monitor().sensor_count(), 2u);
}

}  // namespace
}  // namespace adx::policy
