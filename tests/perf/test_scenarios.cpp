// The scenario registry: completeness, naming discipline, and determinism of
// the virtual-clock metrics that the regression gate compares exactly.
#include "perf/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "perf/probes.hpp"

namespace adx::perf {
namespace {

TEST(Scenarios, NamesAreUniqueAndDescribed) {
  std::set<std::string> seen;
  for (const auto& s : all_scenarios()) {
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate scenario " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_TRUE(s.body != nullptr) << s.name;
  }
  EXPECT_GE(seen.size(), 15u);
}

TEST(Scenarios, RequiredGateScenariosExist) {
  // The committed baselines and CI perf gate are keyed on these names.
  for (const char* name :
       {"bench_table7_cycle_adaptive", "bench_fig1_cs_sweep", "sim_event_queue_churn",
        "bench_table1_tsp_central", "bench_table4_lock_cost"}) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
}

TEST(Scenarios, PolicyAblationScenarioIsRegistered) {
  const auto* sc = find_scenario("bench_abl_policy");
  ASSERT_NE(sc, nullptr);
  EXPECT_FALSE(sc->description.empty());
}

// The async execution-mode ablation: the scenario must exist for the perf
// gate, and one run must show the daemon actually engaged — wakeups
// happened and the queued observations reached the policy (the async rows
// are meaningless if the runtime silently stayed sync).
TEST(Scenarios, AsyncPolicyScenarioRunsTheDaemon) {
  const auto* sc = find_scenario("bench_abl_async_policy");
  ASSERT_NE(sc, nullptr);
  const auto sum = run_scenario(*sc, 1, 0);
  const auto value = [&](const std::string& name) -> double {
    for (const auto& m : sum.metrics) {
      if (m.name == name) return m.stats.median;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0.0;
  };
  EXPECT_GT(value("sync_total_virtual_ms"), 0.0);
  EXPECT_GT(value("async_total_virtual_ms"), 0.0);
  EXPECT_GT(value("async_daemon_ticks"), 0.0);
  EXPECT_GT(value("async_pumped"), 0.0);
}

// The micro-cost scenarios gate exactly the figures their tables print: both
// consumers run the probes in perf/probes.hpp. Table 5 in particular gates
// the table's 8-unlock mean, where the adaptive lock's amortized monitor
// sample shows (a single unlock would read 14 us locally, not 49.75).
TEST(Scenarios, CostTableScenariosGateTheProbesTheTablesPrint) {
  const auto metric = [](const char* scenario, const std::string& name) -> double {
    const auto* sc = find_scenario(scenario);
    if (sc == nullptr) {
      ADD_FAILURE() << "scenario not found: " << scenario;
      return 0.0;
    }
    for (const auto& m : run_scenario(*sc, 1, 0).metrics) {
      if (m.name == name) return m.stats.median;
    }
    ADD_FAILURE() << "metric not found: " << scenario << ":" << name;
    return 0.0;
  };
  const auto adaptive = locks::lock_kind::adaptive;
  EXPECT_EQ(metric("bench_table5_unlock_cost", "unlock_adaptive_local_us"),
            unlock_op_us(adaptive, false));
  EXPECT_EQ(unlock_op_us(adaptive, false), 49.75);
  EXPECT_EQ(metric("bench_table4_lock_cost", "lock_adaptive_remote_us"),
            lock_op_us(adaptive, true));
  EXPECT_EQ(metric("bench_table7_cycle_adaptive", "cycle_as_blocking_local_us"),
            cycle_pinned_us(table7_policies().at(1), false));
  EXPECT_EQ(metric("bench_table8_config_ops", "configure_scheduler_remote_us"),
            configure_scheduler_us(true));
}

TEST(Scenarios, FindRejectsUnknownNames) {
  EXPECT_EQ(find_scenario("bench_nonexistent"), nullptr);
  EXPECT_EQ(find_scenario(""), nullptr);
}

// Every scenario's virtual-clock metrics must be identical across
// repetitions — the property the whole exact-match gate rests on. The
// runner enforces it by throwing; two reps of the cheapest scenarios prove
// the wiring end to end.
TEST(Scenarios, MicrobenchVirtualMetricsAreDeterministic) {
  for (const char* name : {"sim_event_queue_churn", "bench_table4_lock_cost"}) {
    const auto* sc = find_scenario(name);
    ASSERT_NE(sc, nullptr);
    const auto sum = run_scenario(*sc, 2, 0);
    bool any_virtual = false;
    for (const auto& m : sum.metrics) {
      if (m.clock != metric_clock::virtual_time) continue;
      any_virtual = true;
      EXPECT_EQ(m.stats.iqr, 0.0) << name << ":" << m.name;
    }
    EXPECT_TRUE(any_virtual) << name;
  }
}

// The headline property of the src/objects benches (mirrors the paper's
// claim for adaptive locks): the adaptive column must track the better
// fixed configuration on every workload shape, never losing to both. The
// metrics are virtual-clock and therefore exact, so this is a hard
// relation, not a tolerance band.
TEST(Scenarios, AdaptiveHashMapTracksTheBetterFixedStriping) {
  const auto* sc = find_scenario("bench_hashmap_mixed");
  ASSERT_NE(sc, nullptr);
  const auto sum = run_scenario(*sc, 1, 0);
  const auto value = [&](const std::string& name) -> double {
    for (const auto& m : sum.metrics) {
      if (m.name == name) return m.stats.median;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0.0;
  };
  for (const char* shape : {"low", "high"}) {
    const std::string s(shape);
    const double fixed4 = value(s + "_fixed4_virtual_ms");
    const double fixed64 = value(s + "_fixed64_virtual_ms");
    const double adaptive = value(s + "_adaptive_virtual_ms");
    EXPECT_LT(adaptive, std::max(fixed4, fixed64))
        << s << ": adaptive " << adaptive << " lost to both fixed configs ("
        << fixed4 << ", " << fixed64 << ")";
  }
}

TEST(Scenarios, AdaptiveMonitorTracksTheBetterFixedMode) {
  const auto* sc = find_scenario("bench_monitor_delegation");
  ASSERT_NE(sc, nullptr);
  const auto sum = run_scenario(*sc, 1, 0);
  const auto value = [&](const std::string& name) -> double {
    for (const auto& m : sum.metrics) {
      if (m.name == name) return m.stats.median;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return 0.0;
  };
  for (const char* shape : {"short", "long"}) {
    const std::string s(shape);
    const double classic = value(s + "_classic_virtual_ms");
    const double delegated = value(s + "_delegated_virtual_ms");
    const double adaptive = value(s + "_adaptive_virtual_ms");
    EXPECT_LT(adaptive, std::max(classic, delegated))
        << s << ": adaptive " << adaptive << " lost to both fixed modes ("
        << classic << ", " << delegated << ")";
  }
}

TEST(Scenarios, EveryScenarioReportsAtLeastOneVirtualMetric) {
  // Statically declared in every body; spot-check by name conventions. A
  // scenario with only wall metrics would silently weaken the exact gate.
  for (const auto& s : all_scenarios()) {
    EXPECT_TRUE(s.name.rfind("bench_", 0) == 0 || s.name.rfind("sim_", 0) == 0)
        << "scenario name '" << s.name << "' should state what it mirrors";
  }
}

}  // namespace
}  // namespace adx::perf
