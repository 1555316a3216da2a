// Parallel-vs-sequential equivalence for the refactored sweep drivers: the
// same simulations fanned out across workers must produce bit-identical
// virtual-time results. These tests double as the TSan stress surface for
// concurrent sim::machine / ct::runtime instances — the whole parallel-sweep
// design rests on runs being instance-scoped.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/objects.hpp"
#include "check/runner.hpp"
#include "exec/job_executor.hpp"
#include "perf/scenario.hpp"
#include "policy/registry.hpp"
#include "workload/cs_workload.hpp"

namespace adx {
namespace {

std::vector<workload::cs_config> small_grid() {
  std::vector<workload::cs_config> grid;
  for (const double cs_us : {25.0, 100.0, 400.0}) {
    for (const auto kind : {locks::lock_kind::blocking, locks::lock_kind::combined,
                            locks::lock_kind::adaptive}) {
      workload::cs_config cfg;
      cfg.processors = 4;
      cfg.threads = 8;
      cfg.iterations = 40;
      cfg.cs_length = sim::microseconds(cs_us);
      cfg.think_time = sim::microseconds(3 * cs_us + 100);
      cfg.kind = kind;
      cfg.params.combined_spin_limit = 10;
      grid.push_back(cfg);
    }
  }
  return grid;
}

TEST(ParallelRuns, CsSweepMatchesSequentialBitForBit) {
  const auto grid = small_grid();
  std::vector<workload::cs_result> seq;
  seq.reserve(grid.size());
  for (const auto& cfg : grid) seq.push_back(run_cs_workload(cfg));

  for (const unsigned jobs : {1u, 4u}) {
    exec::job_executor ex(jobs);
    const auto par = workload::run_cs_sweep(grid, ex);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(par[i].elapsed.ns, seq[i].elapsed.ns) << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(par[i].acquisitions, seq[i].acquisitions) << "i=" << i;
      EXPECT_EQ(par[i].contended, seq[i].contended) << "i=" << i;
      EXPECT_EQ(par[i].blocks, seq[i].blocks) << "i=" << i;
      EXPECT_EQ(par[i].peak_waiting, seq[i].peak_waiting) << "i=" << i;
      EXPECT_DOUBLE_EQ(par[i].mean_wait_us, seq[i].mean_wait_us) << "i=" << i;
    }
  }
}

TEST(ParallelRuns, PolicySweepMatchesSequentialBitForBit) {
  // The bench_abl_policy shape: one adaptive-lock workload per registered
  // policy (plus a wrapped variant), fanned out across workers.
  std::vector<workload::cs_config> grid;
  std::vector<policy::policy_spec> specs;
  specs.emplace_back();  // the default simple-adapt
  for (const auto name : policy::policy_registry::names(policy::policy_family::lock)) {
    specs.push_back(policy::policy_registry::default_spec(name));
  }
  specs.push_back(policy::policy_registry::default_spec("break-even").with_hysteresis(2));
  for (const auto& spec : specs) {
    workload::cs_config cfg;
    cfg.processors = 4;
    cfg.threads = 8;
    cfg.iterations = 30;
    cfg.cs_length = sim::microseconds(120);
    cfg.think_time = sim::microseconds(300);
    cfg.kind = locks::lock_kind::adaptive;
    cfg.params.policy = spec;
    grid.push_back(cfg);
  }

  std::vector<workload::cs_result> seq;
  seq.reserve(grid.size());
  for (const auto& cfg : grid) seq.push_back(run_cs_workload(cfg));

  for (const unsigned jobs : {1u, 4u}) {
    exec::job_executor ex(jobs);
    const auto par = workload::run_cs_sweep(grid, ex);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(par[i].elapsed.ns, seq[i].elapsed.ns) << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(par[i].acquisitions, seq[i].acquisitions) << "i=" << i;
      EXPECT_EQ(par[i].blocks, seq[i].blocks) << "i=" << i;
    }
  }
}

check::check_params sweep_point(std::uint64_t seed, check::fixture fix,
                                locks::lock_kind kind) {
  check::check_params p;
  p.config = run_config{}
                 .with_machine(sim::machine_config::test_machine(4))
                 .with_lock(kind)
                 .with_perturb(sim::perturb_profile::chaos())
                 .with_seed(seed);
  p.fix = fix;
  p.iterations = 8;
  return p;
}

TEST(ParallelRuns, CheckSweepMatchesSequentialBitForBit) {
  // A miniature adx-check sweep: fixtures x locks x seeds, exactly the shape
  // main.cpp fans out. Concurrent run_check calls build concurrent machines,
  // perturbers and monitors — the TSan target.
  std::vector<check::check_params> points;
  for (const auto fix : {check::fixture::mutex, check::fixture::oversub}) {
    for (const auto kind : {locks::lock_kind::blocking, locks::lock_kind::ticket}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        points.push_back(sweep_point(seed, fix, kind));
      }
    }
  }
  std::vector<check::check_result> seq;
  seq.reserve(points.size());
  for (const auto& p : points) seq.push_back(check::run_check(p));

  exec::job_executor ex(4);
  const auto par = ex.map(points.size(),
                          [&](std::size_t i) { return check::run_check(points[i]); });
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(par[i].end_time.ns, seq[i].end_time.ns) << "i=" << i;
    EXPECT_EQ(par[i].events, seq[i].events) << "i=" << i;
    EXPECT_EQ(par[i].violations.size(), seq[i].violations.size()) << "i=" << i;
    EXPECT_EQ(par[i].trace, seq[i].trace) << "i=" << i;
  }
}

TEST(ParallelRuns, ObjectCheckSweepMatchesSequentialBitForBit) {
  // The adx-check --objects axis: object kinds x seeds fanned out exactly as
  // main.cpp does. Concurrent run_object_check calls build concurrent maps,
  // monitors, stripe locks and shadow models — each must stay instance-scoped.
  std::vector<check::object_check_params> points;
  for (const char* object : {"hashmap", "monitor"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      check::object_check_params p;
      p.config = run_config{}
                     .with_machine(sim::machine_config::test_machine(4))
                     .with_lock(object == std::string("hashmap")
                                    ? locks::lock_kind::adaptive
                                    : locks::lock_kind::blocking)
                     .with_perturb(sim::perturb_profile::chaos())
                     .with_seed(seed)
                     .with_object(object);
      p.iterations = 8;
      points.push_back(std::move(p));
    }
  }
  std::vector<check::check_result> seq;
  seq.reserve(points.size());
  for (const auto& p : points) seq.push_back(check::run_object_check(p));

  for (const unsigned jobs : {1u, 4u}) {
    exec::job_executor ex(jobs);
    const auto par = ex.map(points.size(), [&](std::size_t i) {
      return check::run_object_check(points[i]);
    });
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(par[i].end_time.ns, seq[i].end_time.ns) << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(par[i].events, seq[i].events) << "i=" << i;
      EXPECT_EQ(par[i].violations.size(), seq[i].violations.size()) << "i=" << i;
      EXPECT_EQ(par[i].trace, seq[i].trace) << "i=" << i;
    }
  }
}

std::optional<std::pair<check::check_params, check::check_result>> broken_failure() {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const auto& profile :
         {sim::perturb_profile::delay(), sim::perturb_profile::chaos()}) {
      check::check_params p;
      p.config = run_config{}
                     .with_machine(sim::machine_config::test_machine(4))
                     .with_perturb(profile)
                     .with_seed(seed);
      p.fix = check::fixture::broken_lock;
      auto r = check::run_check(p);
      if (r.failed()) return {{p, std::move(r)}};
    }
  }
  return std::nullopt;
}

TEST(ParallelRuns, ShrinkTraceIsWorkerCountInvariant) {
  const auto failure = broken_failure();
  ASSERT_TRUE(failure.has_value()) << "no seed tripped the broken lock";
  const auto& [p, r] = *failure;

  const auto seq = check::shrink_trace(p, r.trace);  // one inline worker
  for (const unsigned jobs : {2u, 5u}) {
    exec::job_executor ex(jobs);
    const auto par = check::shrink_trace(p, r.trace, ex);
    EXPECT_EQ(par.minimal, seq.minimal) << "jobs=" << jobs;
    EXPECT_EQ(par.replays, seq.replays) << "jobs=" << jobs;
    EXPECT_EQ(par.still_fails, seq.still_fails) << "jobs=" << jobs;
  }
}

perf::scenario tiny_scenario(const std::string& name, double cs_us) {
  return perf::scenario{
      name, "test scenario", [cs_us]() {
        workload::cs_config cfg;
        cfg.processors = 3;
        cfg.threads = 6;
        cfg.iterations = 30;
        cfg.cs_length = sim::microseconds(cs_us);
        cfg.kind = locks::lock_kind::blocking;
        const auto r = run_cs_workload(cfg);
        perf::scenario_result out;
        out.metrics.push_back({"elapsed_us", "us", perf::metric_clock::virtual_time,
                               static_cast<double>(r.elapsed.ns) / 1000.0, false});
        out.metrics.push_back({"acquisitions", "count", perf::metric_clock::virtual_time,
                               static_cast<double>(r.acquisitions), false});
        return out;
      }};
}

TEST(ParallelRuns, ScenarioBatchVirtualMetricsAreWorkerCountInvariant) {
  const std::vector<perf::scenario> scenarios = {
      tiny_scenario("tiny_a", 40), tiny_scenario("tiny_b", 150),
      tiny_scenario("tiny_c", 600)};
  std::vector<const perf::scenario*> list;
  for (const auto& s : scenarios) list.push_back(&s);

  std::vector<std::vector<perf::scenario_outcome>> runs;
  for (const unsigned jobs : {1u, 3u}) {
    exec::job_executor ex(jobs);
    runs.push_back(perf::run_scenarios(list, 2, 0, ex));
  }
  ASSERT_EQ(runs[0].size(), list.size());
  ASSERT_EQ(runs[1].size(), list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    ASSERT_TRUE(runs[0][i].ok());
    ASSERT_TRUE(runs[1][i].ok());
    const auto& a = runs[0][i].summary;
    const auto& b = runs[1][i].summary;
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
      if (a.metrics[m].clock != perf::metric_clock::virtual_time) continue;
      EXPECT_EQ(a.metrics[m].name, b.metrics[m].name);
      EXPECT_EQ(a.metrics[m].stats.median, b.metrics[m].stats.median)
          << a.metrics[m].name << " diverged between jobs=1 and jobs=3";
      EXPECT_EQ(a.metrics[m].stats.iqr, 0.0) << a.metrics[m].name;
    }
  }
}

}  // namespace
}  // namespace adx
