// Tests of the benchmark itself: the output checks fire on starved inputs,
// the virtual results are invariant where the design says they must be, the
// seed reaches the inputs, and span self time is computed as documented.
//
// Build and run: python3 perfbench/run.py --test
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

pass_result one_pass(const options& opt) {
  auto w = workload::setup(opt, nullptr);
  return w->run_pass(nullptr);
}

/// Small inputs for the check tests: they only need every call to run.
scale small() {
  scale s;
  s.requests_per_group = 20;
  s.cs_iterations = 10;
  s.tsp_instances = 2;
  s.tsp_cities = 12;
  s.tsp_min_expansions = 0;
  return s;
}

options starved(workload_id id, std::uint64_t max_events) {
  options o;
  o.id = id;
  o.size = small();
  o.size.max_events = max_events;
  return o;
}

TEST(Checks, SmallInputsPassEveryCheck) {
  for (const auto id : {workload_id::serve_seq, workload_id::serve_sharded,
                        workload_id::cs_sweep, workload_id::tsp_central}) {
    options o;
    o.id = id;
    o.size = small();
    const auto p = one_pass(o);
    EXPECT_GT(p.calls, 0u) << to_string(id);
    EXPECT_EQ(p.calls_failed, 0u) << to_string(id) << ": "
                                  << (p.failures.empty() ? "" : p.failures.front());
    EXPECT_EQ(p.ops_failed, 0u) << to_string(id);
    EXPECT_GT(p.ops_attempted, 0u) << to_string(id);
  }
}

TEST(Checks, StarvedServeRunsCountAsFailed) {
  const auto p = one_pass(starved(workload_id::serve_seq, 2'000));
  EXPECT_EQ(p.calls, 3u * kServeStreams);
  EXPECT_EQ(p.calls_failed, 3u * kServeStreams);
  EXPECT_EQ(p.ops_failed, p.ops_attempted);
  EXPECT_GT(p.ops_attempted, 0u);
}

TEST(Checks, StarvedCsRunsCountAsFailed) {
  const auto p = one_pass(starved(workload_id::cs_sweep, 200));
  EXPECT_EQ(p.calls, 40u);
  EXPECT_EQ(p.calls_failed, 40u);
  EXPECT_EQ(p.ops_failed, p.ops_attempted);
}

TEST(Checks, StarvedTspRunsCountAsFailed) {
  const auto p = one_pass(starved(workload_id::tsp_central, 100));
  EXPECT_EQ(p.calls, 4u);
  EXPECT_EQ(p.calls_failed, 4u);
  EXPECT_EQ(p.ops_failed, p.ops_attempted);
}

void expect_same_virtual(const pass_result& a, const pass_result& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.virt_makespan_ms, b.virt_makespan_ms);
  EXPECT_EQ(a.adaptive_regret, b.adaptive_regret);
  EXPECT_EQ(a.virt_p50_us, b.virt_p50_us);
  EXPECT_EQ(a.virt_p99_us, b.virt_p99_us);
  EXPECT_EQ(a.virt_samples, b.virt_samples);
  EXPECT_EQ(a.ops_done, b.ops_done);
}

TEST(Invariance, ServeSeqAndShardedHaveTheSameVirtualResults) {
  options seq;
  seq.id = workload_id::serve_seq;
  options sharded = seq;
  sharded.id = workload_id::serve_sharded;
  const auto a = one_pass(seq);
  const auto b = one_pass(sharded);
  EXPECT_EQ(a.calls_failed, 0u);
  EXPECT_EQ(b.calls_failed, 0u);
  expect_same_virtual(a, b);
  EXPECT_EQ(a.counts.windows, b.counts.windows);
  EXPECT_EQ(a.counts.cross_sends, b.counts.cross_sends);
}

TEST(Invariance, ServeShardedIsUnchangedByTheTelemetryDump) {
  const auto dump = (std::filesystem::current_path() /
                     ("perfbench-test-" + std::to_string(::getpid()) + ".bin"))
                        .string();
  options off;
  off.id = workload_id::serve_sharded;
  options on = off;
  on.telemetry_dump = dump;
  const auto a = one_pass(off);
  pass_result b;
  {
    auto w = workload::setup(on, nullptr);
    ASSERT_NE(w->telemetry_client(), nullptr);
    b = w->run_pass(nullptr);
  }
  EXPECT_GT(std::filesystem::file_size(dump), 0u);
  std::filesystem::remove(dump);
  expect_same_virtual(a, b);
}

TEST(Seeds, HeldOutSeedChangesVirtualResultsAndPassesChecks) {
  for (const auto id : {workload_id::serve_seq, workload_id::cs_sweep,
                        workload_id::tsp_central}) {
    options o;
    o.id = id;
    o.seed = kDefaultSeed;
    const auto a = one_pass(o);
    o.seed = kHeldOutSeed;
    const auto b = one_pass(o);
    EXPECT_EQ(a.ops_failed, 0u) << to_string(id);
    EXPECT_EQ(b.ops_failed, 0u) << to_string(id);
    EXPECT_NE(a.digest, b.digest) << to_string(id);
    EXPECT_NE(a.virt_makespan_ms, b.virt_makespan_ms) << to_string(id);
    EXPECT_NE(a.adaptive_regret, b.adaptive_regret) << to_string(id);
  }
}

TEST(Seeds, SameSeedRepeatsExactly) {
  options o;
  o.id = workload_id::tsp_central;
  o.size = small();
  expect_same_virtual(one_pass(o), one_pass(o));
}

TEST(Spans, SelfTimeIsDurationMinusDirectChildren) {
  span_log log(true, "test");
  {
    span_log::scope outer(&log, "outer");
    { span_log::scope a(&log, "inner"); }
    { span_log::scope b(&log, "inner"); }
  }
  ASSERT_EQ(log.spans().size(), 3u);
  const auto& s = log.spans();
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  const auto dur = [](const span_log::span& x) { return x.end_ns - x.start_ns; };
  const auto self = log.self_seconds();
  EXPECT_DOUBLE_EQ(self.at("outer"), static_cast<double>(dur(s[0]) - dur(s[1]) - dur(s[2])) / 1e9);
  EXPECT_DOUBLE_EQ(self.at("inner"), static_cast<double>(dur(s[1]) + dur(s[2])) / 1e9);
}

TEST(Spans, DisabledLogRecordsNothing) {
  span_log log(false, "test");
  { span_log::scope s(&log, "x"); }
  EXPECT_TRUE(log.spans().empty());
}

TEST(Spans, ChromeJsonNamesEverySpan) {
  span_log log(true, "run-7");
  {
    span_log::scope s(&log, "setup", "with \"quotes\"");
  }
  const auto path = (std::filesystem::current_path() /
                     ("perfbench-spans-" + std::to_string(::getpid()) + ".json"))
                        .string();
  ASSERT_TRUE(log.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\":\"setup\""), std::string::npos);
  EXPECT_NE(text.str().find("\"run_id\":\"run-7\""), std::string::npos);
  EXPECT_NE(text.str().find("with \\\"quotes\\\""), std::string::npos);
}

TEST(Workloads, NamesRoundTrip) {
  for (const auto id : {workload_id::serve_seq, workload_id::serve_sharded,
                        workload_id::cs_sweep, workload_id::tsp_central}) {
    EXPECT_EQ(parse_workload(to_string(id)), id);
  }
  EXPECT_FALSE(parse_workload("nope").has_value());
}

}  // namespace
}  // namespace perfbench
