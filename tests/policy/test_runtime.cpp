// The asynchronous policy runtime (policy::async_runtime) and the sync/async
// equivalence contract: under a fixed observation schedule the async path
// must deliver the SAME observation sequence to the policy core as the sync
// path — decisions are a pure function of that sequence, so the decision
// sequence is bit-identical; only *when* the work is charged differs.
#include "policy/runtime.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "ct/runtime.hpp"
#include "locks/factory.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "locks/run_config.hpp"
#include "objects/object_policy.hpp"
#include "policy/registry.hpp"
#include "workload/cs_workload.hpp"

namespace adx::policy {
namespace {

// ----------------------------------------------------------- spec plumbing

TEST(AsyncSpec, DefaultJsonIsByteStable) {
  // The execution-mode keys must not leak into default specs: every replay
  // journal and committed baseline embeds this exact byte form.
  EXPECT_EQ(policy_spec{}.to_json(),
            "{\"name\":\"simple-adapt\",\"params\":{},\"sensors\":[],"
            "\"wrappers\":[]}");
  EXPECT_TRUE(policy_spec{}.is_default());
}

TEST(AsyncSpec, AsyncIsNeverDefault) {
  // run_config and the checker label these specs explicitly: an async or
  // coordinated simple-adapt is not the default spec.
  EXPECT_FALSE(policy_spec{}.with_async().is_default());
  EXPECT_FALSE(policy_spec{}.with_coordinate().is_default());
}

TEST(AsyncSpec, RoundTripsThroughJson) {
  auto spec = policy_spec{}.with_name("break-even").with_async(120).with_coordinate();
  const auto text = spec.to_json();
  EXPECT_NE(text.find("\"mode\":\"async\""), std::string::npos);
  EXPECT_NE(text.find("\"period_us\":120"), std::string::npos);
  EXPECT_NE(text.find("\"coordinate\":true"), std::string::npos);
  EXPECT_EQ(policy_spec::from_json(text), spec);
}

TEST(AsyncSpec, DefaultPeriodOmittedFromJson) {
  auto spec = policy_spec{}.with_async();  // period stays kDefaultPeriodUs
  EXPECT_EQ(spec.to_json().find("period_us"), std::string::npos);
  EXPECT_EQ(policy_spec::from_json(spec.to_json()), spec);
}

TEST(AsyncSpec, ParseExecModeRejectsUnknown) {
  EXPECT_EQ(parse_exec_mode("sync"), exec_mode::sync);
  EXPECT_EQ(parse_exec_mode("async"), exec_mode::async);
  try {
    (void)parse_exec_mode("bogus");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown mode: bogus (valid: sync async)");
  }
}

TEST(AsyncSpec, RunConfigCarriesAsyncObjectPolicy) {
  auto rc = run_config{}
                .with_object("hashmap")
                .with_object_policy(objects::default_map_spec().with_async(80));
  EXPECT_EQ(run_config::from_json(rc.to_json()), rc);
}

// ------------------------------------------------- sync/async equivalence

/// Records every delivered observation and decides by a fixed rule, so two
/// instances agree iff they saw the identical observation sequence.
class recording_policy final : public core::adaptation_policy {
 public:
  void observe(const core::observation& obs) override {
    log.push_back({std::string(obs.sensor), obs.value});
    if (obs.value >= 5) note_decision();
  }
  std::vector<std::pair<std::string, std::int64_t>> log;
};

TEST(AsyncRuntime, AsyncReproducesSyncDecisionSequence) {
  // Fixed schedule: both objects' sensors read the same script, advanced one
  // step per feedback point. The sync object runs its policy inline; the
  // async object queues and is pumped in batches (the daemon's ticks). The
  // delivered sequences — and therefore the decision sequence — must match
  // bit-for-bit.
  const std::vector<std::int64_t> script = {1, 4, 9, 2, 7, 7, 0, 5, 3, 8,
                                            6, 1, 9, 9, 2, 4, 5, 0, 7, 3};

  core::adaptive_object sync_obj("scripted");
  core::adaptive_object async_obj("scripted");
  std::size_t si = 0;
  std::size_t ai = 0;
  sync_obj.object_monitor().add_sensor(
      core::sensor("load", [&] { return script[si++ % script.size()]; }, 2));
  async_obj.object_monitor().add_sensor(
      core::sensor("load", [&] { return script[ai++ % script.size()]; }, 2));
  async_obj.object_monitor().set_mode(core::coupling::loosely_coupled);

  auto sp = std::make_shared<recording_policy>();
  auto ap = std::make_shared<recording_policy>();
  sync_obj.set_policy(sp);
  async_obj.set_policy(ap);

  std::size_t sync_delivered = 0;
  std::size_t async_inline = 0;
  for (int t = 0; t < 40; ++t) {
    sync_delivered += sync_obj.feedback_point();
    async_inline += async_obj.feedback_point();
    if (t % 5 == 4) async_obj.pump();  // the daemon's periodic tick
  }
  async_obj.pump();  // final drain

  EXPECT_GT(sync_delivered, 0u);
  // The zero-cost fast path: async feedback points deliver nothing inline.
  EXPECT_EQ(async_inline, 0u);
  EXPECT_EQ(ap->log, sp->log);
  EXPECT_EQ(ap->decisions(), sp->decisions());
}

TEST(AsyncRuntime, ReinstallClearsQueuedObservationsCleanly) {
  // clear_sensors() with a non-empty loose queue: re-installing a policy
  // mid-sampling must drop the stale observations with the old sensors —
  // the new policy starts from a clean slate, never seeing the old stream.
  core::adaptive_object obj("scripted");
  obj.object_monitor().set_mode(core::coupling::loosely_coupled);
  obj.object_monitor().add_sensor(core::sensor("stale", [] { return 9; }, 1));
  obj.feedback_point();
  obj.feedback_point();
  EXPECT_EQ(obj.object_monitor().backlog(), 2u);

  obj.object_monitor().clear_sensors();
  obj.object_monitor().add_sensor(core::sensor("fresh", [] { return 1; }, 1));
  auto p = std::make_shared<recording_policy>();
  obj.set_policy(p);

  EXPECT_EQ(obj.object_monitor().backlog(), 0u);
  EXPECT_EQ(obj.pump(), 0u);
  obj.feedback_point();
  EXPECT_EQ(obj.pump(), 1u);
  ASSERT_EQ(p->log.size(), 1u);
  EXPECT_EQ(p->log[0].first, "fresh");
}

// ---------------------------------------------------- workload end-to-end

workload::cs_config async_cs_config() {
  workload::cs_config cfg;
  cfg.processors = 4;
  cfg.threads = 8;
  cfg.iterations = 60;
  cfg.cs_length = sim::microseconds(40);
  cfg.think_time = sim::microseconds(60);
  cfg.kind = locks::lock_kind::adaptive;
  cfg.params.policy = policy::policy_registry::default_spec("break-even");
  cfg.params.policy.with_async(40);
  return cfg;
}

TEST(AsyncRuntime, DaemonDrainsAndWorkloadCompletes) {
  const auto cfg = async_cs_config();
  const auto res = workload::run_cs_workload(cfg);
  EXPECT_EQ(res.acquisitions, 8u * 60u);
  EXPECT_GT(res.policy_ticks, 0u);
  EXPECT_GT(res.policy_pumped, 0u);
}

TEST(AsyncRuntime, SyncModeNeverStartsTheDaemon) {
  auto cfg = async_cs_config();
  cfg.params.policy = policy::policy_registry::default_spec("break-even");  // sync again
  const auto res = workload::run_cs_workload(cfg);
  EXPECT_EQ(res.acquisitions, 8u * 60u);
  EXPECT_EQ(res.policy_ticks, 0u);
  EXPECT_EQ(res.policy_pumped, 0u);
}

TEST(AsyncRuntime, AsyncRunsAreBitReproducible) {
  // Daemon wakeups are ordinary simulator events at fixed virtual times, so
  // the whole run — including every daemon-side charge — replays exactly.
  const auto a = workload::run_cs_workload(async_cs_config());
  const auto b = workload::run_cs_workload(async_cs_config());
  EXPECT_EQ(a.elapsed.ns, b.elapsed.ns);
  EXPECT_EQ(a.acquisitions, b.acquisitions);
  EXPECT_EQ(a.spin_iterations, b.spin_iterations);
  EXPECT_EQ(a.policy_ticks, b.policy_ticks);
  EXPECT_EQ(a.policy_pumped, b.policy_pumped);
}

// ----------------------------------------------------------- coordinator

ct::task<void> hammer(ct::context& ctx, locks::lock_object& lk, int iters) {
  for (int i = 0; i < iters; ++i) {
    co_await lk.lock(ctx);
    co_await ctx.compute(sim::microseconds(3));
    co_await lk.unlock(ctx);
    co_await ctx.compute(sim::microseconds(2));
  }
}

TEST(AsyncRuntime, CoordinatorDemotesIdleLockEndToEnd) {
  ct::runtime rt(sim::machine_config::test_machine(2));
  const auto cost = locks::lock_cost_model::fast_test();
  locks::lock_params params;
  params.policy.with_async(10).with_coordinate();

  auto busy = locks::make_lock(locks::lock_kind::adaptive, 0, cost, params);
  auto idle = locks::make_lock(locks::lock_kind::adaptive, 1, cost, params);

  policy::runtime_config rc;
  rc.period = sim::microseconds(10);
  rc.proc = 1;
  rc.coord.idle_ticks = 2;
  policy::async_runtime art(rc);
  EXPECT_TRUE(art.adopt_lock(*busy, params, cost));
  EXPECT_TRUE(art.adopt_lock(*idle, params, cost));
  EXPECT_EQ(art.registrations(), 2u);

  rt.fork(0, [&](ct::context& ctx) { return hammer(ctx, *busy, 100); });
  art.start(rt);
  rt.run_all();

  // The idle lock never saw an acquisition: after idle_ticks flat ticks the
  // coordinator demoted it to the cheap spin policy, visibly and exactly
  // once (activity never re-armed it).
  EXPECT_EQ(art.demotions(), 1u);
  auto* il = dynamic_cast<locks::reconfigurable_lock*>(idle.get());
  ASSERT_NE(il, nullptr);
  EXPECT_EQ(il->current_policy(), rc.coord.idle_policy);
  auto* ilock = dynamic_cast<locks::adaptive_lock*>(idle.get());
  ASSERT_NE(ilock, nullptr);
  EXPECT_EQ(ilock->stats().reconfigures(), 1u);
}

TEST(AsyncRuntime, AdoptRejectsSyncSpecsAndNonAdaptiveLocks) {
  const auto cost = locks::lock_cost_model::fast_test();
  locks::lock_params sync_params;  // default spec: sync
  auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost, sync_params);
  policy::async_runtime art;
  EXPECT_FALSE(art.adopt_lock(*lk, sync_params, cost));

  locks::lock_params async_params;
  async_params.policy.with_async();
  auto plain = locks::make_lock(locks::lock_kind::spin, 0, cost, async_params);
  EXPECT_FALSE(art.adopt_lock(*plain, async_params, cost));
  EXPECT_EQ(art.registrations(), 0u);
}

}  // namespace
}  // namespace adx::policy
