#include "probes.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>

#include "ct/context.hpp"
#include "ct/runtime.hpp"
#include "exec/job_executor.hpp"
#include "obs/log_histogram.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine_config.hpp"
#include "sim/sharded_event_queue.hpp"
#include "telemetry/client.hpp"
#include "telemetry/hook.hpp"

namespace perfbench {

namespace sim = adx::sim;
namespace ct = adx::ct;
namespace lk = adx::locks;

namespace {

/// Median over three repetitions of `body()`, which returns the units of
/// work it did; result in host ns per unit.
template <typename Body>
double median_ns_per_unit(Body&& body) {
  std::array<double, 3> v{};
  for (auto& x : v) {
    const auto t0 = std::chrono::steady_clock::now();
    const double units = static_cast<double>(body());
    const auto t1 = std::chrono::steady_clock::now();
    x = static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        std::max(1.0, units);
  }
  std::sort(v.begin(), v.end());
  return v[1];
}

/// An event that reschedules itself a pseudo-random 1-1024 ns later until
/// the shared budget runs out.
struct tick {
  sim::event_queue* q;
  std::uint64_t* budget;
  std::uint32_t x;
  void operator()() {
    if (*budget == 0) return;
    --*budget;
    tick next = *this;
    next.x = next.x * 1664525U + 1013904223U;
    q->schedule_at(q->now() + sim::nanoseconds(1 + (next.x >> 22)), next);
  }
};

/// One event per window on its shard: hops exactly one lookahead forward.
struct hop {
  sim::sharded_event_queue* q;
  unsigned shard;
  std::int64_t left;
  void operator()() {
    if (left <= 0) return;
    hop next = *this;
    --next.left;
    q->schedule_at(shard, q->now(shard) + q->lookahead(), next);
  }
};

}  // namespace

probe_shape shape_of(workload_id w) {
  switch (w) {
    case workload_id::serve_seq: return {1, 256, 2, 4};
    case workload_id::serve_sharded: return {2, 256, 2, 4};
    case workload_id::cs_sweep: return {1, 16, 6, 12};
    case workload_id::tsp_central: return {1, 32, 10, 20};
  }
  return {};
}

double probe_event_ns(const probe_shape& s) {
  return median_ns_per_unit([&] {
    sim::event_queue q;
    std::uint64_t budget = 400'000;
    for (unsigned i = 0; i < s.pending; ++i) {
      q.schedule_at(sim::vtime{i}, tick{&q, &budget, i * 2654435761U});
    }
    return q.run();
  });
}

double probe_window_ns(const probe_shape& s) {
  adx::exec::job_executor ex(s.workers);
  const auto lookahead = sim::machine_config::fat_tree_hpc4096().min_cross_group_latency();
  return median_ns_per_unit([&] {
    sim::sharded_event_queue q(8, lookahead);
    for (unsigned sh = 0; sh < q.shards(); ++sh) {
      q.schedule_at(sh, sim::vtime{}, hop{&q, sh, 20'000});
    }
    (void)q.run(ex);
    return q.windows();
  });
}

double probe_exec_round_ns(const probe_shape& s) {
  adx::exec::job_executor ex(s.workers);
  std::array<std::uint64_t, 8> sink{};
  return median_ns_per_unit([&] {
    constexpr int kRounds = 20'000;
    for (int r = 0; r < kRounds; ++r) {
      ex.for_each(sink.size(), [&](std::size_t i) { sink[i] += i; });
    }
    return kRounds;
  });
}

double probe_dispatch_ns(const probe_shape& s) {
  return median_ns_per_unit([&] {
    ct::runtime rt(sim::machine_config::butterfly_gp1000());
    for (unsigned t = 0; t < s.ct_threads; ++t) {
      rt.fork(t % s.ct_procs, [](ct::context& ctx) -> ct::task<void> {
        for (int i = 0; i < 20'000; ++i) {
          co_await ctx.compute(sim::microseconds(1));
          co_await ctx.yield();
        }
      });
    }
    (void)rt.run_all();
    return rt.dispatches();
  });
}

namespace {

double lock_cycles_ns(lk::lock_kind kind, const lk::lock_params& params) {
  constexpr int kCycles = 20'000;
  return median_ns_per_unit([&] {
    ct::runtime rt(sim::machine_config::butterfly_gp1000());
    auto l = lk::make_lock(kind, 0, lk::lock_cost_model::butterfly_cthreads(), params);
    rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
      for (int i = 0; i < kCycles; ++i) {
        co_await l->lock(ctx);
        co_await l->unlock(ctx);
      }
    });
    (void)rt.run_all();
    return kCycles;
  });
}

}  // namespace

double probe_lock_cycle_ns(lk::lock_kind kind) { return lock_cycles_ns(kind, {}); }

double probe_feedback_ns() {
  lk::lock_params params;
  params.adapt.sample_period = 1;
  return lock_cycles_ns(lk::lock_kind::adaptive, params);
}

double probe_hist_record_ns() {
  return median_ns_per_unit([] {
    adx::obs::log_histogram h(0.001);
    std::uint32_t x = 12345;
    constexpr int kRecords = 1'000'000;
    for (int i = 0; i < kRecords; ++i) {
      x = x * 1664525U + 1013904223U;
      h.add(1.0 + static_cast<double>(x >> 12) / 16.0);
    }
    return h.count();
  });
}

namespace {

std::uint64_t publish_loop(int n) {
  for (int i = 0; i < n; ++i) {
    adx::telemetry::publish_adapt_event(i, "lock", "simple-adapt", "pure-spin(200)",
                                        "waiting=0", i & 7);
  }
  return static_cast<std::uint64_t>(n);
}

}  // namespace

double probe_publish_off_ns() {
  if (adx::telemetry::enabled()) {
    throw std::logic_error("probe_publish_off_ns: a telemetry client is active");
  }
  return median_ns_per_unit([] { return publish_loop(1'000'000); });
}

double probe_publish_on_ns(const std::string& dump_path) {
  adx::telemetry::client_options copt;
  copt.dump_path = dump_path;
  copt.run_id = "perfbench-probe";
  copt.producer = "perfbench";
  std::string err;
  auto client = adx::telemetry::client::open(copt, &err);
  if (!client) throw std::runtime_error("telemetry client: " + err);
  return median_ns_per_unit([] { return publish_loop(20'000); });
}

}  // namespace perfbench
