// Ablation: synchronous vs asynchronous policy execution (src/policy/runtime).
// Sync mode runs the monitor sample + policy inline in the unlocking thread —
// the closely-coupled loop of §4 — so every delivered observation charges
// monitor_sample_overhead + policy_execution on the lock's critical path.
// Async mode queues observations at the feedback point (zero inline cost,
// exact in virtual time) and a low-priority daemon on a spare processor
// drains them on a fixed period, paying the same policy cost out-of-band.
//
// The tradeoff this table exposes: async removes the policy tax from the
// acquire/release path but reconfigures on a slightly stale state (one
// period of lag, bounded — unlike the unbounded-lag monitor-thread design
// bench_abl_coupling rejects).
#include "bench_common.hpp"
#include "policy/registry.hpp"
#include "policy/runtime.hpp"
#include "workload/cs_workload.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  auto opt = bench::bench_sweep_options(argv, "ablation: sync vs async policy execution")
                 .u64("iterations", 200, "lock cycles per thread")
                 .u64("threads", 6, "contending threads (one per processor)")
                 .str("policy", "break-even", "policy core to run in both modes");
  opt.parse(argc, argv);
  const auto iters = opt.get_u64("iterations");
  const auto threads = static_cast<unsigned>(opt.get_u64("threads"));
  const auto& policy_name = opt.get_str("policy");
  const auto machine = sim::machine_config::butterfly_gp1000();
  const auto cost = locks::lock_cost_model::butterfly_cthreads();

  // Rows: the sync reference, then the async runtime at the default period
  // and at 4x the period (more lag, fewer daemon wakeups).
  struct mode_row {
    const char* label;
    bool async;
    std::uint64_t period_us;
  };
  const mode_row rows[] = {
      {"sync (inline at unlock)", false, 0},
      {"async, default period", true, policy::policy_spec::kDefaultPeriodUs},
      {"async, 4x period", true, 4 * policy::policy_spec::kDefaultPeriodUs},
  };

  struct cell {
    double elapsed_ms;
    double mean_wait_us;
    std::uint64_t decisions;
    std::uint64_t delivered;
    double inline_cost_us;  // policy cost charged on the lock's own path
    std::uint64_t ticks;
    std::uint64_t pumped;
  };
  exec::job_executor ex(bench::jobs_from(opt));
  const auto cells = ex.map(std::size(rows), [&](std::size_t i) {
    const auto& row = rows[i];
    ct::runtime rt(machine);
    locks::lock_params params;
    params.policy = policy::policy_registry::default_spec(policy_name);
    if (row.async) params.policy.with_async(row.period_us);
    auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost, params);

    // The daemon lives on a spare processor, off the workers' nodes.
    policy::async_runtime art(policy::runtime_config{
        .period = sim::microseconds(static_cast<double>(params.policy.period_us)),
        .proc = threads,
    });
    art.adopt_lock(*lk, params, cost);

    for (unsigned th = 0; th < threads; ++th) {
      rt.fork(th, [&, th](ct::context& ctx) -> ct::task<void> {
        for (std::uint64_t it = 0; it < iters; ++it) {
          co_await lk->lock(ctx);
          co_await ctx.compute(sim::microseconds(60));
          co_await lk->unlock(ctx);
          co_await ctx.compute(sim::microseconds(150 + 11.0 * th));
        }
      });
    }
    art.start(rt);
    const auto r = rt.run_all();

    auto* al = dynamic_cast<locks::adaptive_lock*>(lk.get());
    const auto delivered =
        row.async ? art.pumped() : al->object_monitor().total_samples();
    const auto per_sample = cost.monitor_sample_overhead + cost.policy_execution;
    return cell{r.end_time.ms(),
                al->stats().wait_time_us().mean(),
                al->policy()->decisions(),
                delivered,
                // Virtual time is exact: in async mode the feedback point
                // delivers nothing, so the inline policy cost is exactly 0 —
                // the same per-sample charge lands on the daemon's processor.
                row.async ? 0.0
                          : (per_sample * static_cast<std::int64_t>(delivered)).us(),
                art.ticks(), art.pumped()};
  });

  std::printf("Ablation: policy execution mode (%s core, %u contenders, %llu cycles each)\n"
              "(inline cost is virtual-exact: observations delivered on the unlock path x\n"
              " monitor_sample_overhead+policy_execution; async charges a daemon instead)\n\n",
              policy_name.c_str(), threads, static_cast<unsigned long long>(iters));
  table t({"execution mode", "elapsed (ms)", "mean wait (us)", "decisions",
           "delivered", "inline policy cost (us)", "daemon ticks"});
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    t.row({rows[i].label, table::num(cells[i].elapsed_ms, 2),
           table::num(cells[i].mean_wait_us, 0), std::to_string(cells[i].decisions),
           std::to_string(cells[i].delivered), table::num(cells[i].inline_cost_us, 0),
           rows[i].async ? std::to_string(cells[i].ticks) : std::string("-")});
  }
  t.print();
  std::printf("\nexpected shape: async rows charge 0 inline policy cost (sync pays "
              "~%.0f us per delivered observation on the lock's own path); at the "
              "default period the daemon delivers the identical observation stream "
              "one period late, so delivered and decisions match the sync row\n",
              (cost.monitor_sample_overhead + cost.policy_execution).us());
  return 0;
}
