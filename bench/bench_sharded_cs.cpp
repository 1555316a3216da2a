// Federated critical-section sweep: the fig1-style closed-loop community
// with REAL ct threads, one runtime per NUMA group, executed on the shared
// execution domain (sim::event_domain).
//
// Every `remote_every`-th iteration a client posts an echo to the next
// group's server and blocks for the reply; the server takes its own group's
// place-bound lock, performs the service and posts back. Lock handoffs,
// wakeups and (with --coordinate) policy pumps therefore all cross shard
// boundaries through federation::post() — the workload the conservative-
// lookahead protocol exists for.
//
// Virtual-time results are bit-identical for every --shards / --jobs value;
// those knobs only change wall-clock cost, so CI byte-diffs this report
// across all of them.
#include "bench_common.hpp"
#include "workload/sharded_cs.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  workload::sharded_cs_config base;
  auto opt =
      bench::bench_sweep_options(argv, "Federated ct critical-section sweep",
                                 /*default_jobs=*/1)
          .u64("groups", base.machine.groups(), "NUMA groups (one ct runtime each)")
          .u64("group_nodes", base.machine.group_size, "nodes per NUMA group")
          .u64("threads", base.threads_per_group, "client threads per group")
          .u64("iterations", base.iterations, "closed-loop iterations per client")
          .u64("cs_us", static_cast<std::uint64_t>(base.cs_length.us()),
               "critical-section length (us)")
          .u64("think_us", static_cast<std::uint64_t>(base.think_time.us()),
               "mean think time between iterations (us)")
          .u64("remote_every", base.remote_every,
               "post an echo to the next group every Nth iteration")
          .u64("shards", base.shards, "DES shards (virtual results identical for any value)")
          .u64("seed", base.seed, "run seed (think-time jitter + domain streams)");
  opt.parse(argc, argv);

  base.machine = sim::machine_config::hierarchical_numa(
      static_cast<unsigned>(opt.get_u64("groups")),
      static_cast<unsigned>(opt.get_u64("group_nodes")));
  base.threads_per_group = static_cast<unsigned>(opt.get_u64("threads"));
  base.iterations = opt.get_u64("iterations");
  base.cs_length = sim::microseconds(static_cast<double>(opt.get_u64("cs_us")));
  base.think_time = sim::microseconds(static_cast<double>(opt.get_u64("think_us")));
  base.remote_every = opt.get_u64("remote_every");
  base.seed = opt.get_u64("seed");
  base.shards = static_cast<unsigned>(opt.get_u64("shards"));

  // The shard and worker knobs go to stderr: stdout carries only
  // virtual-time results, so CI can byte-diff reports across all of them.
  exec::job_executor ex(bench::jobs_from(opt));
  std::fprintf(stderr, "(%u DES shards, %u workers, windowed conservative lookahead)\n",
               base.shards, ex.jobs());

  std::printf("Federated ct critical-section sweep (virtual time)\n"
              "(%u groups x %u nodes, %u client threads/group, %llu iterations, "
              "CS %.0fus, echo every %llu)\n\n",
              base.machine.groups(), base.machine.group_size,
              base.threads_per_group,
              static_cast<unsigned long long>(base.iterations),
              base.cs_length.us(),
              static_cast<unsigned long long>(base.remote_every));

  table t({"lock", "elapsed-ms", "acquisitions", "blocks", "echoes",
           "echo-p99-us", "posts"});
  for (const auto kind : perf::sharded_cs_kinds) {
    auto cfg = base;
    cfg.kind = kind;
    const auto r = run_sharded_cs(cfg, &ex);
    if (!r.completed) {
      std::fprintf(stderr, "lock %s: run hit the event budget\n",
                   locks::to_string(kind));
      return 1;
    }
    t.row({locks::to_string(kind), table::num(r.elapsed.ms(), 3),
           table::num(static_cast<double>(r.acquisitions), 0),
           table::num(static_cast<double>(r.blocks), 0),
           table::num(static_cast<double>(r.echoes), 0),
           table::num(r.echo_rtt_p99_us, 2),
           table::num(static_cast<double>(r.posts), 0)});
  }
  t.print();

  std::printf("\n(every cross-group influence — echo requests, replies, lock "
              "wakeups — is a tagged send at the lookahead horizon, so this "
              "whole table is byte-identical at any --shards/--jobs value)\n");
  return 0;
}
