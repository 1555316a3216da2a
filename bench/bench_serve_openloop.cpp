// Open-loop serving bench: tail latency per lock kind under Poisson and
// bursty arrivals, on the hierarchical NUMA preset, executed on the sharded
// conservative-lookahead DES.
//
// The closed-loop benches (fig1, the TSP tables) measure makespan, where a
// slow lock throttles its own offered load. Here arrivals are open-loop, so
// a slow lock faces a growing backlog and the p99/p999 columns expose what
// the paper's adaptation argument is really about: under bursts a spin
// lock's hot-spot traffic compounds with queue depth, a blocking lock pays a
// flat context-switch handoff, and the adaptive lock crosses between them on
// observed queue depth.
//
// Virtual-time results are bit-identical for every --shards and --jobs
// value; those knobs only change wall-clock cost.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  auto base = perf::serve_openloop_base();
  auto opt =
      bench::bench_sweep_options(argv, "Open-loop serving tail latency")
          .u64("groups", base.machine.groups(), "NUMA groups (one arrival process each)")
          .u64("group_nodes", base.machine.group_size, "nodes per NUMA group")
          .u64("shards", base.shards, "DES shards (virtual results identical for any value)")
          .u64("requests", base.requests_per_group, "requests per group")
          .u64("interarrival_us", static_cast<std::uint64_t>(base.mean_interarrival_us),
               "mean interarrival time per group (us)")
          .u64("service_us", static_cast<std::uint64_t>(base.mean_service_us),
               "mean critical-section length (us)")
          .u64("threshold", static_cast<std::uint64_t>(base.params.adapt.waiting_threshold),
               "adaptive spin->block queue-depth threshold");
  opt.parse(argc, argv);

  base.machine = sim::machine_config::hierarchical_numa(
      static_cast<unsigned>(opt.get_u64("groups")),
      static_cast<unsigned>(opt.get_u64("group_nodes")));
  base.shards = static_cast<unsigned>(opt.get_u64("shards"));
  base.requests_per_group = opt.get_u64("requests");
  base.mean_interarrival_us = static_cast<double>(opt.get_u64("interarrival_us"));
  base.mean_service_us = static_cast<double>(opt.get_u64("service_us"));
  base.params.adapt.waiting_threshold =
      static_cast<std::int64_t>(opt.get_u64("threshold"));

  const auto& kinds = perf::serve_openloop_kinds;
  exec::job_executor ex(bench::jobs_from(opt));
  const auto sweep = run_open_loop_sweep(perf::serve_openloop_grid(base, kinds), ex);

  // The shard count goes to stderr: stdout carries only virtual-time
  // results, so CI can byte-diff reports taken at different --shards/--jobs.
  std::fprintf(stderr, "(%u DES shards, windowed conservative lookahead)\n",
               base.shards);
  std::printf("Open-loop serving: request latency by lock kind (ms)\n"
              "(%u groups x %u nodes hierarchical NUMA, %llu requests/group, "
              "mean interarrival %.0fus, mean CS %.0fus)\n\n",
              base.machine.groups(), base.machine.group_size,
              static_cast<unsigned long long>(base.requests_per_group),
              base.mean_interarrival_us, base.mean_service_us);

  // Grid rows: Poisson arrivals, then 8x bursts.
  const char* loads[] = {"poisson", "bursty(8x)"};
  table t({"load", "lock", "p50", "p99", "p999", "max", "spin-grants", "block-grants"});
  for (std::size_t l = 0; l < std::size(loads); ++l) {
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      const auto& r = sweep[l * std::size(kinds) + k];
      t.row({loads[l], locks::to_string(kinds[k]),
             table::num(static_cast<double>(r.p50_ns) / 1e6, 3),
             table::num(static_cast<double>(r.p99_ns) / 1e6, 3),
             table::num(static_cast<double>(r.p999_ns) / 1e6, 3),
             table::num(static_cast<double>(r.max_ns) / 1e6, 3),
             table::num(static_cast<double>(r.grants_spin), 0),
             table::num(static_cast<double>(r.grants_block), 0)});
    }
  }
  t.print();

  std::printf("\n(open loop: arrivals do not slow down when the lock does, so "
              "the tail columns show the backlog a slow handoff accumulates; "
              "the adaptive row tracks spin under the poisson load and "
              "blocking under bursts)\n");
  return 0;
}
