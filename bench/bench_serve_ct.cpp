// Open-loop serving with real ct server threads on the fat_tree_hpc4096
// preset: 64 NUMA groups x 64 nodes, one federated ct runtime per group on
// the sharded execution domain.
//
// Unlike bench_serve_openloop (which models grant physics on an event-driven
// lock), every request here is served by an actual coroutine thread that
// acquires its group's place-bound lock, pays the full dispatch/context-
// switch physics, and parks in a FIFO when its mailbox is empty. Remote
// arrivals ship through federation::post() and arrive one lookahead later —
// the canonical cross-group transit on the biggest machine the repo models.
//
// Virtual-time results are bit-identical for every --shards and --jobs
// value; those knobs only change wall-clock cost.
#include <memory>

#include "bench_common.hpp"
#include "telemetry/client.hpp"
#include "workload/ct_serve.hpp"

int main(int argc, char** argv) {
  using namespace adx;
  using bench::table;

  auto base = perf::serve_ct_base();
  auto opt =
      bench::bench_sweep_options(argv, "Open-loop ct serving on fat_tree_hpc4096",
                                 /*default_jobs=*/1)
          .u64("groups", 0,
               "NUMA groups; 0 = the 4096-node fat-tree preset (64x64)")
          .u64("group_nodes", 8, "nodes per group (with --groups > 0)")
          .u64("servers", base.servers_per_group, "server threads per group")
          .u64("requests", base.requests_per_group, "requests per group")
          .u64("interarrival_us", static_cast<std::uint64_t>(base.mean_interarrival_us),
               "mean interarrival time per group (us)")
          .u64("remote_pct", static_cast<std::uint64_t>(100 * base.remote_fraction),
               "percent of arrivals that target another group")
          .u64("service_us", static_cast<std::uint64_t>(base.service.us()),
               "lock-guarded service demand (us)")
          .u64("shards", base.shards, "DES shards (virtual results identical for any value)")
          .u64("seed", base.seed, "run seed (arrival processes + domain streams)")
          .str("telemetry", "",
               "stream per-kind latency histograms and live adaptation events "
               "to this endpoint (unix:PATH or tcp:HOST:PORT)")
          .str("telemetry-run", "bench_serve_ct", "run id tagging this stream")
          .str("telemetry-dump", "", "also write the telemetry frames to this file");
  opt.parse(argc, argv);

  // When attached, every adaptation decision inside the adaptive cells
  // (lock_stats::on_reconfigure) streams live — this bench is the
  // EXPERIMENTS.md "watch a ct_serve burst trigger adaptation" walkthrough.
  std::unique_ptr<telemetry::client> tele;
  if (!opt.get_str("telemetry").empty() || !opt.get_str("telemetry-dump").empty()) {
    telemetry::client_options copt;
    copt.endpoint = opt.get_str("telemetry");
    copt.dump_path = opt.get_str("telemetry-dump");
    copt.run_id = opt.get_str("telemetry-run");
    copt.producer = "bench_serve_ct";
    std::string terr;
    tele = telemetry::client::open(copt, &terr);
    if (!tele) std::fprintf(stderr, "telemetry disabled: %s\n", terr.c_str());
  }

  const auto groups = static_cast<unsigned>(opt.get_u64("groups"));
  if (groups != 0) {
    base.machine = sim::machine_config::hierarchical_numa(
        groups, static_cast<unsigned>(opt.get_u64("group_nodes")));
  }
  base.servers_per_group = static_cast<unsigned>(opt.get_u64("servers"));
  base.requests_per_group = opt.get_u64("requests");
  base.mean_interarrival_us = static_cast<double>(opt.get_u64("interarrival_us"));
  base.remote_fraction = static_cast<double>(opt.get_u64("remote_pct")) / 100.0;
  base.service = sim::microseconds(static_cast<double>(opt.get_u64("service_us")));
  base.seed = opt.get_u64("seed");
  base.shards = static_cast<unsigned>(opt.get_u64("shards"));

  exec::job_executor ex(bench::jobs_from(opt));
  std::fprintf(stderr, "(%u DES shards, %u workers, windowed conservative lookahead)\n",
               base.shards, ex.jobs());

  std::printf("Open-loop ct serving: request latency by lock kind (us)\n"
              "(%u groups x %u nodes, %u server threads/group, %llu requests/"
              "group, mean interarrival %.0fus, service %.0fus, %.0f%% remote)\n\n",
              base.machine.groups(), base.machine.group_size,
              base.servers_per_group,
              static_cast<unsigned long long>(base.requests_per_group),
              base.mean_interarrival_us, base.service.us(),
              100.0 * base.remote_fraction);

  table t({"lock", "p50", "p99", "max", "served", "remote", "acquisitions",
           "posts", "elapsed-ms"});
  std::uint64_t kinds_done = 0;
  obs::metrics m;  // cumulative across kinds: snapshots are latest-wins
  for (const auto kind : perf::handoff_kinds) {
    auto cfg = base;
    cfg.kind = kind;
    const auto r = run_ct_serve(cfg, &ex);
    if (tele) {
      const std::string prefix = std::string("serve.") + locks::to_string(kind);
      m.get_counter(prefix + ".served").set(r.served);
      m.get_counter(prefix + ".remote").set(r.remote_requests);
      m.get_counter(prefix + ".acquisitions").set(r.acquisitions);
      m.get_counter(prefix + ".posts").set(r.posts);
      m.set_histogram(prefix + ".latency_us", r.latency);
      tele->publish_metrics(m, r.elapsed.ns);
      tele->publish_result(locks::to_string(kind),
                           !r.completed || r.served != r.generated, "");
      tele->publish_progress(++kinds_done, std::size(perf::handoff_kinds),
                             locks::to_string(kind));
    }
    if (!r.completed || r.served != r.generated) {
      std::fprintf(stderr, "lock %s: served %llu of %llu requests\n",
                   locks::to_string(kind),
                   static_cast<unsigned long long>(r.served),
                   static_cast<unsigned long long>(r.generated));
      return 1;
    }
    t.row({locks::to_string(kind), table::num(r.latency_p50_us, 2),
           table::num(r.latency_p99_us, 2), table::num(r.latency_max_us, 2),
           table::num(static_cast<double>(r.served), 0),
           table::num(static_cast<double>(r.remote_requests), 0),
           table::num(static_cast<double>(r.acquisitions), 0),
           table::num(static_cast<double>(r.posts), 0),
           table::num(r.elapsed.ms(), 3)});
  }
  t.print();

  std::printf("\n(open loop with real server threads: remote arrivals pay one "
              "lookahead of backbone transit, and the whole table is "
              "byte-identical at any --shards/--jobs value)\n");
  return 0;
}
