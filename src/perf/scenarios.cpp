// Scenario definitions for adx-bench: every paper table, Figure 1, the six
// locking-pattern figures, representative extension/ablation benches, the
// adaptive-object benches, and pure event-queue microbenches.
//
// A scenario named after a bench binary runs that binary's experiment from
// perf/probes.hpp — the one definition both consume — at a reduced shape
// (fewer seeds, a smaller instance or grid, a subset of the lock kinds) so a
// full sweep stays in CI budget; scenario.hpp lists the exceptions and the
// scenarios without a binary.
//
// Scenario bodies report virtual-clock metrics (deterministic for the fixed
// seeds used here) plus wall-derived rates; the runner adds `wall_ns` around
// every repetition. Micro-cost scenarios loop their probes several times per
// repetition so the wall measurement rises above scheduler jitter.
#include "perf/scenario.hpp"

#include <chrono>
#include <memory>
#include <span>
#include <string>

#include "objects/adaptive_hash_map.hpp"
#include "objects/adaptive_monitor.hpp"
#include "perf/probes.hpp"
#include "policy/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_event_queue.hpp"
#include "workload/cs_workload.hpp"
#include "workload/ct_serve.hpp"
#include "workload/open_loop.hpp"
#include "workload/sharded_cs.hpp"

namespace adx::perf {
namespace {

constexpr metric_clock kVirtual = metric_clock::virtual_time;
constexpr metric_clock kWall = metric_clock::wall;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Events per synchronization round of a domain run: the work each window
/// barrier amortizes. Exact, like its inputs.
double events_per_window(const sim::domain_stats& d) {
  return d.windows == 0 ? 0.0 : static_cast<double>(d.events) / static_cast<double>(d.windows);
}

/// Metric-name tag of a lock kind ("backoff" for spin-with-backoff).
std::string kind_tag(locks::lock_kind k) {
  return k == locks::lock_kind::backoff ? "backoff" : locks::to_string(k);
}

// ---------------------------------------------------------------------------
// Pure event-queue churn: 64 self-rescheduling chains plus tie bursts. The
// closest thing to a direct measurement of the simulator's hot path — every
// other scenario pays for its workload on top of this.
// ---------------------------------------------------------------------------

struct churn_chain {
  sim::event_queue* q{nullptr};
  std::uint64_t remaining{0};
  std::uint64_t x{0};
  std::uint64_t* tie_hits{nullptr};
};

void churn_step(churn_chain& c) {
  if (c.remaining-- == 0) return;
  c.x = c.x * 6364136223846793005ULL + 1442695040888963407ULL;
  const auto delta = sim::nanoseconds(static_cast<std::int64_t>(c.x % 997) + 1);
  c.q->schedule_after(delta, [&c] { churn_step(c); });
  if (c.x % 16 == 0) {
    // A burst of events due at the same instant: exercises FIFO tie-breaking.
    const auto at = c.q->now() + delta;
    for (int i = 0; i < 4; ++i) {
      c.q->schedule_at(at, [&c] { ++*c.tie_hits; });
    }
  }
}

scenario_result run_event_queue_churn() {
  sim::event_queue q;
  std::uint64_t tie_hits = 0;
  std::vector<churn_chain> chains(64);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = {&q, /*remaining=*/4000, /*x=*/0x9e3779b97f4a7c15ULL + i, &tie_hits};
    q.schedule_at(sim::vtime{i}, [&c = chains[i]] { churn_step(c); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  q.run();
  const double wall_s = wall_seconds_since(t0);

  scenario_result r;
  r.metrics.push_back({"events_processed", "count", kVirtual,
                       static_cast<double>(q.processed())});
  r.metrics.push_back({"tie_events", "count", kVirtual, static_cast<double>(tie_hits)});
  r.metrics.push_back({"end_virtual_us", "us", kVirtual, q.now().us()});
  r.metrics.push_back({"events_per_sec", "events/s", kWall,
                       static_cast<double>(q.processed()) / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Sharded event-queue churn: 8 shards of dense self-rescheduling chains under
// a wide lookahead (big windows, few barriers) plus cross-shard sends landing
// exactly at the horizon. The sequential run supplies the virtual metrics and
// the sequential wall rate; a second, identical run fans the windows across 4
// workers — its wall rate over the sequential one is the sharding speedup the
// ROADMAP's scale item asks for.
// ---------------------------------------------------------------------------

struct sharded_churn_state {
  sim::sharded_event_queue* q{nullptr};
  std::vector<std::uint64_t> origin_counters;   // one per shard
  std::vector<std::uint64_t> deliveries;        // one per shard (local writes)
};

struct sharded_chain {
  sharded_churn_state* s{nullptr};
  unsigned shard{0};
  std::uint64_t remaining{0};
  std::uint64_t x{0};
};

void sharded_churn_step(sharded_chain& c) {
  if (c.remaining-- == 0) return;
  c.x = c.x * 6364136223846793005ULL + 1442695040888963407ULL;
  auto& q = *c.s->q;
  const auto delta = sim::nanoseconds(static_cast<std::int64_t>(c.x % 997) + 1);
  q.schedule_at(c.shard, q.now(c.shard) + delta, [&c] { sharded_churn_step(c); });
  if (c.x % 64 == 0 && q.shards() > 1) {
    // Cross-shard send at exactly now + lookahead: the legal horizon boundary.
    const unsigned to =
        static_cast<unsigned>((c.shard + 1 + c.x % (q.shards() - 1)) % q.shards());
    const std::uint64_t origin = (static_cast<std::uint64_t>(c.shard) << 32) |
                                 c.s->origin_counters[c.shard]++;
    auto* hits = &c.s->deliveries[to];
    q.send(c.shard, to, q.now(c.shard) + q.lookahead(), origin, [hits] { ++*hits; });
  }
}

struct sharded_churn_out {
  std::uint64_t processed{0};
  std::uint64_t windows{0};
  std::uint64_t cross_sends{0};
  double end_us{0};
  double wall_s{0};
};

sharded_churn_out run_sharded_churn_once(unsigned jobs) {
  constexpr unsigned kShards = 8;
  constexpr unsigned kChainsPerShard = 8;
  constexpr std::uint64_t kEventsPerChain = 2500;
  sim::sharded_event_queue q(kShards, sim::microseconds(1000));
  sharded_churn_state s{&q, std::vector<std::uint64_t>(kShards),
                        std::vector<std::uint64_t>(kShards)};
  std::vector<sharded_chain> chains(kShards * kChainsPerShard);
  for (unsigned sh = 0; sh < kShards; ++sh) {
    for (unsigned k = 0; k < kChainsPerShard; ++k) {
      auto& c = chains[sh * kChainsPerShard + k];
      c = {&s, sh, kEventsPerChain, 0x9e3779b97f4a7c15ULL + sh * 131 + k};
      q.schedule_at(sh, sim::vtime{k}, [&c] { sharded_churn_step(c); });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (jobs > 1) {
    exec::job_executor ex(jobs);
    q.run(ex);
  } else {
    q.run();
  }
  sharded_churn_out out;
  out.wall_s = wall_seconds_since(t0);
  out.processed = q.processed();
  out.windows = q.windows();
  out.cross_sends = q.cross_sends();
  out.end_us = q.now().us();
  return out;
}

scenario_result run_sharded_queue_churn() {
  const auto seq = run_sharded_churn_once(1);
  const auto par = run_sharded_churn_once(4);

  scenario_result r;
  r.metrics.push_back({"events_processed", "count", kVirtual,
                       static_cast<double>(seq.processed)});
  r.metrics.push_back({"windows", "count", kVirtual, static_cast<double>(seq.windows)});
  r.metrics.push_back({"cross_sends", "count", kVirtual,
                       static_cast<double>(seq.cross_sends)});
  r.metrics.push_back({"end_virtual_us", "us", kVirtual, seq.end_us});
  r.metrics.push_back({"events_per_sec_seq", "events/s", kWall,
                       static_cast<double>(seq.processed) / seq.wall_s,
                       /*higher_better=*/true});
  r.metrics.push_back({"events_per_sec_jobs4", "events/s", kWall,
                       static_cast<double>(par.processed) / par.wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Open-loop serving: tail latency per lock kind under light and bursty load
// (src/workload/open_loop). Light load rewards the spin handoff; the bursty
// phase drives queue depths where the spin hot-spot tax compounds and only
// blocking handoffs drain — adaptive must track the winner on both. All
// latency quantiles are virtual-clock and gated exactly.
// ---------------------------------------------------------------------------

void push_tail_quantiles(scenario_result& r, const std::string& prefix,
                         const workload::open_loop_result& res) {
  r.metrics.push_back({prefix + "_p50_us", "us", kVirtual,
                       static_cast<double>(res.p50_ns) / 1e3});
  r.metrics.push_back({prefix + "_p99_us", "us", kVirtual,
                       static_cast<double>(res.p99_ns) / 1e3});
  r.metrics.push_back({prefix + "_p999_us", "us", kVirtual,
                       static_cast<double>(res.p999_ns) / 1e3});
}

scenario_result run_serve_openloop() {
  const auto& kinds = handoff_kinds;
  exec::job_executor ex(1);
  scenario_result r;
  double total_requests = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = run_open_loop_sweep(serve_openloop_grid(serve_openloop_base(), kinds), ex);
  for (std::size_t i = 0; i < res.size(); ++i) {
    total_requests += static_cast<double>(res[i].completed);
    const char* load = i < std::size(kinds) ? "light" : "bursty";
    push_tail_quantiles(r, std::string(load) + '_' + kind_tag(kinds[i % std::size(kinds)]),
                        res[i]);
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"requests_per_sec", "req/s", kWall, total_requests / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// The 1000+-node end-to-end: the hierarchical_numa() preset (1024 nodes, 32
// groups) serving bursty open-loop traffic on 8 DES shards, all three
// handoff disciplines. Virtual quantiles gate exactly; the wall rate rides
// the IQR band.
// ---------------------------------------------------------------------------

scenario_result run_serve_tail_1024() {
  auto base = serve_openloop_base();
  base.machine = sim::machine_config::hierarchical_numa();  // 32x32 = 1024 nodes
  base.shards = 8;
  base.requests_per_group = 400;
  scenario_result r;
  double total_requests = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto kind : handoff_kinds) {
    const auto res = run_open_loop(serve_openloop_point(base, /*bursty=*/true, kind));
    total_requests += static_cast<double>(res.completed);
    push_tail_quantiles(r, "n1024_" + kind_tag(kind), res);
    if (kind == locks::lock_kind::adaptive) {
      r.metrics.push_back({"n1024_completed", "count", kVirtual,
                           static_cast<double>(res.completed)});
      r.metrics.push_back({"n1024_windows", "count", kVirtual,
                           static_cast<double>(res.windows)});
      r.metrics.push_back({"n1024_cross_sends", "count", kVirtual,
                           static_cast<double>(res.cross_sends)});
    }
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"requests_per_sec", "req/s", kWall, total_requests / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Federated ct sweep: the fig1-style closed-loop community with REAL ct
// threads, one runtime per NUMA group on the execution domain. Lock
// handoffs, echo round-trips and policy pumps all cross shard boundaries
// through federation::post(), and every reported figure is virtual-clock —
// the baseline gate therefore also pins the cross-shard protocol itself
// (elapsed times, echo quantiles and post counts are shard-invariant).
// ---------------------------------------------------------------------------

scenario_result run_ct_sharded_cs() {
  workload::sharded_cs_config base;
  base.machine = sim::machine_config::hierarchical_numa(4, 6);
  base.threads_per_group = 4;
  base.iterations = 30;
  base.remote_every = 3;
  base.shards = 4;
  scenario_result r;
  double total_acquisitions = 0;
  const auto t0 = std::chrono::steady_clock::now();
  exec::job_executor ex(4);
  for (const auto kind : handoff_kinds) {
    auto cfg = base;
    cfg.kind = kind;
    const auto res = run_sharded_cs(cfg, &ex);
    total_acquisitions += static_cast<double>(res.acquisitions);
    const std::string p = locks::to_string(kind);
    r.metrics.push_back({p + "_virtual_ms", "ms", kVirtual, res.elapsed.ms()});
    r.metrics.push_back({p + "_echo_p99_us", "us", kVirtual, res.echo_rtt_p99_us});
    r.metrics.push_back({p + "_acquisitions", "count", kVirtual,
                         static_cast<double>(res.acquisitions)});
    if (kind == locks::lock_kind::adaptive) {
      r.metrics.push_back({"echoes", "count", kVirtual,
                           static_cast<double>(res.echoes)});
      r.metrics.push_back({"cross_posts", "count", kVirtual,
                           static_cast<double>(res.posts)});
      r.metrics.push_back({"windows", "count", kVirtual,
                           static_cast<double>(res.domain.windows)});
      r.metrics.push_back({"events_per_window", "ratio", kVirtual,
                           events_per_window(res.domain)});
    }
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"acquisitions_per_sec", "acq/s", kWall,
                       total_acquisitions / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// The 4096-node end-to-end: open-loop serving with real ct server threads on
// the fat_tree_hpc4096 preset (64 groups x 64 nodes), one federated runtime
// per group on 8 DES shards. The largest machine the repo simulates; latency
// quantiles, served counts and cross-group post counts gate exactly.
// ---------------------------------------------------------------------------

scenario_result run_serve_ct_fat4096() {
  auto base = serve_ct_base();
  base.requests_per_group = 25;  // x64 groups = 1600 requests
  scenario_result r;
  double total_served = 0;
  const auto t0 = std::chrono::steady_clock::now();
  exec::job_executor ex(4);
  for (const auto kind : handoff_kinds) {
    auto cfg = base;
    cfg.kind = kind;
    const auto res = run_ct_serve(cfg, &ex);
    total_served += static_cast<double>(res.served);
    const std::string p = std::string("fat4096_") + locks::to_string(kind);
    r.metrics.push_back({p + "_p50_us", "us", kVirtual, res.latency_p50_us});
    r.metrics.push_back({p + "_p99_us", "us", kVirtual, res.latency_p99_us});
    r.metrics.push_back({p + "_virtual_ms", "ms", kVirtual, res.elapsed.ms()});
    if (kind == locks::lock_kind::adaptive) {
      r.metrics.push_back({"fat4096_served", "count", kVirtual,
                           static_cast<double>(res.served)});
      r.metrics.push_back({"fat4096_remote", "count", kVirtual,
                           static_cast<double>(res.remote_requests)});
      r.metrics.push_back({"fat4096_posts", "count", kVirtual,
                           static_cast<double>(res.posts)});
      r.metrics.push_back({"fat4096_windows", "count", kVirtual,
                           static_cast<double>(res.domain.windows)});
      r.metrics.push_back({"fat4096_events_per_window", "ratio", kVirtual,
                           events_per_window(res.domain)});
    }
  }
  const double wall_s = wall_seconds_since(t0);
  r.metrics.push_back({"requests_per_sec", "req/s", kWall, total_served / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Tables 1-3: TSP blocking vs adaptive (reduced: 16 cities, 8 processors, 3
// seeds).
// ---------------------------------------------------------------------------

scenario_result run_tsp_scenario(tsp::variant v) {
  const tsp_table_shape shape{.cities = 16, .processors = 8, .seeds = {9001, 1234, 777}};

  const auto t0 = std::chrono::steady_clock::now();
  const auto t = run_tsp_table(v, shape);
  const double wall_s = wall_seconds_since(t0);

  const double total_nodes =
      static_cast<double>(t.blocking.mean_expansions + t.adaptive.mean_expansions) *
      static_cast<double>(shape.seeds.size());

  scenario_result r;
  r.metrics.push_back({"blocking_virtual_ms", "ms", kVirtual, t.blocking.mean_ms});
  r.metrics.push_back({"adaptive_virtual_ms", "ms", kVirtual, t.adaptive.mean_ms});
  r.metrics.push_back({"improvement_frac", "frac", kVirtual, t.improvement()});
  r.metrics.push_back({"expansions_blocking", "count", kVirtual,
                       static_cast<double>(t.blocking.mean_expansions)});
  r.metrics.push_back({"expansions_adaptive", "count", kVirtual,
                       static_cast<double>(t.adaptive.mean_expansions)});
  r.metrics.push_back({"tsp_nodes_per_sec", "nodes/s", kWall, total_nodes / wall_s,
                       /*higher_better=*/true});
  return r;
}

// ---------------------------------------------------------------------------
// Tables 4-8: the micro-cost probes, every row of the table, local + remote.
// Each repetition loops the probes so the wall measurement rises above timer
// jitter; the values are identical every iteration (deterministic), so only
// the first is recorded.
// ---------------------------------------------------------------------------

template <typename Row, typename Probe>
scenario_result run_local_remote_rows(int inner, std::span<const Row> rows,
                                      const std::string& prefix, Probe probe,
                                      const std::vector<std::string>& tags) {
  scenario_result r;
  for (int i = 0; i < inner; ++i) {
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const double local = probe(rows[k], false);
      const double remote = probe(rows[k], true);
      if (i != 0) continue;
      r.metrics.push_back({prefix + tags[k] + "_local_us", "us", kVirtual, local});
      r.metrics.push_back({prefix + tags[k] + "_remote_us", "us", kVirtual, remote});
    }
  }
  return r;
}

std::vector<std::string> kind_tags(std::span<const locks::lock_kind> kinds) {
  std::vector<std::string> tags;
  for (const auto k : kinds) tags.push_back(kind_tag(k));
  return tags;
}

scenario_result run_lock_op_costs() {
  return run_local_remote_rows<locks::lock_kind>(8, table4_kinds, "lock_", lock_op_us,
                                                 kind_tags(table4_kinds));
}

scenario_result run_unlock_op_costs() {
  // Each probe times 8 lock/unlock pairs against Table 4's one: half the
  // loop count keeps the wall measurement comparable.
  return run_local_remote_rows<locks::lock_kind>(4, table5_kinds, "unlock_", unlock_op_us,
                                                 kind_tags(table5_kinds));
}

scenario_result run_cycle_static() {
  return run_local_remote_rows<locks::lock_kind>(6, table6_kinds, "cycle_",
                                                 cycle_static_us, kind_tags(table6_kinds));
}

scenario_result run_cycle_adaptive() {
  const auto policies = table7_policies();
  return run_local_remote_rows<locks::waiting_policy>(
      20, policies, "cycle_", cycle_pinned_us, {"as_spin", "as_blocking"});
}

scenario_result run_config_ops() {
  using probe = double (*)(bool);
  const probe probes[] = {config_acquisition_us, configure_policy_us,
                          configure_scheduler_us};
  return run_local_remote_rows<probe>(
      8, probes, "", [](probe p, bool remote) { return p(remote); },
      {"acquisition", "configure_policy", "configure_scheduler"});
}

// ---------------------------------------------------------------------------
// Figure 1: critical-section-length sweep (reduced grid: 3 CS lengths, 3
// columns, 60 iterations).
// ---------------------------------------------------------------------------

/// The reduced Figure 1 shape shared by the Figure 1 scenario and the policy
/// ablations that run over "the Fig. 1 grid".
fig1_shape reduced_fig1_shape() {
  return {.iterations = 60,
          .cs_lengths_us = {10, 100, 800},
          .columns = {{locks::lock_kind::blocking, 0},
                      {locks::lock_kind::combined, 10},
                      {locks::lock_kind::adaptive, 0}}};
}

scenario_result run_fig1_cs_sweep() {
  const auto shape = reduced_fig1_shape();
  exec::job_executor ex(1);
  const auto res = run_cs_sweep(fig1_grid(shape), ex);
  const auto cols = shape.columns.size();
  scenario_result r;
  double total_ms = 0;
  double total_blocks = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    double col_ms = 0;
    for (std::size_t row = 0; row < shape.cs_lengths_us.size(); ++row) {
      col_ms += res[row * cols + c].elapsed.ms();
      total_blocks += static_cast<double>(res[row * cols + c].blocks);
    }
    total_ms += col_ms;
    auto tag = fig1_label(shape.columns[c]);  // "combined(10)" -> "combined10"
    std::erase_if(tag, [](char ch) { return ch == '(' || ch == ')'; });
    r.metrics.push_back({tag + "_virtual_ms", "ms", kVirtual, col_ms});
  }
  r.metrics.push_back({"total_virtual_ms", "ms", kVirtual, total_ms});
  r.metrics.push_back({"total_blocks", "count", kVirtual, total_blocks});
  return r;
}

// ---------------------------------------------------------------------------
// Figures 4-9: TSP locking patterns (one recorded solve each, 20 cities).
// ---------------------------------------------------------------------------

scenario_result run_pattern_figure(tsp::variant v, bool qlock) {
  const auto res = run_pattern(v, locks::lock_kind::blocking, {.cities = 20});
  const auto& report = pattern_report(res, qlock);

  scenario_result r;
  r.metrics.push_back({"elapsed_virtual_ms", "ms", kVirtual, res.elapsed.ms()});
  r.metrics.push_back({"expansions", "count", kVirtual,
                       static_cast<double>(res.expansions)});
  r.metrics.push_back({"lock_requests", "count", kVirtual,
                       static_cast<double>(report.requests)});
  r.metrics.push_back({"contended_frac", "frac", kVirtual, report.contention_ratio});
  r.metrics.push_back({"peak_waiting", "count", kVirtual,
                       static_cast<double>(report.peak_waiting)});
  return r;
}

// ---------------------------------------------------------------------------
// Extension: spin vs. blocking by threads-per-processor (60 iterations).
// ---------------------------------------------------------------------------

scenario_result run_ext_spin_vs_block() {
  exec::job_executor ex(1);
  const std::string combined = "combined" + std::to_string(spin_vs_block_combined_spin);
  scenario_result r;
  for (const auto& row : run_spin_vs_block({.iterations = 60}, ex)) {
    const std::string tag = std::to_string(row.threads / row.processors) + "x";
    if (row.spin_ms) {
      r.metrics.push_back({"spin_" + tag + "_virtual_ms", "ms", kVirtual, *row.spin_ms});
    }
    r.metrics.push_back({combined + "_" + tag + "_virtual_ms", "ms", kVirtual,
                         row.combined_ms});
    r.metrics.push_back({"blocking_" + tag + "_virtual_ms", "ms", kVirtual,
                         row.blocking_ms});
  }
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: constant-wire vs. staged-butterfly interconnect. Not the
// bench_abl_interconnect binary's experiment: that one drives its own thread
// loop and reports network counters; this one runs the run_cs_workload hot
// spot (10 threads on 10 processors, CS 60 us) for the spin and adaptive
// locks only.
// ---------------------------------------------------------------------------

scenario_result run_abl_interconnect() {
  scenario_result r;
  for (const bool staged : {false, true}) {
    for (const auto kind : {locks::lock_kind::spin, locks::lock_kind::adaptive}) {
      workload::cs_config cfg;
      cfg.processors = 10;
      cfg.threads = 10;
      cfg.iterations = 60;
      cfg.cs_length = sim::microseconds(60);
      cfg.think_time = sim::microseconds(150);
      cfg.kind = kind;
      cfg.params.adapt = {12, 20, 400, 2};
      if (staged) cfg.machine.wire_model = sim::interconnect_model::butterfly;
      const auto res = run_cs_workload(cfg);
      r.metrics.push_back({std::string(staged ? "butterfly_" : "constant_") +
                               locks::to_string(kind) + "_virtual_ms",
                           "ms", kVirtual, res.elapsed.ms()});
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: simple-adapt constants sweep (reduced: 14 cities, 2 x 2 grid).
// ---------------------------------------------------------------------------

scenario_result run_abl_threshold() {
  exec::job_executor ex(1);
  const auto cells =
      run_threshold_sweep({.cities = 14, .thresholds = {1, 12}, .ns = {5, 20}}, ex);
  scenario_result r;
  r.metrics.push_back({"blocking_baseline_virtual_ms", "ms", kVirtual, cells[0].elapsed_ms});
  for (std::size_t i = 1; i < cells.size(); ++i) {
    std::string name = "t";
    name.append(std::to_string(cells[i].threshold))
        .append("_n")
        .append(std::to_string(cells[i].n))
        .append("_virtual_ms");
    r.metrics.push_back({std::move(name), "ms", kVirtual, cells[i].elapsed_ms});
  }
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: adaptation-policy sweep over the reduced Figure 1 grid, adaptive
// column only.
// ---------------------------------------------------------------------------

scenario_result run_abl_policy() {
  // The registered policy family plus one wrapped variant; the empty spec is
  // the default simple-adapt (the plain-adaptive reference column).
  using policy::policy_registry;
  const struct {
    const char* tag;
    policy::policy_spec spec;
  } cols[] = {
      {"simple_adapt", policy::policy_spec{}},
      {"break_even", policy_registry::default_spec("break-even")},
      {"ewma_hold", policy_registry::default_spec("ewma-hold")},
      {"multi_sensor", policy_registry::default_spec("multi-sensor")},
      {"simple_adapt_hyst", policy_registry::default_spec("simple-adapt").with_hysteresis(2)},
      // Same break-even core at a quarter of the sampling rate: probes the
      // paper's monitoring-overhead tradeoff against the period-2 columns.
      {"break_even_p8", policy_registry::default_spec("break-even", 8)},
  };
  const auto shape = reduced_fig1_shape();
  scenario_result r;
  for (const auto& col : cols) {
    double col_ms = 0;
    for (const double cs : shape.cs_lengths_us) {
      auto cfg = fig1_point(shape, cs, {locks::lock_kind::adaptive, 0});
      cfg.params.policy = col.spec;
      const auto res = run_cs_workload(cfg);
      col_ms += res.elapsed.ms();
      r.metrics.push_back({std::string(col.tag) + "_cs" +
                               std::to_string(static_cast<int>(cs)) + "_virtual_ms",
                           "ms", kVirtual, res.elapsed.ms()});
    }
    r.metrics.push_back({std::string(col.tag) + "_total_virtual_ms", "ms", kVirtual,
                         col_ms});
  }
  return r;
}

// ---------------------------------------------------------------------------
// Ablation: sync vs async policy execution (src/policy/runtime) of the
// break-even policy over the reduced Figure 1 grid. Not the
// bench_abl_async_policy binary's experiment (6 contenders, one CS length,
// three execution-mode rows). The async rows queue observations at the
// feedback point (zero inline policy cost) and a daemon on a spare processor
// drains them periodically; all metrics are virtual-clock and therefore
// gated exactly.
// ---------------------------------------------------------------------------

scenario_result run_abl_async_policy() {
  const struct {
    const char* tag;
    bool async;
  } cols[] = {{"sync", false}, {"async", true}};
  const auto shape = reduced_fig1_shape();
  scenario_result r;
  for (const auto& col : cols) {
    double col_ms = 0;
    std::uint64_t ticks = 0;
    std::uint64_t pumped = 0;
    for (const double cs : shape.cs_lengths_us) {
      auto cfg = fig1_point(shape, cs, {locks::lock_kind::adaptive, 0});
      cfg.params.policy = policy::policy_registry::default_spec("break-even");
      if (col.async) cfg.params.policy.with_async();
      const auto res = run_cs_workload(cfg);
      col_ms += res.elapsed.ms();
      ticks += res.policy_ticks;
      pumped += res.policy_pumped;
    }
    r.metrics.push_back({std::string(col.tag) + "_total_virtual_ms", "ms", kVirtual,
                         col_ms});
    if (col.async) {
      r.metrics.push_back({"async_daemon_ticks", "count", kVirtual,
                           static_cast<double>(ticks)});
      r.metrics.push_back({"async_pumped", "count", kVirtual,
                           static_cast<double>(pumped)});
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// src/objects: striped hash map, fixed vs adaptive stripe granularity. The
// coarse column wins global sweeps (size_slow touches every stripe lock),
// the fine column wins point-op contention; the adaptive column must track
// whichever tradeoff the current shape rewards.
// ---------------------------------------------------------------------------

enum class map_mix { insert, find, mixed };

struct map_run_out {
  double virtual_ms = 0;
  unsigned final_stripes = 0;
  std::uint64_t resizes = 0;
};

map_run_out run_map_workload(map_mix mix, unsigned procs, unsigned threads,
                             unsigned fixed_stripes, bool adaptive,
                             std::uint64_t seed) {
  ct::runtime rt(sim::machine_config::test_machine(procs));

  objects::map_config mc;
  mc.min_stripes = adaptive ? 4 : fixed_stripes;
  mc.max_stripes = adaptive ? 64 : fixed_stripes;
  mc.initial_stripes = mc.min_stripes;
  mc.stripe_factor = 4;  // 4 -> 16 -> 64
  mc.buckets_per_stripe = 8;
  mc.nodes = procs;
  mc.adaptive = adaptive;
  // The oversubscribed shapes run 3 threads per processor: use the bounded
  // spin-then-block idle rule for the stripe locks (§4's multiprogramming
  // caveat — an unbounded idle spin can starve a ready stripe holder).
  mc.lock_params.adapt.pure_spin_on_idle = false;
  // Per-object policy tuning (the §4 caveat applies to the map policy too):
  // the default confirm/cooldown admits transient queue-skew spikes, which
  // on this workload thrashes grow/shrink cycles — each one a full quiesce.
  // With 2% global sweeps every extra stripe makes each sweep costlier, so
  // growth has to clear a high bar: a wide deadband (skew 6, load 400) plus
  // longer confirmation keeps Ψ for sustained signals and lets the map hold
  // coarse striping when the sweep tax outweighs point-op relief.
  mc.spec = objects::default_map_spec()
                .with_param("skew-grow", 6)
                .with_param("load-grow", 400)
                .with_param("load-shrink", 40)
                .with_param("confirm", 3)
                .with_param("cooldown", 16);
  objects::adaptive_hash_map<std::uint64_t, std::int64_t> map(mc);

  // The point-op working set scales with the thread count, as a live cache
  // would: the oversubscribed shape carries 4x the keys, so coarse striping
  // pays long chains exactly when contention is also at its worst.
  const std::uint64_t key_space = 40 * std::max(1u, threads / 6);
  constexpr std::uint64_t kInsertSpace = 256;  // insert bench key range
  constexpr unsigned kOps = 220;

  // Pre-drawn per-thread streams: scheduling cannot perturb the draws.
  sim::rng r(seed);
  std::vector<std::vector<double>> u(threads), jit(threads);
  std::vector<std::vector<std::uint64_t>> key(threads);
  for (unsigned t = 0; t < threads; ++t) {
    for (unsigned i = 0; i < kOps; ++i) {
      u[t].push_back(r.uniform01());
      key[t].push_back(r.below(mix == map_mix::insert ? kInsertSpace : key_space));
      jit[t].push_back(r.uniform01());
    }
  }

  if (mix == map_mix::find) {
    // Preload the working set so every probe traverses a realistic chain.
    rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
      for (std::uint64_t k = 0; k < key_space; ++k) {
        co_await map.insert(ctx, k, static_cast<std::int64_t>(k));
      }
    });
    rt.run_all();
  }

  for (unsigned t = 0; t < threads; ++t) {
    rt.fork(t % procs, [&, t](ct::context& ctx) -> ct::task<void> {
      for (unsigned i = 0; i < kOps; ++i) {
        const auto k = key[t][i];
        switch (mix) {
          case map_mix::insert:
            co_await map.insert(ctx, k, static_cast<std::int64_t>(k));
            break;
          case map_mix::find:
            co_await map.find(ctx, k);
            break;
          case map_mix::mixed:
            if (u[t][i] < 0.40) {
              co_await map.insert(ctx, k, static_cast<std::int64_t>(k));
            } else if (u[t][i] < 0.78) {
              co_await map.find(ctx, k);
            } else if (u[t][i] < 0.98) {
              co_await map.erase(ctx, k);
            } else {
              co_await map.size_slow(ctx);  // ~2% global ops
            }
            break;
        }
        co_await ctx.sleep_for(sim::nanoseconds(
            500 + static_cast<std::int64_t>(1500.0 * jit[t][i])));
      }
    });
  }
  const auto t0 = rt.now();
  rt.run_all();

  map_run_out out;
  out.virtual_ms = (rt.now() - t0).ms();
  out.final_stripes = map.active_stripes();
  out.resizes = map.resizes();
  return out;
}

scenario_result run_hashmap_bench(map_mix mix) {
  const struct {
    const char* tag;
    unsigned procs, threads;
  } shapes[] = {{"low", 6, 6}, {"high", 8, 24}};
  const struct {
    const char* tag;
    unsigned stripes;  // 0 = adaptive 4..64
  } cols[] = {{"fixed4", 4}, {"fixed64", 64}, {"adaptive", 0}};

  scenario_result r;
  for (const auto& s : shapes) {
    for (const auto& c : cols) {
      const auto out = run_map_workload(mix, s.procs, s.threads,
                                        c.stripes == 0 ? 4 : c.stripes,
                                        /*adaptive=*/c.stripes == 0, /*seed=*/41);
      r.metrics.push_back({std::string(s.tag) + "_" + c.tag + "_virtual_ms", "ms",
                           kVirtual, out.virtual_ms});
      if (c.stripes == 0) {
        r.metrics.push_back({std::string(s.tag) + "_adaptive_final_stripes", "count",
                             kVirtual, static_cast<double>(out.final_stripes)});
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// src/objects: monitor execution-mode ablation. Under saturation every
// section serializes through the monitor either way, so delegated
// (combining) wins by replacing a handoff+wake per section with batched
// execution — decisively so at the long shape where classic's wake chain
// compounds; the mode-adapt column starts classic and must learn to
// delegate on both shapes.
// ---------------------------------------------------------------------------

double run_monitor_workload(std::int64_t initial_mode, bool adaptive,
                            sim::vdur section, std::uint64_t seed) {
  constexpr unsigned kProcs = 4;
  constexpr unsigned kThreads = 12;
  constexpr unsigned kOps = 120;
  ct::runtime rt(sim::machine_config::test_machine(kProcs));

  objects::monitor_config mc;
  mc.initial_mode = initial_mode;
  mc.adaptive = adaptive;
  // Both shapes keep the monitor saturated (12 threads, 4 procs), where
  // delegation's batched execution avoids a handoff+wake per section; widen
  // the delegate band so the 60us shape is inside it rather than in the
  // default 30..80us hold band, and reserve classic for truly long sections.
  mc.spec = objects::default_monitor_spec()
                .with_param("delegate-below-us", 70)
                .with_param("classic-above-us", 120);
  objects::adaptive_monitor mon(mc);

  sim::rng r(seed);
  std::vector<std::vector<double>> jit(kThreads);
  for (auto& v : jit) {
    for (unsigned i = 0; i < kOps; ++i) v.push_back(r.uniform01());
  }

  std::uint64_t counter = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    rt.fork(t % kProcs, [&, t](ct::context& ctx) -> ct::task<void> {
      for (unsigned i = 0; i < kOps; ++i) {
        co_await mon.execute(ctx, section, [&counter] { ++counter; });
        co_await ctx.sleep_for(sim::nanoseconds(
            1000 + static_cast<std::int64_t>(3000.0 * jit[t][i])));
      }
    });
  }
  const auto t0 = rt.now();
  rt.run_all();
  return (rt.now() - t0).ms();
}

scenario_result run_monitor_delegation() {
  const struct {
    const char* tag;
    sim::vdur section;
  } shapes[] = {{"short", sim::microseconds(4)}, {"long", sim::microseconds(60)}};
  const struct {
    const char* tag;
    std::int64_t mode;
    bool adaptive;
  } cols[] = {{"classic", objects::adaptive_monitor::kClassic, false},
              {"delegated", objects::adaptive_monitor::kDelegated, false},
              {"adaptive", objects::adaptive_monitor::kClassic, true}};
  scenario_result r;
  for (const auto& s : shapes) {
    for (const auto& c : cols) {
      r.metrics.push_back({std::string(s.tag) + "_" + c.tag + "_virtual_ms", "ms",
                           kVirtual,
                           run_monitor_workload(c.mode, c.adaptive, s.section, 43)});
    }
  }
  return r;
}

std::vector<scenario> make_registry() {
  std::vector<scenario> out;
  const auto add = [&](std::string name, std::string desc,
                       std::function<scenario_result()> body) {
    out.push_back({std::move(name), std::move(desc), std::move(body)});
  };

  add("sim_event_queue_churn",
      "pure event-queue stress: 64 self-rescheduling chains + tie bursts",
      run_event_queue_churn);
  add("sim_sharded_queue_churn",
      "sharded event-queue stress: 8 shards, windowed lookahead, horizon sends",
      run_sharded_queue_churn);
  add("bench_serve_openloop",
      "open-loop serving: tail latency per lock kind, light + bursty load",
      run_serve_openloop);
  add("bench_serve_tail_1024",
      "open-loop serving on the 1024-node hierarchical preset, 8 DES shards",
      run_serve_tail_1024);
  add("bench_sharded_cs",
      "federated ct CS sweep: real threads, cross-shard echoes, 4 shards",
      run_ct_sharded_cs);
  add("bench_serve_ct_fat4096",
      "ct serving on the 4096-node fat-tree preset, 64 federated runtimes",
      run_serve_ct_fat4096);
  add("bench_table1_tsp_central", "Table 1: centralized TSP, blocking vs adaptive",
      [] { return run_tsp_scenario(tsp::variant::centralized); });
  add("bench_table2_tsp_dist", "Table 2: distributed TSP, blocking vs adaptive",
      [] { return run_tsp_scenario(tsp::variant::distributed); });
  add("bench_table3_tsp_distlb", "Table 3: distributed+LB TSP, blocking vs adaptive",
      [] { return run_tsp_scenario(tsp::variant::distributed_lb); });
  add("bench_table4_lock_cost", "Table 4: Lock-op cost, every row, local/remote",
      run_lock_op_costs);
  add("bench_table5_unlock_cost",
      "Table 5: Unlock-op cost (mean of 8 unlocks), every row, local/remote",
      run_unlock_op_costs);
  add("bench_table6_cycle_static", "Table 6: locking cycle, static locks",
      run_cycle_static);
  add("bench_table7_cycle_adaptive", "Table 7: locking cycle, pinned adaptive lock",
      run_cycle_adaptive);
  add("bench_table8_config_ops", "Table 8: lock configuration-operation costs",
      run_config_ops);
  add("bench_fig1_cs_sweep", "Figure 1: CS-length sweep, blocking/combined/adaptive",
      run_fig1_cs_sweep);
  add("bench_fig4_pattern_central_qlock", "Figure 4: centralized TSP, qlock pattern",
      [] { return run_pattern_figure(tsp::variant::centralized, true); });
  add("bench_fig5_pattern_central_globact", "Figure 5: centralized TSP, globact pattern",
      [] { return run_pattern_figure(tsp::variant::centralized, false); });
  add("bench_fig6_pattern_dist_qlock", "Figure 6: distributed TSP, qlock pattern",
      [] { return run_pattern_figure(tsp::variant::distributed, true); });
  add("bench_fig7_pattern_dist_globact", "Figure 7: distributed TSP, globact pattern",
      [] { return run_pattern_figure(tsp::variant::distributed, false); });
  add("bench_fig8_pattern_distlb_qlock", "Figure 8: distributed+LB TSP, qlock pattern",
      [] { return run_pattern_figure(tsp::variant::distributed_lb, true); });
  add("bench_fig9_pattern_distlb_globact", "Figure 9: distributed+LB TSP, globact pattern",
      [] { return run_pattern_figure(tsp::variant::distributed_lb, false); });
  add("bench_ext_spin_vs_block", "extension: spin vs blocking by threads/processor",
      run_ext_spin_vs_block);
  add("bench_abl_interconnect",
      "ablation: constant-wire vs staged butterfly, cs-workload hot spot, spin + adaptive "
      "(not the binary's rows)",
      run_abl_interconnect);
  add("bench_abl_threshold", "ablation: simple-adapt Waiting-Threshold x n",
      run_abl_threshold);
  add("bench_abl_policy",
      "ablation: adaptation-policy family over the reduced Fig. 1 grid (no binary)",
      run_abl_policy);
  add("bench_abl_async_policy",
      "ablation: sync vs async break-even policy over the reduced Fig. 1 grid "
      "(not the binary's rows)",
      run_abl_async_policy);
  add("bench_hashmap_insert", "objects: hash-map insert storm, fixed vs adaptive stripes",
      [] { return run_hashmap_bench(map_mix::insert); });
  add("bench_hashmap_find", "objects: hash-map read-only probes, fixed vs adaptive stripes",
      [] { return run_hashmap_bench(map_mix::find); });
  add("bench_hashmap_mixed", "objects: hash-map mixed ops + 2% global sweeps, fixed vs adaptive",
      [] { return run_hashmap_bench(map_mix::mixed); });
  add("bench_monitor_delegation", "objects: monitor classic vs delegated vs mode-adapt",
      run_monitor_delegation);
  return out;
}

}  // namespace

const std::vector<scenario>& all_scenarios() {
  static const std::vector<scenario> registry = make_registry();
  return registry;
}

const scenario* find_scenario(std::string_view name) {
  for (const auto& s : all_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace adx::perf
