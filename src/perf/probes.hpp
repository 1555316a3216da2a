// One definition of each paper experiment, with two consumers: the bench
// binary that prints it (bench/<name>.cpp parses flags and renders the paper
// columns, labels and prose) and the adx-bench scenario that gates it
// (scenarios.cpp). For every experiment this header holds its shape — a
// struct, or a workload config, whose defaults are the binary's defaults and
// feed its flags — plus its grid, per-point configuration and probe bodies.
// A scenario runs the same definition at a committed reduced shape (fewer
// seeds, a smaller grid, a subset of the lock kinds), so the gate pins the
// code the table prints.
//
// Everything here reports *virtual* time (the simulator's deterministic
// clock) unless a name says otherwise; the perf runner layers host wall-time
// measurement on top.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ct/context.hpp"
#include "exec/job_executor.hpp"
#include "locks/adaptive_lock.hpp"
#include "locks/factory.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "locks/scheduler.hpp"
#include "obs/tracer.hpp"
#include "tsp/parallel.hpp"
#include "workload/cs_workload.hpp"
#include "workload/ct_serve.hpp"
#include "workload/open_loop.hpp"

namespace adx::perf {

// ---------------------------------------------------------------------------
// Tables 1-3: TSP, blocking vs adaptive lock.
// ---------------------------------------------------------------------------

inline std::vector<std::uint64_t> default_seeds() {
  return {9001, 1234, 777, 31337, 2026, 5, 99, 4242};
}

/// The paper's TSP experiment configuration (Tables 1-3), with the adaptation
/// constants tuned for the TSP locks as §4 prescribes.
inline tsp::parallel_config tsp_cfg(tsp::variant v, locks::lock_kind k,
                                    unsigned processors) {
  tsp::parallel_config cfg;
  cfg.impl = v;
  cfg.processors = processors;
  cfg.run.lock = k;
  cfg.run.params.adapt = {/*waiting_threshold=*/12, /*n=*/20, /*spin_cap=*/400,
                          /*sample_period=*/2};
  return cfg;
}

struct tsp_table_shape {
  unsigned cities = 32;
  unsigned processors = 10;  ///< one searcher thread each
  std::vector<std::uint64_t> seeds = default_seeds();
};

struct tsp_summary {
  double mean_ms{0};
  /// Mean of (elapsed / expansions): wall time per unit of search work.
  /// Branch-and-bound exploration is timing-sensitive, so two lock kinds
  /// explore slightly different trees; normalizing by expansions isolates
  /// the synchronization efficiency the paper's tables are about.
  double mean_ms_per_expansion{0};
  std::uint64_t mean_expansions{0};
  double qlock_contention{0};
  std::int64_t qlock_peak{0};
};

namespace detail {

/// One table column: a TSP variant + lock over the seed set, per-seed means.
inline tsp_summary run_tsp(tsp::variant v, locks::lock_kind k, const tsp_table_shape& s) {
  tsp_summary out;
  for (const auto seed : s.seeds) {
    const auto inst = tsp::instance::random_asymmetric(static_cast<int>(s.cities), seed);
    const auto r = tsp::solve_parallel(inst, tsp_cfg(v, k, s.processors));
    out.mean_ms += r.elapsed.ms();
    out.mean_ms_per_expansion +=
        r.elapsed.ms() / static_cast<double>(std::max<std::uint64_t>(1, r.expansions));
    out.mean_expansions += r.expansions;
    out.qlock_contention += r.lock_reports[0].contention_ratio;
    out.qlock_peak = std::max(out.qlock_peak, r.lock_reports[0].peak_waiting);
  }
  const auto n = static_cast<double>(s.seeds.size());
  out.mean_ms /= n;
  out.mean_ms_per_expansion /= n;
  out.mean_expansions =
      static_cast<std::uint64_t>(static_cast<double>(out.mean_expansions) / n);
  out.qlock_contention /= n;
  return out;
}

}  // namespace detail

struct tsp_table_result {
  tsp_summary blocking;
  tsp_summary adaptive;

  /// The tables' "improvement" column: makespan saved by the adaptive lock.
  [[nodiscard]] double improvement() const {
    return (blocking.mean_ms - adaptive.mean_ms) / blocking.mean_ms;
  }
};

inline tsp_table_result run_tsp_table(tsp::variant v, const tsp_table_shape& s) {
  return {detail::run_tsp(v, locks::lock_kind::blocking, s),
          detail::run_tsp(v, locks::lock_kind::adaptive, s)};
}

/// Virtual time of the sequential baseline on the shape's first seed: real
/// LMSK arithmetic charged at per_op_us plus local data movement, no locks,
/// no parallel machinery.
inline double sequential_virtual_ms(tsp::variant v, const tsp_table_shape& s) {
  const auto cfg = tsp_cfg(v, locks::lock_kind::blocking, s.processors);
  const auto inst =
      tsp::instance::random_asymmetric(static_cast<int>(s.cities), s.seeds.front());
  const auto seq = tsp::solve_sequential(inst);
  const double compute_ms = static_cast<double>(seq.ops) * cfg.per_op_us / 1000.0;
  // Per expansion: read the parent matrix and write ~2 children, all local.
  const double words = static_cast<double>(seq.expansions) * 3.0 *
                       static_cast<double>(s.cities) * static_cast<double>(s.cities) /
                       static_cast<double>(cfg.data_word_divisor);
  const double word_us =
      (2.0 * cfg.run.machine.local_wire + cfg.run.machine.mem_service).us();
  return compute_ms + words * word_us / 1000.0;
}

// ---------------------------------------------------------------------------
// Tables 4-8: uncontended operation costs on a lock homed on node 0 (local)
// or node 7 (remote).
// ---------------------------------------------------------------------------

inline constexpr locks::lock_kind table4_kinds[] = {
    locks::lock_kind::atomior,  locks::lock_kind::spin,     locks::lock_kind::backoff,
    locks::lock_kind::blocking, locks::lock_kind::adaptive,
};
inline constexpr locks::lock_kind table5_kinds[] = {
    locks::lock_kind::spin, locks::lock_kind::backoff, locks::lock_kind::blocking,
    locks::lock_kind::adaptive,
};
inline constexpr locks::lock_kind table6_kinds[] = {
    locks::lock_kind::spin, locks::lock_kind::backoff, locks::lock_kind::blocking};

namespace detail {

inline sim::node_id probe_home(bool remote) { return remote ? 7 : 0; }

/// Times `op(ctx, lock)` on a fresh lock made by `make(home)` (Tables 4, 5, 8).
template <typename MakeLock, typename Op>
double time_op_us(bool remote, MakeLock make, Op op) {
  ct::runtime rt(sim::machine_config::butterfly_gp1000());
  auto lk = make(probe_home(remote));
  double us = 0;
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> { us = co_await op(ctx, *lk); });
  rt.run_all();
  return us;
}

inline std::unique_ptr<locks::lock_object> make_probe_lock(locks::lock_kind k,
                                                           sim::node_id home) {
  return locks::make_lock(k, home, locks::lock_cost_model::butterfly_cthreads());
}

/// The locking cycle (Tables 6-7): the paper's unlock-followed-by-lock
/// latency, release-to-acquire with one waiter present. The waiter's waiting
/// loop has its own phase (spin pauses, backoff quanta), so the measurement
/// averages over several owner hold times.
template <typename MakeLock>
double time_cycle_us(MakeLock make, bool remote) {
  double total = 0;
  const double holds_ms[] = {1.62, 1.85, 2.04, 2.31, 2.58};
  for (const double hold : holds_ms) {
    ct::runtime rt(sim::machine_config::butterfly_gp1000());
    auto lk = make(probe_home(remote));
    sim::vtime released{};
    sim::vtime acquired{};
    rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
      co_await lk->lock(ctx);
      co_await ctx.compute(sim::milliseconds(hold));  // waiter settles in
      co_await lk->unlock(ctx);
      released = ctx.now();
    });
    rt.fork(1, [&](ct::context& ctx) -> ct::task<void> {
      co_await ctx.compute(sim::microseconds(100));
      co_await lk->lock(ctx);
      acquired = ctx.now();
      co_await lk->unlock(ctx);
    });
    rt.run_all();
    total += (acquired - released).us();
  }
  return total / std::size(holds_ms);
}

/// Times one configuration operation on a fresh reconfigurable lock (Table 8
/// rows 1-3).
template <typename Configure>
double time_config_op_us(bool remote, Configure configure) {
  return time_op_us(
      remote,
      [](sim::node_id home) {
        return std::make_unique<locks::reconfigurable_lock>(
            home, locks::lock_cost_model::butterfly_cthreads());
      },
      [&configure](ct::context& ctx, locks::reconfigurable_lock& lk) -> ct::task<double> {
        const auto t0 = ctx.now();
        co_await configure(ctx, lk);
        co_return (ctx.now() - t0).us();
      });
}

}  // namespace detail

/// One uncontended Lock op (Table 4).
inline double lock_op_us(locks::lock_kind k, bool remote) {
  return detail::time_op_us(
      remote, [k](sim::node_id home) { return detail::make_probe_lock(k, home); },
      [](ct::context& ctx, locks::lock_object& lk) -> ct::task<double> {
        const auto t0 = ctx.now();
        co_await lk.lock(ctx);
        const double us = (ctx.now() - t0).us();
        co_await lk.unlock(ctx);
        co_return us;
      });
}

/// Mean of 8 uncontended Unlock ops (Table 5). The adaptive unlock's paper
/// figure amortizes its every-other-unlock monitor sample, so a single unlock
/// would show either the cheap one or the sampling one.
inline double unlock_op_us(locks::lock_kind k, bool remote) {
  return detail::time_op_us(
      remote, [k](sim::node_id home) { return detail::make_probe_lock(k, home); },
      [](ct::context& ctx, locks::lock_object& lk) -> ct::task<double> {
        constexpr int kUnlocks = 8;
        double total = 0;
        for (int i = 0; i < kUnlocks; ++i) {
          co_await lk.lock(ctx);
          const auto t0 = ctx.now();
          co_await lk.unlock(ctx);
          total += (ctx.now() - t0).us();
        }
        co_return total / kUnlocks;
      });
}

/// Locking cycle of a static lock (Table 6).
inline double cycle_static_us(locks::lock_kind k, bool remote) {
  return detail::time_cycle_us(
      [k](sim::node_id home) { return detail::make_probe_lock(k, home); }, remote);
}

/// Table 7 rows: the adaptive lock's two extreme configurations.
inline std::vector<locks::waiting_policy> table7_policies() {
  return {locks::waiting_policy::pure_spin(4096), locks::waiting_policy::pure_sleep()};
}

/// Locking cycle of a reconfigurable lock pinned to `wp` (Table 7): no monitor
/// or policy feedback, exactly like an adaptive lock between adaptations.
inline double cycle_pinned_us(const locks::waiting_policy& wp, bool remote) {
  return detail::time_cycle_us(
      [&wp](sim::node_id home) {
        return std::make_unique<locks::reconfigurable_lock>(
            home, locks::lock_cost_model::butterfly_cthreads(), wp);
      },
      remote);
}

inline double config_acquisition_us(bool remote) {
  return detail::time_config_op_us(
      remote, [](ct::context& ctx, locks::reconfigurable_lock& lk) -> ct::task<void> {
        (void)co_await lk.acquire_attribute(ctx, "spin-time", 1);
      });
}

inline double configure_policy_us(bool remote) {
  return detail::time_config_op_us(remote, [](ct::context& ctx, locks::reconfigurable_lock& lk) {
    return lk.configure_waiting_policy(ctx, locks::waiting_policy::pure_spin(16));
  });
}

inline double configure_scheduler_us(bool remote) {
  return detail::time_config_op_us(remote, [](ct::context& ctx, locks::reconfigurable_lock& lk) {
    return lk.configure_scheduler(ctx, std::make_unique<locks::priority_scheduler>());
  });
}

/// Table 8 row 4: one monitor sample of one state variable, the extra
/// unlock-path time of a sampling unlock over a non-sampling one (local).
inline double monitor_sample_us() {
  const auto make = [](sim::node_id home) {
    locks::simple_adapt_params p;
    p.sample_period = 2;
    return std::make_unique<locks::adaptive_lock>(
        home, locks::lock_cost_model::butterfly_cthreads(), p,
        locks::waiting_policy::pure_spin(200));
  };
  return detail::time_op_us(
      false, make, [](ct::context& ctx, locks::adaptive_lock& lk) -> ct::task<double> {
        co_await lk.lock(ctx);
        auto t0 = ctx.now();
        co_await lk.unlock(ctx);  // 1st unlock: no sample
        const double plain = (ctx.now() - t0).us();
        co_await lk.lock(ctx);
        t0 = ctx.now();
        co_await lk.unlock(ctx);  // 2nd unlock: sample + policy (no-op Ψ)
        co_return (ctx.now() - t0).us() - plain;
      });
}

// ---------------------------------------------------------------------------
// Figure 1: critical-section length sweep under multiprogramming.
// ---------------------------------------------------------------------------

struct fig1_column {
  locks::lock_kind kind;
  std::int64_t spin_limit;  ///< spins before blocking (combined locks)
};

inline constexpr fig1_column fig1_columns[] = {
    {locks::lock_kind::blocking, 0}, {locks::lock_kind::combined, 1},
    {locks::lock_kind::combined, 10}, {locks::lock_kind::combined, 50},
    {locks::lock_kind::adaptive, 0},
};

/// "blocking", "combined(10)", "adaptive", ...
inline std::string fig1_label(const fig1_column& c) {
  std::string s = locks::to_string(c.kind);
  if (c.kind == locks::lock_kind::combined) {
    s.append("(").append(std::to_string(c.spin_limit)).append(")");
  }
  return s;
}

struct fig1_shape {
  unsigned processors = 6;
  unsigned threads = 12;  ///< multiprogrammed: more threads than processors
  std::uint64_t iterations = 120;
  std::vector<double> cs_lengths_us{10, 25, 50, 100, 200, 400, 800, 1600};
  std::vector<fig1_column> columns{std::begin(fig1_columns), std::end(fig1_columns)};
};

/// One grid point; the think time follows the CS length (3 x CS + 100 us).
inline workload::cs_config fig1_point(const fig1_shape& s, double cs_us,
                                      const fig1_column& c) {
  workload::cs_config cfg;
  cfg.processors = s.processors;
  cfg.threads = s.threads;
  cfg.iterations = s.iterations;
  cfg.cs_length = sim::microseconds(cs_us);
  cfg.think_time = sim::microseconds(3 * cs_us + 100);
  cfg.kind = c.kind;
  cfg.params.combined_spin_limit = c.spin_limit;
  // Multiprogramming-appropriate adaptation constants: with threads >
  // processors, long pure-spin phases steal cycles from runnable peers, so
  // cap the spin budget low and recover from it in one sample.
  cfg.params.adapt = {2, 25, 50, 2};
  return cfg;
}

/// The whole grid, row-major (CS length x column); run it with run_cs_sweep.
inline std::vector<workload::cs_config> fig1_grid(const fig1_shape& s) {
  std::vector<workload::cs_config> grid;
  for (const double cs : s.cs_lengths_us) {
    for (const auto& c : s.columns) grid.push_back(fig1_point(s, cs, c));
  }
  return grid;
}

// ---------------------------------------------------------------------------
// Figures 4-9: TSP locking patterns (one recorded solve).
// ---------------------------------------------------------------------------

struct pattern_shape {
  unsigned cities = 32;
  unsigned processors = 10;
  std::uint64_t seed = 9001;
};

/// Solves one instance with pattern recording on; a non-null `tr` also
/// records a structured-event trace.
inline tsp::parallel_result run_pattern(tsp::variant v, locks::lock_kind k,
                                        const pattern_shape& s, obs::tracer* tr = nullptr) {
  auto cfg = tsp_cfg(v, k, s.processors);
  cfg.record_patterns = true;
  cfg.tracer = tr;
  const auto inst = tsp::instance::random_asymmetric(static_cast<int>(s.cities), s.seed);
  return tsp::solve_parallel(inst, cfg);
}

/// The lock a figure plots: the work-queue lock or the global-activity lock.
inline const tsp::lock_report& pattern_report(const tsp::parallel_result& r, bool qlock) {
  return qlock ? r.lock_reports[0] : r.lock_reports[2];
}
inline const sim::trace& pattern_series(const tsp::parallel_result& r, bool qlock) {
  return qlock ? r.qlock_pattern : r.act_pattern;
}

// ---------------------------------------------------------------------------
// Extension (§2-a): spin vs blocking by threads per processor.
// ---------------------------------------------------------------------------

struct spin_vs_block_shape {
  std::uint64_t iterations = 150;
  static constexpr double cs_us = 100;
  static constexpr double think_us = 300;
};

/// Spins before blocking of the combined column.
inline constexpr std::int64_t spin_vs_block_combined_spin = 25;

struct spin_vs_block_row {
  unsigned threads;
  unsigned processors;
  std::optional<double> spin_ms;  ///< absent above 1 thread/processor (livelock)
  double combined_ms;
  double blocking_ms;
};

/// Rows of 6, 12 and 18 threads on 6 processors sharing one lock.
inline std::vector<spin_vs_block_row> run_spin_vs_block(const spin_vs_block_shape& s,
                                                        exec::job_executor& ex) {
  const unsigned threads[] = {6, 12, 18};
  constexpr unsigned kProcessors = 6;
  const locks::lock_kind kinds[] = {locks::lock_kind::spin, locks::lock_kind::combined,
                                    locks::lock_kind::blocking};
  // Flattened row x kind grid; every point is an independent simulation.
  const auto ms = ex.map(std::size(threads) * std::size(kinds), [&](std::size_t i) {
    workload::cs_config c;
    c.processors = kProcessors;
    c.threads = threads[i / std::size(kinds)];
    c.kind = kinds[i % std::size(kinds)];
    // Pure spin livelocks when spinners and the owner share a processor.
    if (c.kind == locks::lock_kind::spin && c.threads > c.processors) {
      return std::optional<double>{};
    }
    c.iterations = s.iterations;
    c.cs_length = sim::microseconds(s.cs_us);
    c.think_time = sim::microseconds(s.think_us);
    if (c.kind == locks::lock_kind::combined) {
      c.params.combined_spin_limit = spin_vs_block_combined_spin;
    }
    return std::optional<double>{run_cs_workload(c).elapsed.ms()};
  });
  std::vector<spin_vs_block_row> rows;
  for (std::size_t i = 0; i < std::size(threads); ++i) {
    const auto* cell = &ms[i * std::size(kinds)];
    rows.push_back({threads[i], kProcessors, cell[0], *cell[1], *cell[2]});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Ablation A2 (§4): simple-adapt Waiting-Threshold x n on centralized TSP.
// ---------------------------------------------------------------------------

struct threshold_shape {
  unsigned cities = 32;
  std::uint64_t seed = 9001;
  static constexpr unsigned processors = 10;
  std::vector<std::int64_t> thresholds{1, 4, 12, 24};
  std::vector<std::int64_t> ns{5, 20, 60};
};

struct threshold_cell {
  std::int64_t threshold;
  std::int64_t n;
  double elapsed_ms;
  double qlock_mean_wait_us;
};

/// Cell 0 is the blocking-lock baseline (threshold = n = 0); the adaptive
/// cells follow, threshold-major.
inline std::vector<threshold_cell> run_threshold_sweep(const threshold_shape& s,
                                                       exec::job_executor& ex) {
  const auto inst = tsp::instance::random_asymmetric(static_cast<int>(s.cities), s.seed);
  std::vector<threshold_cell> cells{{0, 0, 0, 0}};
  for (const auto threshold : s.thresholds) {
    for (const auto n : s.ns) cells.push_back({threshold, n, 0, 0});
  }
  // Independent TSP runs on the shared (read-only) instance.
  ex.for_each(cells.size(), [&](std::size_t i) {
    auto cfg = tsp_cfg(tsp::variant::centralized,
                       i == 0 ? locks::lock_kind::blocking : locks::lock_kind::adaptive,
                       s.processors);
    if (i != 0) {
      cfg.run.params.adapt.waiting_threshold = cells[i].threshold;
      cfg.run.params.adapt.n = cells[i].n;
    }
    const auto r = tsp::solve_parallel(inst, cfg);
    cells[i].elapsed_ms = r.elapsed.ms();
    cells[i].qlock_mean_wait_us = r.lock_reports[0].mean_wait_us;
  });
  return cells;
}

// ---------------------------------------------------------------------------
// Open-loop serving: tail latency per lock kind, Poisson and bursty load.
// ---------------------------------------------------------------------------

/// The three handoff disciplines: bench_serve_ct's rows, and the subset of
/// lock kinds the serving and federated scenarios run.
inline constexpr locks::lock_kind handoff_kinds[] = {
    locks::lock_kind::spin, locks::lock_kind::blocking, locks::lock_kind::adaptive};

inline workload::open_loop_config serve_openloop_base() {
  workload::open_loop_config c;
  c.machine = sim::machine_config::hierarchical_numa(8, 8);
  c.shards = 4;
  c.locks_per_group = 1;
  c.requests_per_group = 1500;
  c.mean_interarrival_us = 600;
  c.mean_service_us = 40;
  c.remote_ratio = 0.10;
  c.params.adapt.waiting_threshold = 16;
  return c;
}

inline constexpr locks::lock_kind serve_openloop_kinds[] = {
    locks::lock_kind::spin,   locks::lock_kind::blocking, locks::lock_kind::mcs,
    locks::lock_kind::ticket, locks::lock_kind::adaptive,
};

/// `base` under one lock kind, with Poisson arrivals or 8x bursts during
/// every other 30 ms.
inline workload::open_loop_config serve_openloop_point(workload::open_loop_config base,
                                                       bool bursty, locks::lock_kind k) {
  base.kind = k;
  base.bursty = bursty;
  base.burst_mult = 8;
  base.burst_period_us = 30'000;
  return base;
}

/// Row-major (Poisson, bursty) x kinds; run it with run_open_loop_sweep.
inline std::vector<workload::open_loop_config> serve_openloop_grid(
    const workload::open_loop_config& base, std::span<const locks::lock_kind> kinds) {
  std::vector<workload::open_loop_config> grid;
  for (const bool bursty : {false, true}) {
    for (const auto k : kinds) grid.push_back(serve_openloop_point(base, bursty, k));
  }
  return grid;
}

// ---------------------------------------------------------------------------
// Federated ct workloads. The critical-section sweep runs at the
// workload::sharded_cs_config defaults; ct serving uses the 4096-node preset.
// ---------------------------------------------------------------------------

inline constexpr locks::lock_kind sharded_cs_kinds[] = {
    locks::lock_kind::spin, locks::lock_kind::blocking, locks::lock_kind::combined,
    locks::lock_kind::adaptive,
};

inline workload::ct_serve_config serve_ct_base() {
  workload::ct_serve_config c;
  c.machine = sim::machine_config::fat_tree_hpc4096();  // 64 groups x 64 nodes
  c.servers_per_group = 2;
  c.requests_per_group = 50;
  c.mean_interarrival_us = 80;
  c.remote_fraction = 0.25;
  c.service = sim::microseconds(25);
  c.shards = 8;
  return c;
}


}  // namespace adx::perf
