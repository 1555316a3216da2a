#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <exception>
#include <queue>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "tsp/lmsk.hpp"

namespace perfbench {

namespace lk = adx::locks;
namespace wl = adx::workload;
namespace sim = adx::sim;
namespace tsp = adx::tsp;

const char* to_string(workload_id w) {
  switch (w) {
    case workload_id::serve_seq: return "serve_seq";
    case workload_id::serve_sharded: return "serve_sharded";
    case workload_id::cs_sweep: return "cs_sweep";
    case workload_id::tsp_central: return "tsp_central";
  }
  return "?";
}

std::optional<workload_id> parse_workload(std::string_view name) {
  for (const auto w : {workload_id::serve_seq, workload_id::serve_sharded,
                       workload_id::cs_sweep, workload_id::tsp_central}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

namespace {

constexpr unsigned kShardedShards = 8;
constexpr unsigned kShardedWorkers = 2;

constexpr std::array kServeKinds = {lk::lock_kind::spin, lk::lock_kind::blocking,
                                    lk::lock_kind::adaptive};
constexpr std::array kTspKinds = {lk::lock_kind::blocking, lk::lock_kind::adaptive};
constexpr std::array kCsLengthsUs = {10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0};

struct cs_column {
  const char* name;
  lk::lock_kind kind;
  std::int64_t spin_limit;
};
constexpr std::array kCsColumns = {
    cs_column{"blocking", lk::lock_kind::blocking, 0},
    cs_column{"combined(1)", lk::lock_kind::combined, 1},
    cs_column{"combined(10)", lk::lock_kind::combined, 10},
    cs_column{"combined(50)", lk::lock_kind::combined, 50},
    cs_column{"adaptive", lk::lock_kind::adaptive, 0},
};

bool is_serve(workload_id w) {
  return w == workload_id::serve_seq || w == workload_id::serve_sharded;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the virtual result table.
struct digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/// Records one workload call's check outcome and ops in the pass.
void account(pass_result& p, bool ok, std::uint64_t ops, std::string what) {
  ++p.calls;
  p.ops_attempted += ops;
  if (!ok) {
    ++p.calls_failed;
    p.ops_failed += ops;
    p.failures.push_back(std::move(what));
  }
}

/// Percentile `p` of `h` with linear interpolation inside the bucket that
/// holds the target rank (the library's percentile() returns the bucket
/// midpoint, which moves in ~9% steps between seeds).
double percentile_interp(const adx::obs::log_histogram& h, double p) {
  if (h.count() == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(h.count());
  double cum = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const auto n = static_cast<double>(h.bucket(i));
    if (n > 0 && cum + n >= target) {
      const double v = h.bucket_lo(i) + (target - cum) / n * (h.bucket_hi(i) - h.bucket_lo(i));
      return std::clamp(v, h.min(), h.max());
    }
    cum += n;
  }
  return h.max();
}

/// Node expansions of a best-first LMSK search of `inst` (the order
/// tsp::solve_sequential uses), or nullopt once it would exceed `budget`.
/// Screens candidate instances without solving the hard ones to the end.
std::optional<std::uint64_t> expansions_within(const tsp::instance& inst, std::uint64_t budget) {
  struct worse {
    bool operator()(const tsp::subproblem& a, const tsp::subproblem& b) const {
      return a.bound == b.bound ? a.seq > b.seq : a.bound > b.bound;
    }
  };
  tsp::lmsk engine(inst);
  std::priority_queue<tsp::subproblem, std::vector<tsp::subproblem>, worse> pq;
  std::uint32_t seq = 1;
  std::int64_t best = tsp::kInfBound;
  std::uint64_t n = 0;
  pq.push(engine.root());
  while (!pq.empty()) {
    tsp::subproblem sp = pq.top();
    pq.pop();
    if (sp.bound >= best) continue;
    if (++n > budget) return std::nullopt;
    auto er = engine.expand(std::move(sp), best, seq);
    if (er.completed && er.completed->cost < best) best = er.completed->cost;
    for (auto& c : er.children) pq.push(std::move(c));
  }
  return n;
}

std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

unsigned host_threads(const options& opt) {
  if (opt.id != workload_id::serve_sharded) return 1;
  return kShardedWorkers + (opt.telemetry_dump.empty() ? 0 : 1);
}

std::vector<lk::lock_kind> lock_kinds(workload_id w) {
  if (is_serve(w)) return {kServeKinds.begin(), kServeKinds.end()};
  if (w == workload_id::tsp_central) return {kTspKinds.begin(), kTspKinds.end()};
  std::vector<lk::lock_kind> out;
  for (const auto& c : kCsColumns) out.push_back(c.kind);
  return out;
}

std::unique_ptr<workload> workload::setup(const options& opt, span_log* spans) {
  span_log::scope s(spans, "setup", to_string(opt.id));
  std::unique_ptr<workload> w(new workload(opt));
  const auto& sz = opt.size;

  if (is_serve(opt.id)) {
    const bool sharded = opt.id == workload_id::serve_sharded;
    auto& c = w->serve_base_;
    c.machine = sim::machine_config::fat_tree_hpc4096();
    c.servers_per_group = 2;
    c.requests_per_group = sz.requests_per_group;
    c.mean_interarrival_us = 80.0;
    c.remote_fraction = 0.25;
    c.service = sim::microseconds(25);
    c.seed = opt.seed;
    c.shards = sharded ? kShardedShards : 1;
    if (sz.max_events != 0) c.max_events = sz.max_events;
    w->ex_ = std::make_unique<adx::exec::job_executor>(sharded ? kShardedWorkers : 1);
    if (sharded && !opt.telemetry_dump.empty()) {
      adx::telemetry::client_options copt;
      copt.dump_path = opt.telemetry_dump;
      copt.run_id = "perfbench-serve_sharded";
      copt.producer = "perfbench";
      std::string err;
      w->tele_ = adx::telemetry::client::open(copt, &err);
      if (!w->tele_) throw std::runtime_error("telemetry client: " + err);
    }
    auto zero = c;
    zero.requests_per_group = 0;
    span_log::scope z(spans, "zero_load", "run_ct_serve");
    (void)wl::run_ct_serve(zero, w->ex_.get());
  } else if (opt.id == workload_id::cs_sweep) {
    for (const double cs : kCsLengthsUs) {
      for (const auto& col : kCsColumns) {
        wl::cs_config cfg;
        cfg.processors = 6;
        cfg.threads = 12;
        cfg.iterations = sz.cs_iterations;
        cfg.cs_length = sim::microseconds(cs);
        cfg.think_time = sim::microseconds(3 * cs + 100);
        cfg.kind = col.kind;
        cfg.params.combined_spin_limit = col.spin_limit;
        cfg.params.adapt = {2, 25, 50, 2};
        cfg.seed = opt.seed;
        if (sz.max_events != 0) cfg.max_events = sz.max_events;
        w->cs_grid_.push_back(cfg);
      }
    }
    auto zero = w->cs_grid_.back();
    zero.iterations = 0;
    span_log::scope z(spans, "zero_load", "run_cs_workload");
    (void)wl::run_cs_workload(zero);
  } else {
    // Every set-up screens at least kScreened candidates, so its cost does
    // not depend on how early the seed's stream happens to hit the band.
    constexpr std::uint64_t kScreened = 200;
    constexpr std::uint64_t kMaxCandidates = 10'000;
    constexpr std::uint64_t kMaxExpansions = 650;
    for (std::uint64_t j = 0; j < kScreened || w->tsp_cases_.size() < sz.tsp_instances; ++j) {
      if (j == kMaxCandidates) {
        throw std::runtime_error("tsp_central: too few instances in the expansion band");
      }
      auto inst = tsp::instance::random_asymmetric(sz.tsp_cities,
                                                   splitmix64(opt.seed * kMaxCandidates + j));
      const auto n = expansions_within(inst, kMaxExpansions);
      if (!n || *n < sz.tsp_min_expansions || w->tsp_cases_.size() == sz.tsp_instances) continue;
      span_log::scope q(spans, "solve_sequential", "instance " + std::to_string(j));
      const auto seq = tsp::solve_sequential(inst);
      w->tsp_cases_.push_back({std::move(inst), seq.best.cost, seq.expansions});
    }
    const auto tiny = tsp::instance::random_asymmetric(6, opt.seed);
    auto cfg = w->tsp_config(lk::lock_kind::adaptive);
    cfg.max_events = tsp::parallel_config{}.max_events;
    span_log::scope z(spans, "zero_load", "solve_parallel");
    (void)tsp::solve_parallel(tiny, cfg);
  }
  return w;
}

adx::tsp::parallel_config workload::tsp_config(adx::locks::lock_kind kind) const {
  tsp::parallel_config cfg;
  cfg.impl = tsp::variant::centralized;
  cfg.processors = 10;
  cfg.run.lock = kind;
  cfg.run.params.adapt = {/*waiting_threshold=*/12, /*n=*/20, /*spin_cap=*/400,
                          /*sample_period=*/2};
  if (opt_.size.max_events != 0) cfg.max_events = opt_.size.max_events;
  return cfg;
}

pass_result workload::run_pass(span_log* spans) {
  span_log::scope pass_span(spans, "pass", to_string(opt_.id));
  pass_result p;
  digest d;
  auto& n = p.counts;

  if (is_serve(opt_.id)) {
    const std::uint64_t expected =
        std::uint64_t{serve_base_.machine.groups()} * serve_base_.requests_per_group;
    // Each kind's latencies over all streams, and its adaptive run times.
    std::vector<adx::obs::log_histogram> latency(kServeKinds.size(),
                                                 wl::ct_serve_result{}.latency);
    double adaptive_ms = 0;
    for (std::size_t k = 0; k < kServeKinds.size(); ++k) {
      const auto kind = kServeKinds[k];
      for (unsigned stream = 0; stream < kServeStreams; ++stream) {
        auto cfg = serve_base_;
        cfg.kind = kind;
        cfg.seed = splitmix64(opt_.seed * kServeStreams + stream);
        const auto label = std::string(lk::to_string(kind)) + " stream " + std::to_string(stream);
        wl::ct_serve_result r;
        std::string err;
        {
          span_log::scope s(spans, "run_ct_serve", label);
          try {
            r = wl::run_ct_serve(cfg, ex_.get());
          } catch (...) {
            err = describe(std::current_exception());
          }
        }
        if (err.empty() && !r.completed) err = "run did not complete";
        if (err.empty() && r.served != r.generated) {
          err = "served " + std::to_string(r.served) + " of " + std::to_string(r.generated);
        }
        if (err.empty() && r.acquisitions != r.served) {
          err = "acquisitions " + std::to_string(r.acquisitions) + " != served " +
                std::to_string(r.served);
        }
        account(p, err.empty(), expected, "run_ct_serve " + label + ": " + err);
        if (tele_) {
          adx::obs::metrics m;
          const std::string prefix = std::string("serve.") + lk::to_string(kind);
          m.get_counter(prefix + ".served").set(r.served);
          m.get_counter(prefix + ".acquisitions").set(r.acquisitions);
          m.set_histogram(prefix + ".latency_us", r.latency);
          tele_->publish_metrics(m, static_cast<std::int64_t>(r.elapsed.ns));
          tele_->publish_result(label, !err.empty(), err);
        }
        p.ops_done += r.served;
        latency[k].merge_from(r.latency);
        n.events += r.domain.slab_slots;
        n.windows += r.domain.windows;
        n.cross_sends += r.domain.cross_sends;
        n.posts += r.posts;
        n.acquisitions += r.acquisitions;
        n.blocks += r.blocks;
        for (const std::uint64_t v : {r.elapsed.ns, r.generated, r.served, r.remote_requests,
                                      r.acquisitions, r.blocks, r.posts, r.latency.count()}) {
          d.add(v);
        }
        for (const double v : {r.latency_mean_us, r.latency_p50_us, r.latency_p99_us,
                               r.latency_max_us}) {
          d.add(v);
        }
        if (kind == lk::lock_kind::adaptive) {
          n.adaptive_acquisitions += r.acquisitions;
          adaptive_ms += r.elapsed.ms();
        }
      }
    }
    const auto& adaptive = latency.back();
    p.virt_makespan_ms = adaptive_ms / kServeStreams;
    p.virt_p50_us = percentile_interp(adaptive, 50);
    p.virt_p99_us = percentile_interp(adaptive, 99);
    p.virt_samples = adaptive.count();
    const double best_mean = std::min(latency[0].mean(), latency[1].mean());
    if (best_mean > 0) p.adaptive_regret = adaptive.mean() / best_mean;
    const double best_p99 = std::min(percentile_interp(latency[0], 99),
                                     percentile_interp(latency[1], 99));
    if (best_p99 > 0) p.p99_regret = p.virt_p99_us / best_p99;
  } else if (opt_.id == workload_id::cs_sweep) {
    double adaptive_sum = 0;
    double best_sum = 0;
    for (std::size_t row = 0; row < kCsLengthsUs.size(); ++row) {
      double best = 0;
      for (std::size_t c = 0; c < kCsColumns.size(); ++c) {
        const auto& cfg = cs_grid_[row * kCsColumns.size() + c];
        const auto label = std::to_string(static_cast<int>(kCsLengthsUs[row])) + "us " +
                           kCsColumns[c].name;
        const std::uint64_t expected = std::uint64_t{cfg.threads} * cfg.iterations;
        wl::cs_result r;
        std::string err;
        {
          span_log::scope s(spans, "run_cs_workload", label);
          try {
            r = wl::run_cs_workload(cfg);
          } catch (...) {
            err = describe(std::current_exception());
          }
        }
        if (err.empty() && r.acquisitions != expected) {
          err = "acquisitions " + std::to_string(r.acquisitions) + " != " +
                std::to_string(expected);
        }
        account(p, err.empty(), expected, "run_cs_workload " + label + ": " + err);
        p.ops_done += r.acquisitions;
        n.acquisitions += r.acquisitions;
        n.contended += r.contended;
        n.blocks += r.blocks;
        n.spin_iterations += r.spin_iterations;
        for (const std::uint64_t v : {r.elapsed.ns, r.acquisitions, r.contended, r.blocks,
                                      r.spin_iterations}) {
          d.add(v);
        }
        d.add(r.mean_wait_us);
        const double ms = r.elapsed.ms();
        if (cfg.kind == lk::lock_kind::adaptive) {
          adaptive_sum += ms;
          n.adaptive_acquisitions += r.acquisitions;
        } else if (best == 0 || ms < best) {
          best = ms;
        }
      }
      best_sum += best;
    }
    p.virt_makespan_ms = adaptive_sum;
    if (best_sum > 0) p.adaptive_regret = adaptive_sum / best_sum;
  } else {
    std::array<double, kTspKinds.size()> sum_ms{};
    for (std::size_t i = 0; i < tsp_cases_.size(); ++i) {
      const auto& tc = tsp_cases_[i];
      for (std::size_t k = 0; k < kTspKinds.size(); ++k) {
        const auto kind = kTspKinds[k];
        const auto label = "instance " + std::to_string(i) + " " + lk::to_string(kind);
        tsp::parallel_result r;
        std::string err;
        {
          span_log::scope s(spans, "solve_parallel", label);
          try {
            r = tsp::solve_parallel(tc.inst, tsp_config(kind));
          } catch (...) {
            err = "threw: " + describe(std::current_exception());
          }
        }
        if (err.empty() && r.best.cost != tc.optimum) {
          err = "best tour " + std::to_string(r.best.cost) + " != sequential optimum " +
                std::to_string(tc.optimum);
        }
        if (err.empty() && tc.inst.tour_cost(r.best.order) != r.best.cost) {
          err = "tour order does not cost " + std::to_string(r.best.cost);
        }
        account(p, err.empty(), tc.seq_expansions, "solve_parallel " + label + ": " + err);
        p.ops_done += r.expansions;
        sum_ms[k] += r.elapsed.ms();
        n.events += r.events;
        n.tsp_expansions += r.expansions;
        n.tsp_pruned_pops += r.pruned_pops;
        n.tsp_steals += r.steals;
        for (const auto& rep : r.lock_reports) {
          n.acquisitions += rep.requests;
          n.contended += rep.contended;
          if (kind == lk::lock_kind::adaptive) n.adaptive_acquisitions += rep.requests;
        }
        for (const std::uint64_t v : {r.elapsed.ns, r.expansions, r.pruned_pops, r.ops,
                                      r.steals, r.events}) {
          d.add(v);
        }
        d.add(r.best.cost);
      }
    }
    const double cases = static_cast<double>(std::max<std::size_t>(1, tsp_cases_.size()));
    p.virt_makespan_ms = sum_ms[1] / cases;
    if (sum_ms[0] > 0) p.adaptive_regret = sum_ms[1] / sum_ms[0];
  }
  p.digest = d.h;
  return p;
}

}  // namespace perfbench
