// The benchmark's four workloads, driven only through the library's public
// entry points (workload::run_ct_serve, workload::run_cs_workload,
// tsp::solve_sequential / tsp::solve_parallel).
//
// A workload is set up once (setup(): configurations, executor, telemetry
// client, TSP instances and their sequential reference solves, and one
// zero-load call of the workload entry point) and then run as repeated passes. A pass is
// every workload call: each lock kind x arrival stream (serve_*), each
// CS length x lock column (cs_sweep), each instance x lock kind
// (tsp_central). Every call's outputs are checked; a failed check counts the
// call's ops as failed instead of aborting the run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/job_executor.hpp"
#include "spans.hpp"
#include "telemetry/client.hpp"
#include "tsp/instance.hpp"
#include "tsp/parallel.hpp"
#include "workload/cs_workload.hpp"
#include "workload/ct_serve.hpp"

namespace perfbench {

enum class workload_id { serve_seq, serve_sharded, cs_sweep, tsp_central };

/// The seed results are quoted at, and a seed kept back for checking later
/// claims (the same values as DEFAULT_SEED / HELD_OUT_SEED in run.py).
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 20260;

[[nodiscard]] const char* to_string(workload_id w);
[[nodiscard]] std::optional<workload_id> parse_workload(std::string_view name);

/// serve_* run every lock kind on this many arrival streams, each drawn from
/// its own seed derived from the run's seed. A pass's serve metrics pool the
/// streams: one stream's tail latency depends on its arrival pattern far
/// more than on its length.
inline constexpr unsigned kServeStreams = 4;

/// Input size. The defaults are the benchmark's; tests shrink them.
struct scale {
  /// serve_*: requests per group in each arrival stream.
  std::uint64_t requests_per_group = 100;
  std::uint64_t cs_iterations = 120;
  unsigned tsp_instances = 16;
  int tsp_cities = 32;
  /// Instances are drawn from the seed's stream and kept only when their
  /// sequential LMSK solve expands between this many and kMaxExpansions
  /// (workloads.cpp) nodes, so every pass searches about the same amount
  /// whatever the seed.
  std::uint64_t tsp_min_expansions = 500;
  /// Event budget handed to every workload call; 0 keeps each entry point's own
  /// default. A tiny budget starves the runs so the output checks fire.
  std::uint64_t max_events = 0;
};

struct options {
  workload_id id = workload_id::serve_seq;
  std::uint64_t seed = kDefaultSeed;
  scale size{};
  /// serve_sharded only: telemetry dump file; empty turns telemetry off.
  std::string telemetry_dump;
};

/// Host threads the workload runs on: the calling thread, executor workers
/// and the telemetry sender.
[[nodiscard]] unsigned host_threads(const options& opt);

/// The lock kind of each workload call in a pass's lock loop (one entry per
/// lock column; cs_sweep repeats `combined` for its three spin limits).
[[nodiscard]] std::vector<adx::locks::lock_kind> lock_kinds(workload_id w);

/// Deterministic counts a pass exposes through the entry points' result structs.
/// A count the workload's entry point does not report stays 0.
struct layer_counts {
  std::uint64_t events{0};        ///< callback slots acquired
  std::uint64_t windows{0};       ///< DES synchronization rounds
  std::uint64_t cross_sends{0};   ///< cross-shard deliveries
  std::uint64_t posts{0};         ///< ct federation posts
  std::uint64_t acquisitions{0};  ///< lock acquisitions, all locks
  std::uint64_t adaptive_acquisitions{0};
  std::uint64_t contended{0};
  std::uint64_t blocks{0};
  std::uint64_t spin_iterations{0};
  std::uint64_t tsp_expansions{0};
  std::uint64_t tsp_pruned_pops{0};
  std::uint64_t tsp_steals{0};
};

struct pass_result {
  std::uint64_t calls{0};
  std::uint64_t calls_failed{0};
  std::uint64_t ops_attempted{0};
  std::uint64_t ops_failed{0};
  /// Ops the entry points completed (requests served, lock cycles, expansions).
  std::uint64_t ops_done{0};
  std::vector<std::string> failures;  ///< one line per failed check

  double virt_makespan_ms{0};
  double adaptive_regret{0};
  /// serve_* only: the adaptive lock's request latency over all streams,
  /// interpolated within the latency histogram's buckets, and its p99 ÷ the
  /// lower of spin's and blocking's p99.
  double virt_p50_us{0};
  double virt_p99_us{0};
  std::uint64_t virt_samples{0};
  double p99_regret{0};

  /// FNV-1a hash of the full virtual result table.
  std::uint64_t digest{0};
  layer_counts counts;
};

/// Set-up state of one workload.
class workload {
 public:
  /// Builds everything the passes need and makes one zero-load workload call.
  /// Throws on a configuration the entry points reject.
  static std::unique_ptr<workload> setup(const options& opt, span_log* spans);

  workload(const workload&) = delete;
  workload& operator=(const workload&) = delete;

  /// Runs every workload call once, checking each call's outputs.
  [[nodiscard]] pass_result run_pass(span_log* spans);

  /// The telemetry client serve_sharded publishes into (null otherwise).
  [[nodiscard]] adx::telemetry::client* telemetry_client() { return tele_.get(); }
  /// Flushes and closes the telemetry client, if any.
  void close_telemetry() { tele_.reset(); }

 private:
  explicit workload(options opt) : opt_(std::move(opt)) {}

  struct tsp_case {
    adx::tsp::instance inst;
    std::int64_t optimum;           ///< sequential LMSK optimum
    std::uint64_t seq_expansions;   ///< the ops a solve of it is charged with
  };

  [[nodiscard]] adx::tsp::parallel_config tsp_config(adx::locks::lock_kind kind) const;

  options opt_;
  std::unique_ptr<adx::exec::job_executor> ex_;
  std::unique_ptr<adx::telemetry::client> tele_;
  adx::workload::ct_serve_config serve_base_;
  std::vector<adx::workload::cs_config> cs_grid_;
  std::vector<tsp_case> tsp_cases_;
};

}  // namespace perfbench
