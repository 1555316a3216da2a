// The execution domain: the one interface every layer above sim uses to
// drive a simulation on the sharded conservative-lookahead DES
// (sim::sharded_event_queue), at any shard count including one.
//
// A domain partitions the simulated machine into `places` — one per NUMA
// group (machine_config::group_of) — and maps each place onto an executing
// shard. Everything a workload, runtime, lock, or policy daemon does falls
// into exactly two categories:
//
//   * Place-local work: scheduled directly on `queue_of(place)` (the shard's
//     own 4-ary heap). Legal from setup code and from events already
//     executing on the same shard. This is the hot path — zero abstraction
//     cost beyond a pointer indirection.
//   * Cross-place influence: `send()` — timestamped at least `lookahead()`
//     in the future (== is the horizon, and the canonical transit time),
//     tagged with a shard-invariant origin (e.g. group << 32 | counter),
//     buffered per shard and merged at window barriers in (at, origin)
//     order.
//
// There is one engine. `shards=1` is the same window grid with one shard:
// the same barrier positions, the same delivery batches, the same
// adaptive-lookahead state machine driven only by shard-invariant
// delivered-send counts. Sends still wait for the barrier merge even with a
// single heap, so tie-break seqs follow merge order, never emission order —
// and a workload that follows the discipline produces bit-identical results
// at every shard and worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/job_executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/machine_config.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_event_queue.hpp"
#include "sim/time.hpp"

namespace adx::sim {

/// Virtual-metrics snapshot of a domain run. Every field is a pure function
/// of the logical schedule — bit-identical at every shard and worker count.
struct domain_stats {
  std::uint64_t windows = 0;          ///< synchronization rounds executed
  std::uint64_t cross_sends = 0;      ///< deliveries merged at barriers
  std::uint64_t widened_windows = 0;  ///< rounds run with widen factor > 1
  std::uint64_t peak_widen = 1;       ///< largest widen factor reached
  std::uint64_t slab_slots = 0;       ///< callback slots acquired, all queues
  std::uint64_t callback_spills = 0;  ///< oversized callbacks spilled to heap

  friend bool operator==(const domain_stats&, const domain_stats&) = default;
};

/// How to build a domain for a machine.
struct domain_options {
  /// Executing shards; clamped to [1, the machine's group count]. Places map
  /// round-robin onto shards (shard = place % shards); 1 is the same window
  /// grid on a single heap.
  unsigned shards = 1;
  /// Seed for the per-place streams (a workload typically passes its own).
  std::uint64_t seed = 0x5eedULL;
  /// Opt-in adaptive lookahead: widen the window up to `max_widen` L-sized
  /// sub-segments after rounds with zero cross-place traffic; decay to 1 on
  /// any delivery. L stays the correctness floor.
  bool adaptive_lookahead = false;
  unsigned max_widen = 8;
};

class event_domain {
 public:
  /// One place per NUMA group of `cfg`, lookahead from its interconnect.
  event_domain(const machine_config& cfg, const domain_options& opt);

  /// Number of places (== the machine's NUMA group count).
  [[nodiscard]] unsigned places() const { return places_; }

  /// The conservative horizon: minimum virtual time for any influence to
  /// cross a place boundary (machine_config::min_cross_group_latency()).
  [[nodiscard]] vdur lookahead() const { return q_.lookahead(); }

  /// The queue executing `place`'s events. Hand it to the place's machine;
  /// schedule on it only from setup code or from that shard's own events.
  [[nodiscard]] event_queue& queue_of(unsigned place) {
    return q_.shard_queue(shard_of(place));
  }

  /// Cross-place send: runs `fn` on `to`'s shard at `at`, which must be at
  /// least `lookahead()` past the sending shard's clock (== allowed).
  /// `origin` must be unique per delivery and must not encode a shard index.
  void send(unsigned from, unsigned to, vtime at, std::uint64_t origin,
            event_queue::callback fn) {
    q_.send(shard_of(from), shard_of(to), at, origin, std::move(fn));
  }

  /// Per-place deterministic random stream, seeded
  /// seed ^ (0x9e3779b97f4a7c15 * (place + 1)) — a pure function of
  /// (seed, place), so re-sharding cannot reorder any draw sequence.
  [[nodiscard]] rng& stream(unsigned place) { return streams_.at(place); }

  /// Runs the window loop until drained, or until the first barrier at which
  /// at least `max_events` events have run (shard-invariant stopping point).
  /// `ex` may be null for sequential execution; results are identical.
  std::uint64_t run(exec::job_executor* ex, std::uint64_t max_events = ~0ULL) {
    return q_.run_budgeted(ex, max_events);
  }

  /// Latest clock across places — the simulation's end time after run().
  [[nodiscard]] vtime now() const { return q_.now(); }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::uint64_t processed() const { return q_.processed(); }
  [[nodiscard]] domain_stats stats() const;

 private:
  [[nodiscard]] unsigned shard_of(unsigned place) const {
    if (place >= places_) throw std::out_of_range("event_domain: bad place");
    return place % q_.shards();
  }

  unsigned places_;
  sharded_event_queue q_;
  std::vector<rng> streams_;
};

/// Builds the domain `cfg` calls for (see event_domain's constructor).
[[nodiscard]] std::unique_ptr<event_domain> make_event_domain(
    const machine_config& cfg, const domain_options& opt = {});

}  // namespace adx::sim
