// Sharded discrete-event core with conservative-lookahead synchronization.
//
// The single global `event_queue` caps machine size at one core's event
// throughput. This class splits the simulation into S shards (one
// `event_queue` each — the same 4-ary heap + slab engine) that execute in
// *windows*: every round the coordinator computes the global minimum pending
// timestamp T and lets each shard run all of its events with timestamp in
// [T, T + lookahead) concurrently on `exec::job_executor` workers (slot w
// of J always runs shards w, w + J, ..., so a shard never changes host
// thread). The classic Chandy–Misra–Bryant conservative argument applies:
// if any cross-shard influence takes at least `lookahead` of virtual time to
// arrive (in this codebase, the interconnect's minimum cross-group hop
// latency — see machine_config::min_cross_group_latency()), no event inside
// the window can be affected by an event executing concurrently in another
// shard, so the parallel execution is a legal serialization of the
// sequential one.
//
// The coordinator's serial work per window is kept off the shards' cache
// lines. After a parallel window it does not read the shard queues: each
// slot records its shards' earliest pending timestamp and whether any of
// their outboxes is non-empty, and the coordinator folds those J records
// with the earliest delivery it merged at the barrier (if any). Only the
// first window of a run and sequential windows read every shard's head.
//
// Determinism contract (the src/exec discipline, extended to shards):
//   * Shard-local results are bit-identical for ANY shard count and ANY
//     worker count. With one shard the queue degenerates to the sequential
//     4-ary heap: same (at, seq) FIFO ordering, same clamp semantics.
//   * Events on one shard may freely schedule further events on their own
//     shard via schedule_at (FIFO seq tie-break, exactly event_queue).
//   * Cross-shard communication goes through send(): the timestamp must be
//     at least `lookahead` in the future (== is allowed: "exactly at the
//     horizon"), deliveries are buffered in per-shard outboxes during the
//     window and merged at the barrier in ascending (at, origin) order.
//     `origin` is a caller-chosen tag, unique per delivery (e.g. sender
//     group << 32 | counter); because it does not mention the shard index,
//     the merge order — and therefore every downstream seq tie-break — is
//     invariant under re-sharding the same logical streams.
//   * Workloads must be shard-disciplined: an event may touch only state
//     owned by its shard's node group. The TSan CI job runs the stress tests
//     and a sharded open-loop sweep to police this claim.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exec/job_executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace adx::sim {

class sharded_event_queue {
 public:
  /// `shards` independent sub-queues; `lookahead` is the conservative
  /// synchronization horizon (must be positive — a zero lookahead would
  /// serialize every event and deadlock the window loop).
  sharded_event_queue(unsigned shards, vdur lookahead)
      : shards_(shards), lookahead_(lookahead) {
    if (shards == 0) throw std::invalid_argument("sharded_event_queue: shards must be > 0");
    if (lookahead.ns <= 0) {
      throw std::invalid_argument("sharded_event_queue: lookahead must be positive");
    }
  }
  sharded_event_queue(const sharded_event_queue&) = delete;
  sharded_event_queue& operator=(const sharded_event_queue&) = delete;

  [[nodiscard]] unsigned shards() const { return static_cast<unsigned>(shards_.size()); }
  [[nodiscard]] vdur lookahead() const { return lookahead_; }

  /// Schedules `fn` on `shard` at absolute time `at`. Legal from setup code
  /// (before run) and from events already executing on that same shard;
  /// scheduling onto a *different* currently-running shard is a data race —
  /// use send().
  template <typename F>
  void schedule_at(unsigned shard, vtime at, F&& fn) {
    shards_.at(shard).q.schedule_at(at, std::forward<F>(fn));
  }

  /// Cross-shard send honoring the conservative contract: `at` must be at
  /// least `lookahead` past the sending shard's clock (== is the horizon
  /// boundary and is allowed). Buffered in the sender's outbox; delivered at
  /// the window barrier in ascending (at, origin) order. `from` must be the
  /// shard of the currently executing event (or any shard during setup).
  template <typename F>
  void send(unsigned from, unsigned to, vtime at, std::uint64_t origin, F&& fn) {
    auto& src = shards_.at(from);
    if (to >= shards_.size()) throw std::out_of_range("sharded_event_queue::send: bad shard");
    if (at < src.q.now() + lookahead_) {
      throw std::logic_error(
          "sharded_event_queue::send: timestamp inside the lookahead horizon");
    }
    src.outbox.push_back({at, origin, to, event_queue::callback(std::forward<F>(fn))});
  }

  /// Runs every pending event to completion, fanning each window's shards
  /// across `ex`'s workers. Returns the number of events processed.
  std::uint64_t run(exec::job_executor& ex);

  /// Sequential convenience: one inline worker, identical results.
  std::uint64_t run();

  /// Budgeted run: stops at the first synchronization barrier where at least
  /// `max_events` events have been processed (the livelock guard for
  /// workload drivers). Each round processes the same multiset of events at
  /// every shard/worker count, so the stopping point — checked only at
  /// barriers — is shard-invariant too. `ex` may be null (sequential).
  std::uint64_t run_budgeted(exec::job_executor* ex, std::uint64_t max_events);

  /// Direct access to one shard's queue (setup, and events running on that
  /// shard). The sharded workloads hand each node group's machine its
  /// shard's queue so all thread scheduling stays shard-local.
  [[nodiscard]] event_queue& shard_queue(unsigned shard) { return shards_.at(shard).q; }
  [[nodiscard]] const event_queue& shard_queue(unsigned shard) const {
    return shards_.at(shard).q;
  }

  /// The given shard's clock (its last executed event's timestamp).
  [[nodiscard]] vtime now(unsigned shard) const { return shards_.at(shard).q.now(); }
  /// Latest clock across shards — the simulation's end time after run().
  [[nodiscard]] vtime now() const {
    vtime t{};
    for (const auto& s : shards_) t = max(t, s.q.now());
    return t;
  }
  [[nodiscard]] bool empty() const {
    for (const auto& s : shards_) {
      if (!s.q.empty() || !s.outbox.empty()) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t processed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s.q.processed();
    return n;
  }
  /// Synchronization rounds executed so far. A pure function of the global
  /// schedule and the lookahead — identical for every shard/worker count.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// Cross-shard deliveries merged so far (same invariance).
  [[nodiscard]] std::uint64_t cross_sends() const { return cross_sends_; }

 private:
  struct pending_send {
    vtime at;
    std::uint64_t origin;
    unsigned to;
    event_queue::callback fn;
  };
  /// Cache-line aligned: parallel windows write neighbouring shards from
  /// different workers. Built once at construction and never moved.
  struct alignas(64) shard {
    event_queue q;
    std::vector<pending_send> outbox;  ///< written only by the shard's worker
  };

  /// The pending set's earliest timestamp, if it has one.
  struct frontier {
    bool any{false};
    vtime tmin{};
    void fold(vtime at) {
      if (!any || at < tmin) tmin = at;
      any = true;
    }
  };
  /// Reads every shard's head and outbox, and delivers the outboxes: the
  /// first window of a run (setup code may have scheduled or sent anywhere)
  /// and every sequential window.
  frontier scan();
  /// The same answer after a parallel window, from the slot records alone
  /// (plus the merge when a slot reports a non-empty outbox).
  frontier reduce();
  /// One synchronization round over [tmin, tmin + lookahead); returns the
  /// events it ran (at least one: the event at tmin).
  std::uint64_t window(exec::job_executor* ex, vtime tmin);
  /// Delivers every outbox in (at, origin) order; at least one must be
  /// non-empty. Returns the earliest delivery's timestamp.
  vtime merge_outboxes();

  /// One executor slot's summary of its shards after a parallel window, so
  /// the coordinator reads J records instead of every shard's queue (each
  /// one just written by another core). Padded so the slots' writes never
  /// share a cache line.
  struct alignas(64) slot_record {
    std::uint64_t ran{0};  ///< events the slot ran in the window
    frontier next;         ///< its shards' earliest pending timestamp
    bool sent{false};      ///< some outbox of its shards is non-empty
  };

  /// A delivery's place in the barrier merge: ascending (at, origin), ties
  /// broken by `source` = shard << 32 | outbox position, which orders like
  /// the delivery's index in the shard-order concatenation of the outboxes.
  struct merge_key {
    vtime at;
    std::uint64_t origin;
    std::uint64_t source;
  };

  std::vector<shard> shards_;
  std::vector<slot_record> slots_;  ///< one per executor slot, parallel runs only
  std::vector<merge_key> merged_;   ///< barrier merge order, reused
  vdur lookahead_;
  std::uint64_t windows_{0};
  std::uint64_t cross_sends_{0};
};

}  // namespace adx::sim
