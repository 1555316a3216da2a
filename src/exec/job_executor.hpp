// Host-level parallel executor: a fixed worker pool behind one spin-then-park
// barrier.
//
// Two kinds of caller share it. Evaluation drivers (adx-check, adx-bench, the
// fig1/ablation sweeps) fan out grids of *independent* deterministic
// simulations — each run builds its own sim::machine / ct::runtime, so runs
// can execute on any host thread in any order. The sharded DES
// (sim::sharded_event_queue) fans out one batch per conservative window:
// tens of thousands of batches per run, each only a few microseconds long.
//
// The barrier. The caller publishes a batch by writing it into the one cache
// line the pool workers spin on — the batch's entry point (a function pointer
// plus context), its count and chunk — and then bumping that line's
// generation, so a worker learns everything about the batch from one line.
// The caller then waits for the last pool worker to leave the batch. Both
// directions follow the paper's adaptive combined lock: a waiter spins on
// the atomic for at most a fixed budget of about one park/wake round trip
// (kSpinBudget in job_executor.cpp, ~15 µs of host time on a 4-core x86
// host), then parks on a mutex/condition variable, and whether it spins at
// all is adapted to the waits it has observed. A wait that outlasts the
// budget makes its waiter park at once for its next waits (for longer after
// each such spin, up to a cap); parked waits that turn out short — the
// waker's timestamp shows the batch was ready within the budget — bring it
// back to spinning. So a pool with every waiter on its own core spins, and a
// pool whose cores are taken (more workers than cores, or other processes
// holding them) parks, with no setting to choose between them. counters()
// reports the batches published and the waits that parked on each side.
//
// Determinism contract:
//   * map()/for_each() run fn(i) exactly once for every i in [0, count) and
//     map() stores the result at out[i] — worker count and chunk size change
//     only the wall-clock schedule, never the collected values.
//   * find_first() returns the smallest index whose predicate is true, also
//     independent of worker count. With several workers it may *evaluate*
//     indexes beyond the answer speculatively (and skips indexes already
//     known to be past a smaller hit); with one worker it evaluates
//     sequentially and stops at the first hit, like a plain loop.
//   * for_each_slot() runs fn(slot) exactly once for every slot in
//     [0, jobs()), with a fixed slot-to-thread affinity: slot 0 is the
//     calling thread and slot k > 0 is always pool thread k, call after
//     call. A caller that partitions state by slot (the sharded DES: slot w
//     owns shards w, w + jobs(), ...) keeps each partition in one core's
//     cache instead of migrating it with dynamic claiming.
//   * A throwing job cancels the batch's unclaimed jobs (a for_each_slot
//     batch still runs every slot) and the exception is rethrown to the
//     caller. When several jobs throw, the lowest-indexed exception among
//     those evaluated wins; with one worker that is exactly the first throw,
//     matching a sequential loop. The executor stays usable afterwards.
//   * `--jobs=1` executes inline on the calling thread and reproduces the
//     historical sequential behaviour exactly.
//
// Jobs must be independent: they may not touch shared mutable state without
// their own synchronization (the simulator never needs any — machines are
// instance-scoped by construction, and DES shards are slot-owned).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace adx::exec {

/// Worker count for `--jobs=0` / unspecified: one per host core, at least 1.
[[nodiscard]] unsigned default_jobs();

/// Folds a `--jobs` flag value into a concrete worker count (0 = default).
[[nodiscard]] unsigned resolve_jobs(std::uint64_t flag_value);

/// Host-side barrier counters: how the wall-clock schedule went, never part
/// of a result.
struct barrier_counters {
  std::uint64_t batches{0};       ///< batches published to the pool workers
  std::uint64_t worker_parks{0};  ///< pool-worker waits for a batch that parked
  std::uint64_t caller_parks{0};  ///< caller waits for a batch's end that parked
};

class job_executor {
 public:
  /// "no index": find_first's miss value.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `jobs` worker slots (the calling thread is one of them; `jobs - 1`
  /// pool threads are spawned). 0 means default_jobs().
  explicit job_executor(unsigned jobs = 0);
  ~job_executor();
  job_executor(const job_executor&) = delete;
  job_executor& operator=(const job_executor&) = delete;

  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Runs fn(i) for every i in [0, count). `chunk` is the claiming
  /// granularity (0 = automatic); it never affects observable results.
  template <typename Fn>
  void for_each(std::size_t count, Fn&& fn, std::size_t chunk = 0) {
    (void)run(count, pick_chunk(count, chunk), [&fn](std::size_t i) {
      fn(i);
      return false;
    });
  }

  /// Runs fn(slot) once for every slot in [0, jobs()): slot 0 on the
  /// calling thread, slot k > 0 on pool thread k (the same thread on every
  /// call).
  template <typename Fn>
  void for_each_slot(Fn&& fn) {
    (void)run(jobs_, kBySlot, [&fn](std::size_t slot) {
      fn(static_cast<unsigned>(slot));
      return false;
    });
  }

  /// Runs fn(i) for every i in [0, count) and collects the results by job
  /// index: out[i] == fn(i) regardless of worker count. The result type must
  /// be default-constructible (slots are pre-allocated, then assigned).
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t count, Fn&& fn, std::size_t chunk = 0)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(count);
    (void)run(count, pick_chunk(count, chunk), [&fn, &out](std::size_t i) {
      out[i] = fn(i);
      return false;
    });
    return out;
  }

  /// Smallest i in [0, count) with pred(i) true; npos when none. Evaluation
  /// order is unspecified beyond the determinism contract above.
  template <typename Pred>
  [[nodiscard]] std::size_t find_first(std::size_t count, Pred&& pred,
                                       std::size_t chunk = 1) {
    return run(count, chunk == 0 ? 1 : chunk,
               [&pred](std::size_t i) { return static_cast<bool>(pred(i)); });
  }

  /// The barrier's counters so far. Any thread may read them; they are
  /// exact between batches.
  [[nodiscard]] barrier_counters counters() const;

 private:
  struct batch;

  /// A batch's type-erased body: runs job i and returns whether it is a
  /// find_first hit.
  using job_fn = bool (*)(const void* ctx, std::size_t i);

  /// The publish line's chunk value for for_each_slot: index i runs on slot i.
  static constexpr std::size_t kBySlot = 0;

  /// Auto chunking: ~4 claims per worker keeps the claim counter cold while
  /// still load-balancing uneven jobs.
  [[nodiscard]] std::size_t pick_chunk(std::size_t count, std::size_t chunk) const {
    if (chunk != 0) return chunk;
    const std::size_t target = static_cast<std::size_t>(jobs_) * 4;
    return count <= target ? 1 : count / target;
  }

  /// The core behind every entry point: runs body over [0, count), returns
  /// the smallest index for which it returned true. `chunk` is the claiming
  /// granularity, or kBySlot.
  template <typename Body>
  std::size_t run(std::size_t count, std::size_t chunk, const Body& body) {
    if (jobs_ == 1 || count <= 1) {
      // Inline sequential execution: exact historical loop semantics — first
      // exception propagates immediately, first hit stops the scan.
      for (std::size_t i = 0; i < count; ++i) {
        if (body(i)) return i;
      }
      return npos;
    }
    return fan_out(count, chunk, [](const void* ctx, std::size_t i) {
      return (*static_cast<const Body*>(ctx))(i);
    }, &body);
  }

  std::size_t fan_out(std::size_t count, std::size_t chunk, job_fn fn, const void* ctx);
  void worker_loop(unsigned slot);
  void work_on(unsigned slot);

  /// One direction of the barrier: the waiters that park there.
  struct park_side {
    std::condition_variable cv;
    std::atomic<unsigned> sleepers{0};
    std::atomic<std::uint64_t> parked{0};  ///< waits that parked, ever
    /// When a waker last found sleepers here; guarded by mu_. A parked
    /// waiter measures its wait up to this stamp, not up to the moment it
    /// got a core back.
    std::chrono::steady_clock::time_point woken_at{};
  };

  /// One waiter's spin-or-park state, adapted to the waits it observed.
  struct waiter {
    unsigned park_left{0};  ///< waits to park at once before spinning again
    /// park_left after a spin that outlasted the budget: doubles with each
    /// such spin (up to a cap) and shrinks by one with each spin that did not.
    unsigned backoff{1};
  };

  /// The barrier's two halves. await() spins on `ready` (or not, as the
  /// waiter's history says), then parks on the side's cv; wake() unparks the
  /// side's waiters if any are parked. `ready` and the state it reads must
  /// be seq_cst atomics: the sleeper count and that state form a Dekker
  /// pair, so a waker either sees the sleeper or the sleeper sees the new
  /// state.
  template <typename Ready>
  void await(park_side& side, waiter& w, const Ready& ready);
  void wake(park_side& side);

  /// Everything a pool worker needs to join a batch, in the one cache line
  /// it spins on. The caller writes the plain fields while no pool worker
  /// is in a batch, then bumps `generation`; workers read them after seeing
  /// the bump.
  struct alignas(64) publish_line {
    std::atomic<std::uint64_t> generation{0};  ///< batches published (+1 at shutdown)
    job_fn fn{nullptr};           ///< null: shut down
    const void* ctx{nullptr};
    std::size_t count{0};
    std::size_t chunk{0};         ///< claim size, or kBySlot
    batch* claims{nullptr};       ///< claim cursor, hit and error state
  };
  static_assert(sizeof(publish_line) == 64, "a batch is published in one cache line");

  unsigned jobs_;
  publish_line line_;
  alignas(64) std::atomic<unsigned> pending_{0};  ///< pool workers still in the batch

  alignas(64) std::mutex mu_;  ///< parking only
  park_side next_;             ///< pool workers: a new batch or shutdown
  park_side done_;             ///< caller: pending_ reached 0
  waiter caller_;              ///< the caller's side of done_

  std::vector<std::thread> workers_;  ///< last: the threads use every member above
};

}  // namespace adx::exec
