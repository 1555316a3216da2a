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
// The barrier. Every batch is published by bumping an atomic generation; the
// pool workers wait for the next generation and the caller waits for the
// last pool worker to leave the batch. Both directions use the same rule as
// the paper's combined lock: spin on the atomic for a bounded budget, then
// park on a mutex/condition variable. The budget is a fixed constant of
// about one park/wake round trip (kSpinBudget in job_executor.cpp, ~15 µs of
// host time on a 4-core x86 host): a wait shorter than that costs less spun
// than parked, and a longer one wastes at most the one round trip it would
// have cost to park at once — the competitive 2x bound. A pool with more
// workers than host cores (jobs() > default_jobs()) parks at once: spinning
// only pays when every waiter has its own processor, and a spinner on a
// shared core delays the very thread it is waiting for.
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
//   * A throwing job cancels the batch and the exception is rethrown to the
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
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace adx::exec {

/// Worker count for `--jobs=0` / unspecified: one per host core, at least 1.
[[nodiscard]] unsigned default_jobs();

/// Folds a `--jobs` flag value into a concrete worker count (0 = default).
[[nodiscard]] unsigned resolve_jobs(std::uint64_t flag_value);

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
    (void)run_find(count, pick_chunk(count, chunk), [&fn](std::size_t i) {
      fn(i);
      return false;
    });
  }

  /// Runs fn(slot) once for every slot in [0, jobs()): slot 0 on the
  /// calling thread, slot k > 0 on pool thread k (the same thread on every
  /// call).
  template <typename Fn>
  void for_each_slot(Fn&& fn) {
    (void)run_find(jobs_, kBySlot, [&fn](std::size_t slot) {
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
    (void)run_find(count, pick_chunk(count, chunk), [&fn, &out](std::size_t i) {
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
    return run_find(count, chunk == 0 ? 1 : chunk,
                    [&pred](std::size_t i) { return static_cast<bool>(pred(i)); });
  }

 private:
  struct batch;

  /// run_find's chunk value for for_each_slot: index i runs on slot i.
  static constexpr std::size_t kBySlot = 0;

  /// Auto chunking: ~4 claims per worker keeps the claim counter cold while
  /// still load-balancing uneven jobs.
  [[nodiscard]] std::size_t pick_chunk(std::size_t count, std::size_t chunk) const {
    if (chunk != 0) return chunk;
    const std::size_t target = static_cast<std::size_t>(jobs_) * 4;
    return count <= target ? 1 : count / target;
  }

  /// The type-erased core behind every entry point: runs body over
  /// [0, count), returns the smallest index for which it returned true.
  /// `chunk` is the claiming granularity, or kBySlot.
  std::size_t run_find(std::size_t count, std::size_t chunk,
                       const std::function<bool(std::size_t)>& body);

  void worker_loop(unsigned slot);
  static void work_on(batch& b, unsigned slot);

  /// The barrier's two halves. await() spins on `ready` for the budget
  /// (none when oversubscribed), then parks on `cv`; wake() unparks `cv`'s
  /// waiters if any are parked. `ready` and the state it reads must be
  /// seq_cst atomics: the sleeper count and that state form a Dekker pair,
  /// so a waker either sees the sleeper or the sleeper sees the new state.
  template <typename Ready>
  void await(std::condition_variable& cv, std::atomic<unsigned>& sleepers,
             const Ready& ready);
  void wake(std::condition_variable& cv, const std::atomic<unsigned>& sleepers);

  unsigned jobs_;
  bool spin_;  ///< jobs_ <= default_jobs(): every waiter has its own core

  batch* current_{nullptr};  ///< published before generation_ is bumped
  bool shutdown_{false};     ///< likewise; read after a generation bump
  alignas(64) std::atomic<std::uint64_t> generation_{0};  ///< batches published
  alignas(64) std::atomic<unsigned> pending_{0};  ///< pool workers still in the batch

  std::mutex mu_;                      ///< parking only
  std::condition_variable wake_cv_;    ///< workers: a new batch or shutdown
  std::condition_variable done_cv_;    ///< caller: pending_ reached 0
  std::atomic<unsigned> wake_sleepers_{0};
  std::atomic<unsigned> done_sleepers_{0};

  std::vector<std::thread> workers_;  ///< last: the threads use every member above
};

}  // namespace adx::exec
