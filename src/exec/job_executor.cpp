#include "exec/job_executor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

namespace adx::exec {

namespace {

/// About one park/wake round trip on a condition variable (a futex wake plus
/// the wakee's reschedule, ~15 µs on a 4-core x86 host): spinning longer
/// than this costs more than parking would have.
constexpr std::chrono::nanoseconds kSpinBudget = std::chrono::microseconds(15);

/// Spin iterations between clock reads: keeps the deadline check off the
/// hot path while overshooting the budget by a few microseconds at most.
constexpr unsigned kSpinsPerClockRead = 64;

/// The most waits a waiter parks at once before it tries spinning again,
/// reached when spins keep outlasting the budget: under sustained load a
/// retry wastes at most one budget per this many waits.
constexpr unsigned kMaxBackoff = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned resolve_jobs(std::uint64_t flag_value) {
  if (flag_value == 0) return default_jobs();
  // More workers than jobs ever helps nothing; bound the thread count so a
  // typo'd --jobs cannot exhaust the host.
  return static_cast<unsigned>(std::min<std::uint64_t>(flag_value, 512));
}

/// One fan-out call's claim, hit and error state. Lives on the caller's
/// stack for the duration of fan_out; workers reach it through the publish
/// line. A slot batch touches it only when a job throws.
struct job_executor::batch {
  std::atomic<std::size_t> next{0};        ///< claim cursor (monotone)
  std::atomic<std::size_t> found{npos};    ///< min index with fn(i) == true
  std::atomic<bool> stop{false};           ///< a job threw: drain and bail

  std::mutex err_mu;
  std::exception_ptr error;
  std::size_t error_index{npos};

  void fail(std::size_t i) {
    {
      const std::lock_guard<std::mutex> l(err_mu);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
    stop.store(true, std::memory_order_release);
  }
};

job_executor::job_executor(unsigned jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {
  workers_.reserve(jobs_ - 1);
  for (unsigned w = 1; w < jobs_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

job_executor::~job_executor() {
  line_.fn = nullptr;
  line_.generation.fetch_add(1);
  wake(next_);
  for (auto& t : workers_) t.join();
}

barrier_counters job_executor::counters() const {
  return {line_.generation.load(std::memory_order_relaxed),
          next_.parked.load(std::memory_order_relaxed),
          done_.parked.load(std::memory_order_relaxed)};
}

template <typename Ready>
void job_executor::await(park_side& side, waiter& w, const Ready& ready) {
  using clock = std::chrono::steady_clock;
  clock::time_point start{};
  clock::time_point parked_at{};
  const bool spun = w.park_left == 0;
  if (spun) {
    // The clock is first read after kSpinsPerClockRead spins, so a wait that
    // ends sooner — the common case — reads no clock at all.
    for (unsigned i = 1;; ++i) {
      if (ready()) {
        if (w.backoff > 1) --w.backoff;
        return;
      }
      cpu_relax();
      if (i % kSpinsPerClockRead != 0) continue;
      const auto now = clock::now();
      if (i == kSpinsPerClockRead) {
        start = now;
      } else if (now - start >= kSpinBudget) {
        parked_at = now;
        break;
      }
    }
  } else {
    start = parked_at = clock::now();
  }
  clock::time_point woken_at;
  {
    std::unique_lock<std::mutex> l(mu_);
    side.parked.fetch_add(1, std::memory_order_relaxed);
    side.sleepers.fetch_add(1);
    side.cv.wait(l, ready);
    side.sleepers.fetch_sub(1);
    woken_at = side.woken_at;
  }
  if (spun) {
    // This wait outlasted the budget: park at once for the next ones, and
    // for longer each time spinning fails again.
    w.park_left = w.backoff;
    w.backoff = std::min(2 * w.backoff, kMaxBackoff);
  } else if (std::max(woken_at, parked_at) - start < kSpinBudget) {
    // Ready within the budget (a stamp older than parked_at means it never
    // blocked): a spin would have caught it.
    --w.park_left;
  } else {
    w.park_left = w.backoff;  // still long: keep parking
  }
}

void job_executor::wake(park_side& side) {
  if (side.sleepers.load() == 0) return;
  {
    // A sleeper that has counted itself may still be testing its predicate
    // under mu_; taking mu_ orders this notify after its wait begins.
    const std::lock_guard<std::mutex> l(mu_);
    side.woken_at = std::chrono::steady_clock::now();
  }
  side.cv.notify_all();
}

void job_executor::worker_loop(unsigned slot) {
  waiter w;
  std::uint64_t seen = 0;
  for (;;) {
    await(next_, w, [&] { return line_.generation.load() != seen; });
    // The caller publishes the next batch only after every pool worker left
    // this one, so the generation has moved by exactly one.
    ++seen;
    if (line_.fn == nullptr) return;
    work_on(slot);
    if (pending_.fetch_sub(1) == 1) wake(done_);
  }
}

void job_executor::work_on(unsigned slot) {
  // The publish line stays unchanged until every pool worker has left.
  const job_fn fn = line_.fn;
  const void* const ctx = line_.ctx;
  batch& b = *line_.claims;
  const std::size_t chunk = line_.chunk;
  if (chunk == kBySlot) {
    try {
      (void)fn(ctx, slot);
    } catch (...) {
      b.fail(slot);
    }
    return;
  }
  const std::size_t count = line_.count;
  for (;;) {
    if (b.stop.load(std::memory_order_acquire)) return;
    const std::size_t begin = b.next.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= count) return;
    const std::size_t end = std::min(begin + chunk, count);
    for (std::size_t i = begin; i < end; ++i) {
      if (b.stop.load(std::memory_order_acquire)) return;
      // An index past an already-found smaller hit cannot improve the
      // minimum; skip it (pure speculation saved, result unchanged).
      if (i >= b.found.load(std::memory_order_acquire)) continue;
      bool hit;
      try {
        hit = fn(ctx, i);
      } catch (...) {
        b.fail(i);
        return;
      }
      if (hit) {
        std::size_t cur = b.found.load(std::memory_order_acquire);
        while (i < cur &&
               !b.found.compare_exchange_weak(cur, i, std::memory_order_acq_rel)) {
        }
      }
    }
  }
}

std::size_t job_executor::fan_out(std::size_t count, std::size_t chunk, job_fn fn,
                                  const void* ctx) {
  batch b;
  line_.fn = fn;
  line_.ctx = ctx;
  line_.count = count;
  line_.chunk = chunk;
  line_.claims = &b;
  // The generation bump below publishes this store along with the line.
  pending_.store(static_cast<unsigned>(workers_.size()), std::memory_order_relaxed);
  line_.generation.fetch_add(1);
  wake(next_);
  work_on(0);  // the calling thread is slot 0
  await(done_, caller_, [this] { return pending_.load() == 0; });
  if (b.error) std::rethrow_exception(b.error);
  return b.found.load(std::memory_order_acquire);
}

}  // namespace adx::exec
