#include "exec/job_executor.hpp"

#include <algorithm>
#include <chrono>

namespace adx::exec {

namespace {

/// About one park/wake round trip on a condition variable (a futex wake plus
/// the wakee's reschedule, ~15 µs on a 4-core x86 host): spinning longer
/// than this costs more than parking would have.
constexpr std::chrono::nanoseconds kSpinBudget = std::chrono::microseconds(15);

/// Spin iterations between clock reads: keeps the deadline check off the
/// hot path while overshooting the budget by well under a microsecond.
constexpr unsigned kSpinsPerClockRead = 64;

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

/// One fan-out call's shared state. Lives on the caller's stack for the
/// duration of run_find; workers reach it through job_executor::current_.
struct job_executor::batch {
  const std::function<bool(std::size_t)>* body{nullptr};
  std::size_t count{0};
  std::size_t chunk{1};                    ///< claim size, or kBySlot
  std::atomic<std::size_t> next{0};        ///< claim cursor (monotone)
  std::atomic<std::size_t> found{npos};    ///< min index with body(i) == true
  std::atomic<bool> stop{false};           ///< a job threw: drain and bail

  std::mutex err_mu;
  std::exception_ptr error;
  std::size_t error_index{npos};
};

job_executor::job_executor(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs), spin_(jobs_ <= default_jobs()) {
  workers_.reserve(jobs_ - 1);
  for (unsigned w = 1; w < jobs_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

job_executor::~job_executor() {
  shutdown_ = true;
  generation_.fetch_add(1);
  wake(wake_cv_, wake_sleepers_);
  for (auto& t : workers_) t.join();
}

template <typename Ready>
void job_executor::await(std::condition_variable& cv, std::atomic<unsigned>& sleepers,
                         const Ready& ready) {
  if (spin_) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    for (unsigned i = 1;; ++i) {
      if (ready()) return;
      cpu_relax();
      if (i % kSpinsPerClockRead == 0 && std::chrono::steady_clock::now() >= deadline) break;
    }
  }
  std::unique_lock<std::mutex> l(mu_);
  sleepers.fetch_add(1);
  cv.wait(l, ready);
  sleepers.fetch_sub(1);
}

void job_executor::wake(std::condition_variable& cv, const std::atomic<unsigned>& sleepers) {
  if (sleepers.load() == 0) return;
  {
    // A sleeper that has counted itself may still be testing its predicate
    // under mu_; taking mu_ orders this notify after its wait begins.
    const std::lock_guard<std::mutex> l(mu_);
  }
  cv.notify_all();
}

void job_executor::worker_loop(unsigned slot) {
  std::uint64_t seen = 0;
  for (;;) {
    await(wake_cv_, wake_sleepers_, [&] { return generation_.load() != seen; });
    // The caller publishes the next batch only after every pool worker left
    // this one, so the generation has moved by exactly one.
    seen = generation_.load();
    if (shutdown_) return;
    work_on(*current_, slot);
    if (pending_.fetch_sub(1) == 1) wake(done_cv_, done_sleepers_);
  }
}

void job_executor::work_on(batch& b, unsigned slot) {
  const bool by_slot = b.chunk == kBySlot;
  for (;;) {
    if (b.stop.load(std::memory_order_acquire)) return;
    const std::size_t begin =
        by_slot ? slot : b.next.fetch_add(b.chunk, std::memory_order_relaxed);
    if (begin >= b.count) return;
    const std::size_t end = by_slot ? begin + 1 : std::min(begin + b.chunk, b.count);
    for (std::size_t i = begin; i < end; ++i) {
      if (b.stop.load(std::memory_order_acquire)) return;
      // An index past an already-found smaller hit cannot improve the
      // minimum; skip it (pure speculation saved, result unchanged).
      if (i >= b.found.load(std::memory_order_acquire)) continue;
      bool hit;
      try {
        hit = (*b.body)(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> l(b.err_mu);
          if (i < b.error_index) {
            b.error_index = i;
            b.error = std::current_exception();
          }
        }
        b.stop.store(true, std::memory_order_release);
        return;
      }
      if (hit) {
        std::size_t cur = b.found.load(std::memory_order_acquire);
        while (i < cur &&
               !b.found.compare_exchange_weak(cur, i, std::memory_order_acq_rel)) {
        }
      }
    }
    if (by_slot) return;
  }
}

std::size_t job_executor::run_find(std::size_t count, std::size_t chunk,
                                   const std::function<bool(std::size_t)>& body) {
  if (count == 0) return npos;

  if (jobs_ == 1 || count == 1) {
    // Inline sequential execution: exact historical loop semantics — first
    // exception propagates immediately, first hit stops the scan.
    for (std::size_t i = 0; i < count; ++i) {
      if (body(i)) return i;
    }
    return npos;
  }

  batch b;
  b.body = &body;
  b.count = count;
  b.chunk = chunk;
  current_ = &b;
  pending_.store(static_cast<unsigned>(workers_.size()));
  generation_.fetch_add(1);
  wake(wake_cv_, wake_sleepers_);
  work_on(b, 0);  // the calling thread is slot 0
  await(done_cv_, done_sleepers_, [this] { return pending_.load() == 0; });
  if (b.error) std::rethrow_exception(b.error);
  return b.found.load(std::memory_order_acquire);
}

}  // namespace adx::exec
