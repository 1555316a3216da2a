// Unit tests for the parallel executor: the determinism contract (results
// collected by index, identical for any worker count), the find_first
// ordering guarantees, exception propagation, the spin-then-park barrier
// (no lost wake-ups on either side, parking adapted to the observed waits,
// its counters) and for_each_slot's thread affinity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/job_executor.hpp"

namespace adx::exec {
namespace {

TEST(JobExecutor, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(default_jobs(), 1u);
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_EQ(resolve_jobs(1u << 20), 512u) << "worker count must be clamped";
}

TEST(JobExecutor, ReportsItsWorkerCount) {
  job_executor one(1);
  EXPECT_EQ(one.jobs(), 1u);
  job_executor four(4);
  EXPECT_EQ(four.jobs(), 4u);
  job_executor dflt(0);
  EXPECT_EQ(dflt.jobs(), default_jobs());
}

TEST(JobExecutor, MapCollectsByIndexForAnyWorkerCount) {
  const std::size_t n = 103;  // deliberately not a multiple of any chunk
  std::vector<std::size_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) expect[i] = i * i;
  for (const unsigned jobs : {1u, 2u, 5u}) {
    job_executor ex(jobs);
    const auto out = ex.map(n, [](std::size_t i) { return i * i; });
    EXPECT_EQ(out, expect) << "jobs=" << jobs;
  }
}

TEST(JobExecutor, MapHandlesNonTrivialResultTypes) {
  job_executor ex(3);
  const auto out =
      ex.map(20, [](std::size_t i) { return std::string(i, 'x'); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::string(i, 'x'));
  }
}

TEST(JobExecutor, ForEachVisitsEveryIndexExactlyOnce) {
  const std::size_t n = 257;
  for (const unsigned jobs : {1u, 4u}) {
    std::vector<std::atomic<int>> visits(n);
    job_executor ex(jobs);
    ex.for_each(n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(JobExecutor, ChunkSizeNeverChangesResults) {
  const std::size_t n = 37;
  std::vector<std::size_t> expect(n);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  job_executor ex(4);
  // chunk > count, chunk == count, count % chunk != 0, chunk == 1.
  for (const std::size_t chunk : {std::size_t{100}, n, std::size_t{5}, std::size_t{1}}) {
    const auto out = ex.map(n, [](std::size_t i) { return i; }, chunk);
    EXPECT_EQ(out, expect) << "chunk=" << chunk;
  }
}

TEST(JobExecutor, EmptyAndSingletonBatches) {
  for (const unsigned jobs : {1u, 4u}) {
    job_executor ex(jobs);
    EXPECT_TRUE(ex.map(0, [](std::size_t) { return 1; }).empty());
    EXPECT_EQ(ex.find_first(0, [](std::size_t) { return true; }),
              job_executor::npos);
    const auto one = ex.map(1, [](std::size_t i) { return i + 41; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 41u);
  }
}

TEST(JobExecutor, ExecutorIsReusableAcrossBatches) {
  job_executor ex(3);
  for (int round = 0; round < 5; ++round) {
    const auto out = ex.map(round * 10 + 1,
                            [round](std::size_t i) { return i + static_cast<std::size_t>(round); });
    ASSERT_EQ(out.size(), static_cast<std::size_t>(round * 10 + 1));
    EXPECT_EQ(out.back(), out.size() - 1 + static_cast<std::size_t>(round));
  }
}

TEST(JobExecutor, FindFirstReturnsSmallestHitForAnyWorkerCount) {
  for (const unsigned jobs : {1u, 2u, 6u}) {
    job_executor ex(jobs);
    EXPECT_EQ(ex.find_first(100, [](std::size_t i) { return i >= 37; }), 37u)
        << "jobs=" << jobs;
    EXPECT_EQ(ex.find_first(100, [](std::size_t i) { return i == 99; }), 99u)
        << "jobs=" << jobs;
    EXPECT_EQ(ex.find_first(100, [](std::size_t) { return false; }),
              job_executor::npos)
        << "jobs=" << jobs;
    EXPECT_EQ(ex.find_first(100, [](std::size_t) { return true; }), 0u)
        << "jobs=" << jobs;
  }
}

TEST(JobExecutor, SequentialFindFirstStopsAtTheFirstHit) {
  // With one worker the executor must behave exactly like a plain loop:
  // evaluate 0,1,...,hit and nothing beyond.
  job_executor ex(1);
  std::vector<std::size_t> evaluated;
  const auto hit = ex.find_first(50, [&](std::size_t i) {
    evaluated.push_back(i);
    return i == 7;
  });
  EXPECT_EQ(hit, 7u);
  EXPECT_EQ(evaluated, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(JobExecutor, ExceptionPropagatesWithItsMessage) {
  for (const unsigned jobs : {1u, 4u}) {
    job_executor ex(jobs);
    try {
      ex.for_each(64, [](std::size_t i) {
        if (i >= 5) throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected a throw (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).substr(0, 8), "boom at ");
    }
    // The executor survives a throwing batch.
    EXPECT_EQ(ex.find_first(10, [](std::size_t i) { return i == 4; }), 4u);
  }
}

TEST(JobExecutor, SequentialExceptionIsTheFirstThrow) {
  // One worker reproduces a plain loop: the lowest-indexed throw wins and
  // nothing after it runs.
  job_executor ex(1);
  std::size_t last = 0;
  try {
    ex.for_each(64, [&](std::size_t i) {
      last = i;
      if (i == 9) throw std::runtime_error("boom at 9");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 9");
  }
  EXPECT_EQ(last, 9u);
}

// --- The spin-then-park barrier. -------------------------------------------

/// Longer than the barrier's spin budget (about one park/wake round trip):
/// a waiter that sees no progress for this long has parked.
constexpr auto kPastSpinBudget = std::chrono::microseconds(200);

TEST(JobExecutor, BarrierLosesNoWakeUpsAcrossSpinAndPark) {
  // Thousands of tiny back-to-back batches, the spinning hand-off, mixed
  // with two kinds of gap past the spin budget: a pause between batches
  // (the pool workers park on the next-batch wait) and a slow job on a pool
  // thread (the caller parks on the batch-done wait). A lost wake-up hangs
  // the test; a double or missed run shows in the counts.
  job_executor ex(3);
  constexpr std::size_t kBatches = 3000;
  constexpr std::size_t kCount = 5;  // >= jobs(): slot batches fit too
  std::vector<std::atomic<int>> visits(kBatches * kCount);
  std::size_t expected = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (b % 97 == 0) std::this_thread::sleep_for(kPastSpinBudget);
    if (b % 89 == 0) {
      ex.for_each_slot([&, b](unsigned slot) {
        ++visits[b * kCount + slot];
        if (slot == 1) std::this_thread::sleep_for(kPastSpinBudget);
      });
      expected += ex.jobs();
    } else {
      ex.for_each(kCount, [&, b](std::size_t i) { ++visits[b * kCount + i]; });
      expected += kCount;
    }
  }
  std::size_t total = 0;
  for (std::size_t k = 0; k < visits.size(); ++k) {
    const bool slot_batch = (k / kCount) % 89 == 0;
    const int want = slot_batch && k % kCount >= ex.jobs() ? 0 : 1;
    ASSERT_EQ(visits[k].load(), want) << "batch " << k / kCount << " index " << k % kCount;
    total += static_cast<std::size_t>(visits[k].load());
  }
  EXPECT_EQ(total, expected);
}

TEST(JobExecutor, ThrowAfterAParkStillReachesTheCaller) {
  job_executor ex(4);
  for (int round = 0; round < 20; ++round) {
    // Let every pool worker run out its spin budget and park, so the batch
    // below starts by waking parked workers.
    std::this_thread::sleep_for(kPastSpinBudget);
    try {
      ex.for_each_slot([&](unsigned slot) {
        if (slot == 2) throw std::runtime_error("slot 2 after park");
      });
      FAIL() << "expected a throw (round " << round << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slot 2 after park");
    }
    // Reusable afterwards, on both the claiming and the per-slot path.
    std::vector<std::atomic<int>> visits(40);
    ex.for_each(visits.size(), [&](std::size_t i) { ++visits[i]; });
    for (const auto& v : visits) ASSERT_EQ(v.load(), 1);
    std::atomic<unsigned> slots{0};
    ex.for_each_slot([&](unsigned) { ++slots; });
    ASSERT_EQ(slots.load(), ex.jobs());
  }
}

// --- for_each_slot affinity and oversubscription. ---------------------------

TEST(JobExecutor, ForEachSlotPinsEverySlotToOneThread) {
  job_executor ex(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> first(ex.jobs());
  ex.for_each_slot([&](unsigned slot) { first[slot] = std::this_thread::get_id(); });
  EXPECT_EQ(first[0], caller);
  for (unsigned a = 0; a < ex.jobs(); ++a) {
    for (unsigned b = a + 1; b < ex.jobs(); ++b) {
      EXPECT_NE(first[a], first[b]) << "slots " << a << " and " << b << " share a thread";
    }
  }
  for (int call = 0; call < 2000; ++call) {
    if (call % 500 == 0) std::this_thread::sleep_for(kPastSpinBudget);
    std::vector<std::thread::id> seen(ex.jobs());
    ex.for_each_slot([&](unsigned slot) { seen[slot] = std::this_thread::get_id(); });
    ASSERT_EQ(seen, first) << "call " << call;
  }
}

TEST(JobExecutor, ForEachSlotWithOneJobRunsSlotZeroInline) {
  job_executor ex(1);
  std::vector<unsigned> slots;
  std::thread::id ran_on;
  ex.for_each_slot([&](unsigned slot) {
    slots.push_back(slot);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(slots, (std::vector<unsigned>{0}));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(JobExecutor, OversubscribedPoolParksAndStaysCorrect) {
  // More workers than host cores: spinners share cores with the threads
  // they wait for, so waits outlast the spin budget and the pool parks. Two
  // extra workers are enough to cross the line; on a very wide host that
  // would still mean many threads, so the test keeps to modest hosts.
  if (default_jobs() > 62) GTEST_SKIP() << "host has " << default_jobs() << " cores";
  job_executor ex(default_jobs() + 2);
  const std::size_t n = 3 * ex.jobs() + 1;
  for (int round = 0; round < 300; ++round) {
    std::vector<std::atomic<int>> visits(n);
    ex.for_each(n, [&](std::size_t i) { ++visits[i]; }, 1);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1) << "round " << round;
    std::vector<std::atomic<int>> slots(ex.jobs());
    ex.for_each_slot([&](unsigned slot) { ++slots[slot]; });
    for (const auto& s : slots) ASSERT_EQ(s.load(), 1) << "round " << round;
  }
  const auto out = ex.map(n, [](std::size_t i) { return i * 3; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * 3);
  const auto c = ex.counters();
  EXPECT_EQ(c.batches, 601u);
  EXPECT_GT(c.worker_parks + c.caller_parks, 0u);
}

// --- Adaptive spin vs park, and the barrier's counters. --------------------

/// Yields until `done()` holds; fails the test instead of hanging if it
/// never does.
template <typename Done>
void poll_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "condition never held";
      return;
    }
    std::this_thread::yield();
  }
}

/// One slot batch whose end the caller must park for: slot 1 holds it open
/// until the caller has parked, and then past the spin budget.
void long_caller_wait(job_executor& ex) {
  const auto parked = ex.counters().caller_parks;
  ex.for_each_slot([&](unsigned slot) {
    if (slot != 1) return;
    poll_until([&] { return ex.counters().caller_parks > parked; });
    std::this_thread::sleep_for(kPastSpinBudget);
  });
}

TEST(JobExecutor, CountersCountPublishedBatches) {
  job_executor one(1);
  one.for_each(10, [](std::size_t) {});
  EXPECT_EQ(one.counters().batches, 0u) << "jobs=1 runs inline";
  job_executor ex(3);
  ex.for_each(1, [](std::size_t) {});
  EXPECT_EQ(ex.counters().batches, 0u) << "a single job runs inline";
  ex.for_each(10, [](std::size_t) {});
  ex.for_each_slot([](unsigned) {});
  (void)ex.map(5, [](std::size_t i) { return i; });
  (void)ex.find_first(7, [](std::size_t i) { return i == 3; });
  EXPECT_EQ(ex.counters().batches, 4u);
}

TEST(JobExecutor, LongWaitsParkAndKeepTheNextWaitParked) {
  // Deterministic: each wait below is held open until its waiter has parked
  // (the counters say so) and then past the spin budget, so no schedule can
  // end it by spinning; each side parks exactly once per wait.
  job_executor ex(3);
  const std::uint64_t pool = ex.jobs() - 1;
  // No batch yet: the pool workers' first wait runs out and parks.
  poll_until([&] { return ex.counters().worker_parks == pool; });
  for (int round = 0; round < 5; ++round) {
    const auto before = ex.counters();
    long_caller_wait(ex);
    EXPECT_EQ(ex.counters().caller_parks, before.caller_parks + 1) << "round " << round;
    // The next batch waits until both pool workers have parked.
    poll_until([&] { return ex.counters().worker_parks == before.worker_parks + pool; });
    std::this_thread::sleep_for(kPastSpinBudget);
    EXPECT_EQ(ex.counters().worker_parks, before.worker_parks + pool) << "round " << round;
  }
  // After those long waits the caller parks at once, even on a batch whose
  // jobs return immediately.
  const auto before = ex.counters();
  ex.for_each_slot([](unsigned) {});
  EXPECT_EQ(ex.counters().caller_parks, before.caller_parks + 1);
  EXPECT_EQ(ex.counters().batches, before.batches + 1);
}

TEST(JobExecutor, ShortWaitsAfterLongOnesResumeSpinning) {
  job_executor ex(3);
  const unsigned pool = ex.jobs() - 1;
  for (int round = 0; round < 5; ++round) long_caller_wait(ex);
  ASSERT_EQ(ex.counters().caller_parks, 5u);
  // Then short ones: slot 0 (the caller) holds each batch until every pool
  // slot is done, so the caller's wait is only the pool threads leaving.
  // Parked waits that short bring the caller back to spinning.
  const auto short_batch = [&] {
    std::atomic<unsigned> done{0};
    ex.for_each_slot([&](unsigned slot) {
      if (slot != 0) {
        done.fetch_add(1);
        return;
      }
      while (done.load() != pool) std::this_thread::yield();
    });
  };
  for (int i = 0; i < 200; ++i) short_batch();
  const auto parked = ex.counters().caller_parks;
  for (int i = 0; i < 100; ++i) short_batch();
  EXPECT_LT(ex.counters().caller_parks - parked, 50u) << "the caller still parks every wait";
}

}  // namespace
}  // namespace adx::exec
