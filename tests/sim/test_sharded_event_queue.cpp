#include "sim/sharded_event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/job_executor.hpp"
#include "sim/event_queue.hpp"

namespace adx::sim {
namespace {

TEST(ShardedEventQueue, RejectsZeroShards) {
  EXPECT_THROW(sharded_event_queue(0, microseconds(10)), std::invalid_argument);
}

TEST(ShardedEventQueue, RejectsNonPositiveLookahead) {
  EXPECT_THROW(sharded_event_queue(4, vdur{0}), std::invalid_argument);
  EXPECT_THROW(sharded_event_queue(4, vdur{-5}), std::invalid_argument);
}

TEST(ShardedEventQueue, StartsEmpty) {
  sharded_event_queue q(4, microseconds(10));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(q.windows(), 0u);
  EXPECT_EQ(q.processed(), 0u);
}

TEST(ShardedEventQueue, SendValidatesTargetShard) {
  sharded_event_queue q(2, microseconds(10));
  EXPECT_THROW(q.send(0, 5, vtime{100'000}, 0, [] {}), std::out_of_range);
}

TEST(ShardedEventQueue, SendInsideHorizonThrows) {
  sharded_event_queue q(2, vdur{1000});
  // Source shard sits at time 0; anything before 0 + lookahead is a
  // causality hazard the conservative protocol must reject.
  EXPECT_THROW(q.send(0, 1, vtime{999}, 0, [] {}), std::logic_error);
}

TEST(ShardedEventQueue, SendExactlyAtHorizonIsAllowed) {
  sharded_event_queue q(2, vdur{1000});
  bool ran = false;
  q.send(0, 1, vtime{1000}, 0, [&] { ran = true; });
  q.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.cross_sends(), 1u);
}

TEST(ShardedEventQueue, TiesWithinShardKeepFifoOrder) {
  sharded_event_queue q(1, microseconds(10));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(0, vtime{100}, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardedEventQueue, NowIsMaxOverShards) {
  sharded_event_queue q(2, microseconds(10));
  q.schedule_at(0, vtime{300}, [] {});
  q.schedule_at(1, vtime{7000}, [] {});
  q.run();
  EXPECT_EQ(q.now(0).ns, 300u);
  EXPECT_EQ(q.now(1).ns, 7000u);
  EXPECT_EQ(q.now().ns, 7000u);
}

// --- Stress: the sharded queue vs a plain sequential event_queue. ---------
//
// The program: kStreams independent event chains that occasionally fire
// cross-stream messages. Stream s's own events live on timestamps ≡ s
// (mod kStreams) and message transit is a multiple of kStreams, so a
// delivery keeps its *sender's* residue class: it can never tie with the
// receiver's local events, and same-timestamp deliveries can only come from
// one sender (whose origin counter orders them by program order in both
// executions). The per-stream traces are therefore a total observable —
// byte-identical between the plain reference queue and the sharded queue at
// every shard count and worker count.
//
// The program builds in three shapes the parallel window's slot-local
// bookkeeping must get right: (1) every stream sends one message from setup
// code, before the first window; (2) halfway through its chain every stream
// messages its neighbour, whose shard another executor slot owns; (3) it
// then falls quiet until kQuietEnd, so the last stream's message is earlier
// than every event pending in any shard, and the next window must start at
// a delivery merged at the barrier, not at a shard's head.

constexpr unsigned kStreams = 8;
constexpr std::uint64_t kResidue = kStreams;
constexpr vdur kLookahead{kResidue * 50};  // multiple of the residue modulus
/// Where the quiet streams resume: past every earlier event, ≡ 0 mod kResidue.
constexpr std::uint64_t kQuietEnd = kResidue * 1'000'000;

struct rec {
  std::uint64_t at;
  unsigned origin;  ///< stream whose clock produced the timestamp
  bool delivered;   ///< true for a cross-stream message delivery
  bool operator==(const rec&) const = default;
};

struct run_result {
  std::array<std::vector<rec>, kStreams> trace;
  std::uint64_t processed{0};
  std::uint64_t windows{0};
  std::uint64_t cross_sends{0};
  std::vector<std::uint64_t> shard_clocks;  ///< now(shard).ns after the run
};

class driver {
 public:
  // shard_count == 0 runs the reference model: every stream on one plain
  // event_queue, messages scheduled directly at their delivery time.
  driver(unsigned shard_count, unsigned events_per_stream) : shards_(shard_count) {
    if (shards_ > 0) shq_ = std::make_unique<sharded_event_queue>(shards_, kLookahead);
    for (unsigned s = 0; s < kStreams; ++s) {
      st_[s].x = 0x9E3779B97F4A7C15ULL * (s + 1);
      st_[s].remaining = events_per_stream;
      st_[s].quiet_at = events_per_stream / 2;
      schedule_local(s, vtime{s});
    }
    // Setup sends: issued before the first window, each to a stream two away.
    for (unsigned s = 0; s < kStreams; ++s) {
      send(s, (s + 2) % kStreams, vtime{s + static_cast<std::uint64_t>(kLookahead.ns) * 3});
    }
  }

  run_result run(exec::job_executor* ex = nullptr) {
    if (shards_ == 0) {
      out_.processed = ref_.run();
    } else {
      out_.processed = ex ? shq_->run(*ex) : shq_->run();
      out_.windows = shq_->windows();
      out_.cross_sends = shq_->cross_sends();
      for (unsigned sh = 0; sh < shards_; ++sh) out_.shard_clocks.push_back(shq_->now(sh).ns);
    }
    return std::move(out_);
  }

 private:
  struct stream_state {
    std::uint64_t x{0};
    unsigned remaining{0};
    unsigned quiet_at{0};  ///< `remaining` at which the stream falls quiet
    std::uint64_t origin_counter{0};
  };

  [[nodiscard]] unsigned shard_of(unsigned s) const { return shards_ ? s % shards_ : 0; }

  std::uint64_t rnd(unsigned s, std::uint64_t mod) {
    auto& x = st_[s].x;
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % mod;
  }

  void schedule_local(unsigned s, vtime at) {
    const auto fn = [this, s, at] { local_event(s, at); };
    if (shards_) {
      shq_->schedule_at(shard_of(s), at, fn);
    } else {
      ref_.schedule_at(at, fn);
    }
  }

  /// Stream s messages stream u, delivering at `at`.
  void send(unsigned s, unsigned u, vtime at) {
    const auto fn = [this, u, s, at] { out_.trace[u].push_back({at.ns, s, true}); };
    if (shards_) {
      const auto origin = (static_cast<std::uint64_t>(s) << 32) | st_[s].origin_counter++;
      shq_->send(shard_of(s), shard_of(u), at, origin, fn);
    } else {
      ref_.schedule_at(at, fn);
    }
  }

  void local_event(unsigned s, vtime t) {
    out_.trace[s].push_back({t.ns, s, false});
    if (--st_[s].remaining == 0) return;
    if (st_[s].remaining == st_[s].quiet_at) {
      send(s, (s + 1) % kStreams, t + kLookahead);
      schedule_local(s, vtime{kQuietEnd + s});
      return;
    }
    if (rnd(s, 4) == 0) {
      const auto u = static_cast<unsigned>((s + 1 + rnd(s, kStreams - 1)) % kStreams);
      // extra == 0 lands the message at exactly the lookahead horizon — the
      // boundary case the conservative window must still order correctly.
      const std::uint64_t extra = rnd(s, 3) * kResidue;
      send(s, u, vtime{t.ns + static_cast<std::uint64_t>(kLookahead.ns) + extra});
    }
    schedule_local(s, vtime{t.ns + kResidue * (1 + rnd(s, 25))});
  }

  unsigned shards_;
  event_queue ref_;
  std::unique_ptr<sharded_event_queue> shq_;
  std::array<stream_state, kStreams> st_;
  run_result out_;
};

TEST(ShardedEventQueue, StressMatchesSequentialReferenceAtEveryShardCount) {
  constexpr unsigned kEvents = 400;
  const auto ref = driver(0, kEvents).run();
  std::uint64_t deliveries = 0;
  for (const auto& t : ref.trace) {
    for (const auto& r : t) deliveries += r.delivered ? 1 : 0;
  }
  ASSERT_EQ(ref.processed, kStreams * kEvents + deliveries);

  std::uint64_t windows = 0, sends = 0;
  for (const unsigned shards : {1u, 2u, 3u, 5u, 8u}) {
    const auto got = driver(shards, kEvents).run();
    EXPECT_EQ(got.processed, ref.processed) << "shards=" << shards;
    for (unsigned s = 0; s < kStreams; ++s) {
      EXPECT_EQ(got.trace[s], ref.trace[s]) << "shards=" << shards << " stream=" << s;
    }
    // Window and barrier-delivery counts are pure functions of the global
    // pending set, so they too are shard-count invariants.
    if (windows == 0) {
      windows = got.windows;
      sends = got.cross_sends;
      EXPECT_GT(sends, 0u);
    } else {
      EXPECT_EQ(got.windows, windows) << "shards=" << shards;
      EXPECT_EQ(got.cross_sends, sends) << "shards=" << shards;
    }
  }
}

TEST(ShardedEventQueue, ParallelExecutionMatchesSequential) {
  // Every worker count on 8 shards: 3 does not divide the shard count (slots
  // own 3, 3 and 2 shards) and 8 gives each slot one shard (and, on hosts
  // with fewer cores, drives the executor's waits past the spin budget into
  // parking).
  constexpr unsigned kEvents = 300;
  const auto seq = driver(8, kEvents).run();
  for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
    exec::job_executor ex(jobs);
    const auto par = driver(8, kEvents).run(&ex);
    EXPECT_EQ(par.processed, seq.processed) << "jobs=" << jobs;
    EXPECT_EQ(par.windows, seq.windows) << "jobs=" << jobs;
    EXPECT_EQ(par.cross_sends, seq.cross_sends) << "jobs=" << jobs;
    EXPECT_EQ(par.shard_clocks, seq.shard_clocks) << "jobs=" << jobs;
    for (unsigned s = 0; s < kStreams; ++s) {
      EXPECT_EQ(par.trace[s], seq.trace[s]) << "jobs=" << jobs << " stream=" << s;
    }
  }
}

TEST(ShardedEventQueue, BarrierMergeMatchesStableSortWithTiesAndDuplicateOrigins) {
  // Random outboxes drawn from 4 timestamps and 5 origins, so both keys tie
  // constantly. The barrier must deliver them in exactly the order a stable
  // sort by (at, origin) gives the shard-order concatenation of the
  // outboxes; each target shard runs its same-timestamp deliveries in
  // delivery order, so its log shows that order.
  constexpr unsigned kShards = 5;
  constexpr vdur kHorizon{100};
  struct sent {
    vtime at;
    std::uint64_t origin;
    unsigned to;
    unsigned id;
  };
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  const auto rnd = [&x](std::uint64_t mod) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % mod;
  };
  for (int trial = 0; trial < 20; ++trial) {
    for (const unsigned jobs : {1u, 3u}) {
      sharded_event_queue q(kShards, kHorizon);
      std::array<std::vector<sent>, kShards> outbox;
      std::array<std::vector<unsigned>, kShards> log;
      const auto n = static_cast<unsigned>(1 + rnd(120));
      for (unsigned id = 0; id < n; ++id) {
        const auto from = static_cast<unsigned>(rnd(kShards));
        const sent m{vtime{static_cast<std::uint64_t>(kHorizon.ns) + 10 * rnd(4)}, rnd(5),
                     static_cast<unsigned>(rnd(kShards)), id};
        outbox[from].push_back(m);
        q.send(from, m.to, m.at, m.origin, [&log, m] { log[m.to].push_back(m.id); });
      }
      std::vector<sent> order;
      for (const auto& out : outbox) order.insert(order.end(), out.begin(), out.end());
      std::stable_sort(order.begin(), order.end(), [](const sent& a, const sent& b) {
        return a.at != b.at ? a.at < b.at : a.origin < b.origin;
      });
      std::array<std::vector<unsigned>, kShards> want;
      for (const auto& m : order) want[m.to].push_back(m.id);
      exec::job_executor ex(jobs);
      EXPECT_EQ(q.run(ex), n);
      EXPECT_EQ(q.cross_sends(), n);
      EXPECT_EQ(log, want) << "trial " << trial << " jobs=" << jobs;
    }
  }
}

TEST(ShardedEventQueue, ThrowOnAPoolThreadShardReachesTheCaller) {
  // 8 shards on 4 workers: shard 5 belongs to slot 1, a pool thread.
  sharded_event_queue q(8, vdur{1000});
  exec::job_executor ex(4);
  for (unsigned sh = 0; sh < q.shards(); ++sh) {
    q.schedule_at(sh, vtime{10 * sh}, [] {});
  }
  q.schedule_at(5, vtime{2500}, [] { throw std::runtime_error("shard 5 failed"); });
  try {
    q.run(ex);
    FAIL() << "expected the shard's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 5 failed");
  }
}

}  // namespace
}  // namespace adx::sim
