#include "sim/sharded_event_queue.hpp"

#include <algorithm>
#include <iterator>

namespace adx::sim {

// Inline into run_budgeted, its one caller: in sparse runs, where a window
// holds only a few events, any per-window call is paid on nearly every event.
inline std::uint64_t sharded_event_queue::window(exec::job_executor* ex) {
  // Drain outboxes first so the shard heaps are the whole pending set. For
  // sends emitted inside a window this is the same barrier as flushing at
  // window end; doing it here additionally covers sends issued from outside
  // any event (before the first window runs).
  deliver_outboxes();

  // The global minimum pending timestamp.
  bool any = false;
  vtime tmin{};
  for (const auto& s : shards_) {
    if (s.q.empty()) continue;
    if (!any || s.q.next_at() < tmin) tmin = s.q.next_at();
    any = true;
  }
  if (!any) return 0;

  // Events with timestamp < tmin + lookahead are safe: any cross-shard
  // influence generated inside the window lands at >= sender_now + lookahead
  // >= tmin + lookahead, past the horizon. run_until is inclusive, so the
  // bound is horizon - 1ns (lookahead >= 1ns is enforced at construction).
  const vtime until{(tmin + lookahead_).ns - 1};
  std::uint64_t ran = 0;
  if (ex != nullptr) {
    // Slot w always runs shards w, w + J, w + 2J, ... on the same host
    // thread, so each shard's heap, slab and machine state stay in one
    // core's cache from window to window.
    const std::size_t stride = slot_ran_.size();
    ex->for_each_slot([&](unsigned slot) {
      std::uint64_t n = 0;
      for (std::size_t i = slot; i < shards_.size(); i += stride) {
        n += shards_[i].q.run_until(until);
      }
      slot_ran_[slot].n = n;
    });
    for (const auto& r : slot_ran_) ran += r.n;
  } else {
    for (auto& s : shards_) ran += s.q.run_until(until);
  }
  ++windows_;
  return ran;
}

void sharded_event_queue::deliver_outboxes() {
  // Most windows send nothing: keep that check small enough to inline.
  for (const auto& s : shards_) {
    if (!s.outbox.empty()) return merge_outboxes();
  }
}

void sharded_event_queue::merge_outboxes() {
  // Merge every outbox in ascending (at, origin) order — a total order as
  // long as origins are unique per delivery, and independent of both the
  // worker schedule (outboxes are complete at the barrier) and the shard
  // count (the key never mentions a shard index). The stable sort makes even
  // duplicate-origin ties deterministic for a fixed shard count: outboxes
  // are concatenated in shard order and each one is in emission order.
  for (auto& s : shards_) {
    std::move(s.outbox.begin(), s.outbox.end(), std::back_inserter(merged_));
    s.outbox.clear();
  }
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const pending_send& a, const pending_send& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.origin < b.origin;
                   });
  for (auto& p : merged_) shards_[p.to].q.schedule_at(p.at, std::move(p.fn));
  cross_sends_ += merged_.size();
  merged_.clear();
}

std::uint64_t sharded_event_queue::run_budgeted(exec::job_executor* ex,
                                               std::uint64_t max_events) {
  // A single shard has no concurrency to exploit; skip the fan-out so the
  // degenerate case stays the plain sequential loop.
  exec::job_executor* driver =
      ex != nullptr && shards_.size() > 1 && ex->jobs() > 1 ? ex : nullptr;
  if (driver != nullptr) slot_ran_.resize(driver->jobs());
  std::uint64_t ran = 0;
  while (ran < max_events) {
    const std::uint64_t n = window(driver);
    if (n == 0) break;
    ran += n;
  }
  return ran;
}

std::uint64_t sharded_event_queue::run(exec::job_executor& ex) {
  return run_budgeted(&ex, ~0ULL);
}

std::uint64_t sharded_event_queue::run() { return run_budgeted(nullptr, ~0ULL); }

}  // namespace adx::sim
