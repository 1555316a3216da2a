#include "sim/sharded_event_queue.hpp"

#include <algorithm>
#include <tuple>

namespace adx::sim {

// Inline into run_budgeted, its one caller: in sparse runs, where a window
// holds only a few events, any per-window call is paid on nearly every event.
inline std::uint64_t sharded_event_queue::window(exec::job_executor* ex, vtime tmin) {
  // Events with timestamp < tmin + lookahead are safe: any cross-shard
  // influence generated inside the window lands at >= sender_now + lookahead
  // >= tmin + lookahead, past the horizon. run_until is inclusive, so the
  // bound is horizon - 1ns (lookahead >= 1ns is enforced at construction).
  const vtime until{(tmin + lookahead_).ns - 1};
  std::uint64_t ran = 0;
  if (ex != nullptr) {
    // Slot w always runs shards w, w + J, w + 2J, ... on the same host
    // thread, so each shard's heap, slab and machine state stay in one
    // core's cache from window to window. The slot also summarizes its
    // shards for the next window while their lines are still its own.
    const std::size_t stride = slots_.size();
    ex->for_each_slot([&](unsigned slot) {
      slot_record r;
      for (std::size_t i = slot; i < shards_.size(); i += stride) {
        shard& s = shards_[i];
        r.ran += s.q.run_until(until);
        if (!s.q.empty()) r.next.fold(s.q.next_at());
        r.sent = r.sent || !s.outbox.empty();
      }
      slots_[slot] = r;
    });
    for (const auto& r : slots_) ran += r.ran;
  } else {
    for (auto& s : shards_) ran += s.q.run_until(until);
  }
  ++windows_;
  return ran;
}

sharded_event_queue::frontier sharded_event_queue::scan() {
  // Outboxes are merged before the window runs, so the shard heaps hold the
  // whole pending set. For sends emitted inside a window this is the same
  // barrier as flushing at window end; doing it here additionally covers
  // sends issued from outside any event (before the first window runs).
  frontier f;
  bool sent = false;
  for (const auto& s : shards_) {
    if (!s.q.empty()) f.fold(s.q.next_at());
    sent = sent || !s.outbox.empty();
  }
  if (sent) f.fold(merge_outboxes());
  return f;
}

sharded_event_queue::frontier sharded_event_queue::reduce() {
  // Between windows nothing but the merge adds events, so the slots' minima
  // and the earliest delivery bound the pending set exactly as scan() would.
  frontier f;
  bool sent = false;
  for (const auto& r : slots_) {
    if (r.next.any) f.fold(r.next.tmin);
    sent = sent || r.sent;
  }
  if (sent) f.fold(merge_outboxes());
  return f;
}

vtime sharded_event_queue::merge_outboxes() {
  // Merge every outbox in ascending (at, origin) order — a total order as
  // long as origins are unique per delivery, and independent of both the
  // worker schedule (outboxes are complete at the barrier) and the shard
  // count (the key never mentions a shard index). Even duplicate-origin ties
  // are deterministic for a fixed shard count: they keep their order in the
  // concatenation of the outboxes, which run in shard order and each in
  // emission order. Sorting small keys in place, with that index as the last
  // key, gives the stable order without a stable sort's temporary buffer,
  // and the callbacks move only once, straight into their target heaps.
  for (std::uint64_t sh = 0; sh < shards_.size(); ++sh) {
    const auto& out = shards_[sh].outbox;
    for (std::uint64_t i = 0; i < out.size(); ++i) {
      merged_.push_back({out[i].at, out[i].origin, sh << 32 | i});
    }
  }
  std::sort(merged_.begin(), merged_.end(), [](const merge_key& a, const merge_key& b) {
    return std::tie(a.at, a.origin, a.source) < std::tie(b.at, b.origin, b.source);
  });
  for (const auto& k : merged_) {
    auto& p = shards_[k.source >> 32].outbox[k.source & 0xFFFF'FFFFU];
    shards_[p.to].q.schedule_at(p.at, std::move(p.fn));
  }
  for (auto& s : shards_) s.outbox.clear();
  const vtime first = merged_.front().at;
  cross_sends_ += merged_.size();
  merged_.clear();
  return first;
}

std::uint64_t sharded_event_queue::run_budgeted(exec::job_executor* ex,
                                               std::uint64_t max_events) {
  // A single shard has no concurrency to exploit; skip the fan-out so the
  // degenerate case stays the plain sequential loop.
  exec::job_executor* driver =
      ex != nullptr && shards_.size() > 1 && ex->jobs() > 1 ? ex : nullptr;
  if (driver != nullptr) slots_.resize(driver->jobs());
  std::uint64_t ran = 0;
  for (bool first = true; ran < max_events; first = false) {
    const frontier f = driver != nullptr && !first ? reduce() : scan();
    if (!f.any) break;
    ran += window(driver, f.tmin);
  }
  return ran;
}

std::uint64_t sharded_event_queue::run(exec::job_executor& ex) {
  return run_budgeted(&ex, ~0ULL);
}

std::uint64_t sharded_event_queue::run() { return run_budgeted(nullptr, ~0ULL); }

}  // namespace adx::sim
