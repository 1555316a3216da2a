#include "sim/event_queue.hpp"

#include <atomic>
#include <chrono>

namespace adx::sim {
namespace {

// The only process-global in the simulator. Atomic because independent
// event_queue instances now pop concurrently on exec::job_executor workers;
// relaxed is enough — it is a debug knob set before runs start, and the hot
// path only needs a data-race-free load.
std::atomic<std::uint64_t> g_debug_pop_delay_ns{0};

void debug_pop_delay() {
  const auto ns = g_debug_pop_delay_ns.load(std::memory_order_relaxed);
  if (ns == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  const auto until = t0 + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

void event_queue::set_debug_pop_delay_ns(std::uint64_t ns) {
  g_debug_pop_delay_ns.store(ns, std::memory_order_relaxed);
}
std::uint64_t event_queue::debug_pop_delay_ns() {
  return g_debug_pop_delay_ns.load(std::memory_order_relaxed);
}

event_queue::~event_queue() {
  // Pending events still own their callbacks; run their destructors. The
  // freelist slots hold nothing.
  for (const auto& h : heap_) {
    auto& s = slot_at(h.slot);
    s.destroy(s);
  }
}

void event_queue::grow_slab() {
  const auto base = static_cast<std::uint32_t>(chunks_.size()) * kEventsPerChunk;
  chunks_.push_back(std::make_unique<event_slot[]>(kEventsPerChunk));
  auto* chunk = chunks_.back().get();
  for (std::uint32_t i = 0; i + 1 < kEventsPerChunk; ++i) {
    chunk[i].next_free = base + i + 1;
  }
  // Only called once the freelist is empty (free_head_ == kNoSlot).
  chunk[kEventsPerChunk - 1].next_free = kNoSlot;
  free_head_ = base;
}

std::size_t event_queue::slab_free() const {
  std::size_t n = 0;
  for (auto s = free_head_; s != kNoSlot;
       s = chunks_[s / kEventsPerChunk][s % kEventsPerChunk].next_free) {
    ++n;
  }
  return n;
}

bool event_queue::run_one() {
  if (heap_.empty()) return false;
  debug_pop_delay();
  const handle h = heap_pop_top();
  now_ = h.at;
  ++processed_;
  // Invoke in place: chunks are never moved or freed, so the callback's
  // address stays valid even if it schedules further events (which may grow
  // the slab or the heap). The guard destroys the callback and recycles the
  // slot even if the callback throws.
  struct slot_guard {
    event_queue* q;
    std::uint32_t slot;
    ~slot_guard() {
      auto& s = q->slot_at(slot);
      s.destroy(s);
      q->release_slot(slot);
    }
  } guard{this, h.slot};
  auto& s = slot_at(h.slot);
  s.invoke(s);
  return true;
}

std::uint64_t event_queue::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && run_one()) ++n;
  return n;
}

std::uint64_t event_queue::run_until(vtime until) {
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().at <= until && run_one()) ++n;
  return n;
}

std::uint64_t event_queue::run_until(vtime until, std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && !heap_.empty() && heap_.front().at <= until && run_one()) ++n;
  return n;
}

}  // namespace adx::sim
