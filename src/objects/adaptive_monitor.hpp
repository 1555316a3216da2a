// adaptive_monitor — a monitor/condition-variable wrapper whose *execution
// mode* is a Ψ-reconfigurable attribute (§3 beyond locks; delegated mode
// follows the ActiveMonitor idea of executing critical sections on the
// current holder instead of handing the lock over).
//
// Modes (the "execution-mode" attribute):
//   0 classic    entry acquires the monitor lock, runs the section, exits —
//                the ordinary blocking monitor.
//   1 delegated  if another thread currently holds the monitor, the caller
//                publishes its section as a request record and blocks; the
//                holder drains the queue before releasing, executing
//                sections inline, and wakes each requester. Otherwise the
//                caller takes the lock and becomes the combiner itself.
//                Contended sections skip a full lock handoff + wake cycle
//                per entry this way.
//
// Mode mixing is safe by construction: a combiner IS a lock holder, so
// classic entries serialize against delegated execution through the same
// entry lock. The Ψ flip is a single attribute write with no structural
// state to migrate; every release path drains the request queue
// unconditionally, so a flip back to classic strands no requester.
//
// Liveness of the delegated path rests on a release-epoch protocol:
// `releasing_by_` names the holder that has begun its release drain. A
// caller publishes only when the lock has an owner that is NOT in its
// release epoch — such a holder is guaranteed to run drain_pending()
// before the lock can go free, so every published request is executed.
// Once the holder marks its epoch, later arrivals fall back to the entry
// lock (whoever acquires it next drains them at its own release). The
// owner read, the enqueue and the block share one await-free window, so
// the combiner can never observe a request before its requester is
// blocked; the combiner sets `done` before the wake, and the requester
// re-blocks on spurious wakes until `done`.
//
// The condition-variable surface (wait/signal/broadcast between explicit
// enter()/exit()) always uses classic entry: a delegated closure cannot
// suspend, so waiting sections must own the lock themselves.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "core/adaptive.hpp"
#include "ct/context.hpp"
#include "ct/task.hpp"
#include "locks/condition.hpp"
#include "locks/factory.hpp"
#include "objects/object_policy.hpp"
#include "policy/registry.hpp"
#include "policy/sensor_host.hpp"

namespace adx::objects {

struct monitor_config {
  /// Entry lock kind; blocking gives classic monitor semantics, adaptive
  /// lets the entry lock tune its waiting policy underneath the mode Ψ.
  locks::lock_kind lock = locks::lock_kind::blocking;
  locks::lock_params lock_params{};
  locks::lock_cost_model cost = locks::lock_cost_model::butterfly_cthreads();
  sim::node_id home = 0;
  /// 0 classic, 1 delegated.
  std::int64_t initial_mode = 0;
  /// False freezes the mode (the fixed columns in bench_monitor_delegation).
  bool adaptive = true;
  /// Mode policy; empty sensors/params mean default_monitor_spec().
  policy::policy_spec spec = default_monitor_spec();
};

class adaptive_monitor final : public core::adaptive_object,
                               public policy::sensor_host,
                               public policy::mode_controller {
 public:
  static constexpr std::int64_t kClassic = 0;
  static constexpr std::int64_t kDelegated = 1;

  explicit adaptive_monitor(const monitor_config& cfg);

  /// Executes one monitor section: `work` of charged compute plus the host
  /// mutation `fn` (plain code, no awaits), `touches` charged writes of
  /// section data at the monitor's home. Classic mode enters the lock;
  /// delegated mode may instead hand the section to the current combiner.
  template <typename Fn>
  ct::task<void> execute(ct::context& ctx, sim::vdur work, Fn&& fn,
                         std::uint64_t touches = 1) {
    ++entries_;
    if (mode() == kDelegated) {
      // Publish the request record's traffic up front so the owner read +
      // enqueue + block below stay await-free (lost-wakeup safety).
      co_await ctx.touch(cfg_.home, sim::access_kind::write, 1);
      const auto holder = lock_->owner();
      if (holder != ct::invalid_thread && holder != releasing_by_) {
        // A holder outside its release epoch will drain this request
        // before the lock can go free. Publishing here — not only while a
        // combiner is mid-section — is what lets combining capture
        // arrivals that land in the handoff window; queueing on the lock
        // instead would cost a full handoff + wake cycle per section.
        pending_req req{ctx.self(), work, std::function<void()>(std::forward<Fn>(fn)),
                        touches, false};
        pending_.push_back(&req);
        ++delegated_;
        co_await ctx.block();
        while (!req.done) co_await ctx.block();
        co_await after_section(ctx);
        co_return;
      }
    }
    co_await lock_->lock(ctx);
    if (mode() == kDelegated) ++combines_;
    co_await run_section(ctx, work, touches);
    fn();
    co_await release(ctx);
    co_await after_section(ctx);
  }

  // ---------------------------------------------- classic monitor/CV surface

  /// Classic entry, for sections that use the condition variable. Always
  /// takes the lock (even in delegated mode — a combiner is just another
  /// holder to wait behind).
  ct::task<void> enter(ct::context& ctx);
  ct::task<void> exit(ct::context& ctx);
  /// Mesa-semantics wait on the monitor's condition; caller holds the
  /// monitor via enter(). Recheck your predicate in a loop.
  ct::task<void> wait(ct::context& ctx);
  ct::task<void> signal(ct::context& ctx);
  ct::task<void> broadcast(ct::context& ctx);

  // -------------------------------------------------------- mode_controller

  [[nodiscard]] std::int64_t current_mode() const override { return mode(); }
  void request_mode(std::int64_t m) override;

  // ------------------------------------------------------------ sensor_host

  [[nodiscard]] std::span<const std::string_view> sensor_names() const override;
  [[nodiscard]] core::sensor make_sensor(std::string_view name,
                                         std::uint64_t period) override;

  // ----------------------------------------------------------- introspection

  [[nodiscard]] std::int64_t mode() const { return attributes().value("execution-mode"); }
  [[nodiscard]] std::uint64_t entries() const { return entries_; }
  /// Sections executed by a combiner on behalf of other threads.
  [[nodiscard]] std::uint64_t delegated() const { return delegated_; }
  /// Combiner rounds (lock acquisitions in delegated mode).
  [[nodiscard]] std::uint64_t combines() const { return combines_; }
  [[nodiscard]] std::uint64_t mode_switches() const { return mode_switches_; }
  [[nodiscard]] std::int64_t last_section_us() const { return last_section_us_; }
  [[nodiscard]] locks::lock_object& entry_lock() { return *lock_; }
  [[nodiscard]] const locks::lock_object& entry_lock() const { return *lock_; }
  /// Requests queued for the combiner right now (host view, for oracles).
  [[nodiscard]] std::size_t pending_now() const { return pending_.size(); }

 private:
  struct pending_req {
    ct::thread_id tid;
    sim::vdur work;
    std::function<void()> fn;
    std::uint64_t touches;
    bool done;
  };

  /// Charges one section's cost and records its length for the sensors.
  ct::task<void> run_section(ct::context& ctx, sim::vdur work, std::uint64_t touches);
  /// Combiner drain: executes every queued request, waking each requester.
  ct::task<void> drain_pending(ct::context& ctx);
  /// Release protocol shared by execute()/exit(): mark the release epoch
  /// (stops further publications addressed to this holder), drain what was
  /// published, unlock. Unconditional on mode — a flip back to classic may
  /// leave requests pending.
  ct::task<void> release(ct::context& ctx);
  /// Post-section feedback: closely-coupled monitor/policy pump, charged.
  ct::task<void> after_section(ct::context& ctx);

  monitor_config cfg_;
  std::unique_ptr<locks::lock_object> lock_;
  locks::condition cv_;
  std::deque<pending_req*> pending_;
  ct::thread_id releasing_by_{ct::invalid_thread};
  std::uint64_t entries_{0};
  std::uint64_t delegated_{0};
  std::uint64_t combines_{0};
  std::uint64_t mode_switches_{0};
  std::int64_t last_section_us_{0};
  std::uint64_t entries_at_last_sample_{0};
};

}  // namespace adx::objects
