// Invariant oracles over a simulated run.
//
// A `monitor` subscribes to every watched lock's event stream (through
// locks::lock_event_observer) and to the runtime's scheduling transitions
// (through ct::runtime_observer) and checks, online, the safety and liveness
// properties the thread package promises:
//
//   mutual-exclusion   — never two concurrent owners; releases only by the
//                        owner; no lost updates (witnessed by the fixtures);
//   lost-wakeup        — no thread stays blocked while the lock it waits for
//                        sits free past a bound with no intervening grant;
//   deadlock           — no cycle in the wait-for graph at quiescence;
//   starvation         — no waiter is overtaken more than a bound of times
//                        between requesting the lock and acquiring it;
//   reconfig-atomicity — no lock operation observes a half-applied Ψ
//                        transition, and no scheduler transition is still
//                        pending at quiescence.
//
// All checks are host-side: attaching a monitor never charges virtual time,
// so a run behaves identically watched or unwatched.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ct/runtime.hpp"
#include "locks/lock.hpp"
#include "locks/observer.hpp"
#include "obs/tracer.hpp"

namespace adx::check {

struct oracle_params {
  /// Lost-wakeup bound: a waiter still blocked this long after a release,
  /// with the lock free and no grant in between, is a violation.
  sim::vdur lost_wakeup_bound = sim::milliseconds(20);
  /// Starvation bound: max grants to other threads between one thread's
  /// request and its acquisition. Generous by default so ordinary barging
  /// cannot trip it; tighten to probe fairness.
  std::uint64_t max_overtakes = 4096;
};

struct violation {
  std::string oracle;  ///< which invariant ("mutual-exclusion", ...)
  std::string lock;    ///< watched-lock name
  ct::thread_id thread{ct::invalid_thread};
  sim::vtime at{};
  std::string detail;
};

[[nodiscard]] std::string to_string(const violation& v);

/// Severity rank of an oracle name, higher = worse. The sweep's "worst
/// oracle" column reports the maximum over a cell:
///   mutual-exclusion > deadlock > livelock > lost-wakeup > starvation >
///   reconfig-atomicity > anything unknown.
[[nodiscard]] int oracle_severity(std::string_view oracle);

/// The more severe of two oracle names (first wins ties).
[[nodiscard]] std::string_view worse_oracle(std::string_view a, std::string_view b);

class monitor final : public locks::lock_event_observer, public ct::runtime_observer {
 public:
  explicit monitor(ct::runtime& rt, oracle_params params = {});
  ~monitor() override;
  monitor(const monitor&) = delete;
  monitor& operator=(const monitor&) = delete;

  /// Registers `lk` for checking; `name` labels its violations. A watched
  /// lock must outlive the monitor: ~monitor detaches itself from every
  /// watched lock, so declare the monitor after the locks it watches.
  void watch(locks::lock_object& lk, std::string name);

  /// Post-run analysis: wait-for-graph deadlock detection, quiescent
  /// lost-wakeup detection, pending-transition check. Call after run().
  void finish(const ct::runtime::run_result& r);

  /// Adds a violation found outside the lock-event oracles (e.g. a fixture's
  /// lost-update witness).
  void add_violation(violation v);

  [[nodiscard]] const std::vector<violation>& violations() const { return violations_; }

  /// Mirrors every violation as a "check.violation" instant (not owned).
  void attach_tracer(obs::tracer* t) { tracer_ = t; }

  // ------- locks::lock_event_observer -------
  void on_acquired(locks::lock_object& lk, sim::vtime at, sim::vdur waited,
                   std::uint32_t tid) override;
  void on_release(locks::lock_object& lk, sim::vtime at, std::uint32_t tid) override;
  void on_contended(locks::lock_object& lk, sim::vtime at, std::uint32_t tid) override;
  void on_block(locks::lock_object& lk, sim::vtime at, std::uint32_t tid) override;
  void on_psi_begin(locks::lock_object& lk, sim::vtime at) override;
  void on_psi_end(locks::lock_object& lk, sim::vtime at) override;

  // ------- ct::runtime_observer -------
  void on_unblock(ct::thread_id t, sim::vtime at) override;
  void on_ready(ct::thread_id t, sim::vtime at) override;

 private:
  struct lock_state {
    locks::lock_object* lk{nullptr};
    std::string name;
    ct::thread_id oracle_owner{ct::invalid_thread};
    std::uint64_t grants{0};
    std::set<ct::thread_id> blocked;
    /// Per-thread grant count at the moment contention started (fairness).
    std::unordered_map<ct::thread_id, std::uint64_t> wait_started;
    bool in_psi{false};
    /// Set when a release left threads blocked: (release time, grants then).
    struct release_mark {
      sim::vtime at{};
      std::uint64_t grants{0};
    };
    std::optional<release_mark> pending;
  };

  lock_state& state_of(locks::lock_object& lk);
  void report(std::string oracle, const lock_state& s, ct::thread_id tid,
              sim::vtime at, std::string detail);
  void check_psi(lock_state& s, const char* op, ct::thread_id tid, sim::vtime at);
  /// Lazy lost-wakeup scan, run on every observed event.
  void scan_pending(sim::vtime now);

  ct::runtime& rt_;
  oracle_params params_;
  std::vector<lock_state*> order_;  ///< watch order, for stable reports
  std::unordered_map<const locks::lock_object*, lock_state> locks_;
  std::vector<violation> violations_;
  obs::tracer* tracer_{nullptr};
};

}  // namespace adx::check
