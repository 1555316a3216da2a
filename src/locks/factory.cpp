#include "locks/factory.hpp"

#include <stdexcept>
#include <string>

#include "cli/parse_error.hpp"

#include "locks/advisory_lock.hpp"
#include "locks/backoff_lock.hpp"
#include "locks/blocking_lock.hpp"
#include "locks/combined_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/spin_lock.hpp"
#include "locks/tas_lock.hpp"
#include "locks/ticket_lock.hpp"

namespace adx::locks {

const char* to_string(lock_kind k) {
  switch (k) {
    case lock_kind::atomior: return "atomior";
    case lock_kind::spin: return "spin";
    case lock_kind::backoff: return "spin-with-backoff";
    case lock_kind::blocking: return "blocking";
    case lock_kind::combined: return "combined";
    case lock_kind::advisory: return "advisory";
    case lock_kind::ticket: return "ticket";
    case lock_kind::mcs: return "mcs";
    case lock_kind::reconfigurable: return "reconfigurable";
    case lock_kind::adaptive: return "adaptive";
  }
  return "?";
}

std::span<const lock_kind> all_lock_kinds() {
  static constexpr lock_kind kinds[] = {
      lock_kind::atomior,  lock_kind::spin,   lock_kind::backoff,
      lock_kind::blocking, lock_kind::combined, lock_kind::advisory,
      lock_kind::ticket,   lock_kind::mcs,    lock_kind::reconfigurable,
      lock_kind::adaptive,
  };
  return kinds;
}

lock_kind parse_lock_kind(std::string_view name) {
  for (auto k : all_lock_kinds()) {
    if (name == to_string(k)) return k;
  }
  throw cli::unknown_value("lock kind", name, all_lock_kinds(),
                           [](auto k) { return to_string(k); });
}

std::unique_ptr<lock_object> make_lock(lock_kind kind, sim::node_id home,
                                       const lock_cost_model& cost,
                                       const lock_params& params) {
  switch (kind) {
    case lock_kind::atomior:
      return std::make_unique<tas_lock>(home, cost);
    case lock_kind::spin:
      return std::make_unique<spin_lock>(home, cost);
    case lock_kind::backoff:
      return std::make_unique<backoff_spin_lock>(home, cost);
    case lock_kind::blocking:
      return std::make_unique<blocking_lock>(home, cost);
    case lock_kind::combined:
      return std::make_unique<combined_lock>(home, cost, params.combined_spin_limit);
    case lock_kind::advisory:
      return std::make_unique<advisory_lock>(home, cost);
    case lock_kind::ticket:
      return std::make_unique<ticket_lock>(home, cost);
    case lock_kind::mcs:
      return std::make_unique<mcs_lock>(home, cost);
    case lock_kind::reconfigurable: {
      auto lk = std::make_unique<reconfigurable_lock>(home, cost, params.initial_policy);
      lk->attributes().at("grant-mode").set(params.grant_mode);
      return lk;
    }
    case lock_kind::adaptive: {
      auto lk = std::make_unique<adaptive_lock>(home, cost, params.adapt,
                                                params.initial_policy, params.policy);
      lk->attributes().at("grant-mode").set(params.grant_mode);
      return lk;
    }
  }
  throw std::invalid_argument("make_lock: bad kind");
}

}  // namespace adx::locks
