// The policy registry: the by-name catalogue of adaptation policies and the
// single registration surface (`policy_registry`) that turns a
// `policy_spec` into a live monitor + policy pair on any adaptive object.
//
// One class owns every install path:
//   - lock family   (simple-adapt, break-even, ewma-hold, multi-sensor):
//     installed on a `locks::adaptive_lock` by its constructor, and the
//     sweep axis for adx-check (`--policies=all`).
//   - map family    (stripe-adapt): installed on anything exposing a
//     `stripe_controller` (the adaptive hash map).
//   - monitor family (mode-adapt): installed on anything exposing a
//     `mode_controller` (the adaptive monitor).
//
// Every install consumes the same `policy_spec` schema — name, params,
// sensors, wrappers, and the execution mode (`sync` runs the policy inline
// at feedback points; `async` switches the object's monitor to loose
// coupling so observations queue for the periodic policy runtime,
// `policy::async_runtime`, and the fast path carries zero policy cost).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/adaptive.hpp"
#include "locks/adaptive_lock.hpp"
#include "locks/cost_model.hpp"
#include "policy/controllers.hpp"
#include "policy/sensor_host.hpp"
#include "policy/spec.hpp"

namespace adx::policy {

/// Which kind of adaptive object a registered policy drives.
enum class policy_family : std::uint8_t { lock, map, monitor };

[[nodiscard]] constexpr const char* to_string(policy_family f) {
  switch (f) {
    case policy_family::lock: return "lock";
    case policy_family::map: return "map";
    case policy_family::monitor: return "monitor";
  }
  return "?";
}

struct policy_info {
  std::string_view name;
  std::string_view description;
  policy_family family = policy_family::lock;
};

/// The unified registration API. All members are static — the catalogue is
/// compiled in; there is no mutable global state.
class policy_registry {
 public:
  /// Every registered policy across all families, in registration order.
  [[nodiscard]] static std::span<const policy_info> catalogue();

  /// Names within one family (the `--policies` sweep axis is the lock
  /// family).
  [[nodiscard]] static std::vector<std::string_view> names(policy_family f);

  /// Validates a name within a family; throws std::invalid_argument listing
  /// that family's valid names (shared cli::unknown_value UX).
  [[nodiscard]] static std::string_view parse(std::string_view name,
                                              policy_family f);

  /// The canonical spec for a registered policy of any family: its name
  /// plus its default sensor set. For the lock family, sensor periods come
  /// from `sample_period`; for "simple-adapt" the sensors vector is left
  /// empty so the spec stays `is_default()` (install then takes the period
  /// from the lock's own `simple_adapt_params`). Throws
  /// std::invalid_argument listing the lock family's names on unknown input.
  [[nodiscard]] static policy_spec default_spec(std::string_view name,
                                                std::uint64_t sample_period = 2);

  /// Installs the lock-family policy `spec` on `lk` — the one path every
  /// adaptive lock's policy comes through (its constructor calls this):
  /// replaces the monitor's sensor set with the spec's (falling back to the
  /// policy's default sensors at `lk.adapt_params().sample_period`), builds
  /// the wrapped decision core with `lk.adapt_params()` and `cost` as knob
  /// defaults, and sets an `engine` over it as the lock's adaptation policy.
  /// Throws std::invalid_argument on unknown policy, sensor or wrapper names
  /// and on the bad sensor lists `install_sensors` rejects.
  static void install(locks::adaptive_lock& lk, const policy_spec& spec,
                      const locks::lock_cost_model& cost);

  /// Installs a map-family policy ("stripe-adapt") driving `ctl`, with
  /// sensors installed on `obj`'s monitor through `host`.
  static void install(core::adaptive_object& obj, sensor_host& host,
                      stripe_controller& ctl, const policy_spec& spec);

  /// Installs a monitor-family policy ("mode-adapt") driving `ctl`.
  static void install(core::adaptive_object& obj, sensor_host& host,
                      mode_controller& ctl, const policy_spec& spec);
};

}  // namespace adx::policy
