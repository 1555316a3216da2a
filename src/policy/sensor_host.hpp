// The object-generic half of the sensor catalogue (§3's "diversity" factor,
// promoted beyond locks).
//
// A `sensor_host` is any adaptive object that can name its observable state
// variables and build a core::sensor reading each one. The reconfigurable
// lock, the adaptive hash map and the adaptive monitor all implement it, so
// one `install_sensors` path wires a declarative sensor list (the
// `policy_spec::sensors` vector a run_config carries) onto any of them with
// the same validation UX: an unknown sensor name throws
// std::invalid_argument listing every name the host exposes.
#pragma once

#include <span>
#include <string_view>

#include "core/adaptive.hpp"
#include "core/sensor.hpp"
#include "policy/spec.hpp"

namespace adx::policy {

class sensor_host {
 public:
  virtual ~sensor_host() = default;

  /// Every sensor name this host can build, the sweep/validation axis.
  [[nodiscard]] virtual std::span<const std::string_view> sensor_names() const = 0;

  /// Builds a named sensor reading this host's state. Implementations
  /// should call `throw_unknown_sensor` on unrecognized names so every host
  /// reports errors identically.
  [[nodiscard]] virtual core::sensor make_sensor(std::string_view name,
                                                 std::uint64_t period) = 0;

  /// Shared error UX: "unknown sensor: X (valid: a b c)".
  [[noreturn]] static void throw_unknown_sensor(
      std::string_view name, std::span<const std::string_view> valid);
};

/// Maps a spec aggregation onto the core monitor's fold.
[[nodiscard]] core::sensor_aggregation to_core_aggregation(const sensor_spec& s);

/// Replaces `obj`'s monitor sensors with `specs`, each built by `host` and
/// registered with its spec's aggregation fold — the monitor is the only
/// place samples are folded, so every policy sees folded observations.
/// The whole list is validated before the monitor is touched; each of these
/// throws std::invalid_argument and leaves the monitor as it was:
///   - a name `host` does not expose ("unknown sensor: X (valid: ...)");
///   - a name listed twice ("duplicate sensor: X"): each sensor has one fold;
///   - an ewma sensor whose `ewma_alpha` is outside (0, 1].
void install_sensors(core::adaptive_object& obj, sensor_host& host,
                     std::span<const sensor_spec> specs);

}  // namespace adx::policy
