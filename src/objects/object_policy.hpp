// The adaptive objects' sensor catalogues and default policy specs.
//
// The object controllers (policy::stripe_controller, policy::mode_controller)
// and the stripe-adapt / mode-adapt policies live in src/policy, and
// `policy::policy_registry::install` is the one install path for locks and
// objects alike. This header names each object's sensors and its default
// `policy_spec`.
#pragma once

#include <span>
#include <string_view>

#include "policy/spec.hpp"

namespace adx::objects {

// ---------------------------------------------------------------- hash map

/// Names of the adaptive hash map's sensors:
///   load-factor            100 x entries / buckets (percent)
///   stripe-contention-skew waiters on the hottest stripe minus the
///                          per-stripe mean — the imbalance finer striping
///                          can fix (> 0 under uniform heavy contention too)
///   probe-length           100 x EWMA of chain nodes traversed per op
[[nodiscard]] std::span<const std::string_view> map_sensor_names();

/// Default declarative spec for the map: name "stripe-adapt" plus the three
/// map sensors with their canonical periods and aggregations.
[[nodiscard]] policy::policy_spec default_map_spec();

// ----------------------------------------------------------------- monitor

/// Names of the adaptive monitor's sensors:
///   section-time     charged length of the last executed section, in µs
///   monitor-waiters  entry-lock waiters plus queued delegated requests
///   entry-rate       monitor entries since the previous sample
[[nodiscard]] std::span<const std::string_view> monitor_sensor_names();

/// Default declarative spec for the monitor: name "mode-adapt" plus the
/// three monitor sensors.
[[nodiscard]] policy::policy_spec default_monitor_spec();

}  // namespace adx::objects
