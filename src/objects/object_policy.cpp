#include "objects/object_policy.hpp"

#include "policy/registry.hpp"

namespace adx::objects {

namespace {

constexpr std::string_view kMapSensorNames[] = {
    "load-factor",
    "stripe-contention-skew",
    "probe-length",
};

constexpr std::string_view kMonitorSensorNames[] = {
    "section-time",
    "monitor-waiters",
    "entry-rate",
};

}  // namespace

std::span<const std::string_view> map_sensor_names() { return kMapSensorNames; }
std::span<const std::string_view> monitor_sensor_names() { return kMonitorSensorNames; }

policy::policy_spec default_map_spec() {
  return policy::policy_registry::default_spec("stripe-adapt");
}

policy::policy_spec default_monitor_spec() {
  return policy::policy_registry::default_spec("mode-adapt");
}

}  // namespace adx::objects
