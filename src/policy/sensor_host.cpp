#include "policy/sensor_host.hpp"

#include <stdexcept>
#include <string>

#include "cli/parse_error.hpp"

namespace adx::policy {

void sensor_host::throw_unknown_sensor(std::string_view name,
                                       std::span<const std::string_view> valid) {
  throw cli::unknown_value("sensor", name, valid);
}

core::sensor_aggregation to_core_aggregation(const sensor_spec& s) {
  switch (s.agg) {
    case aggregation::last_value: return core::sensor_aggregation::last_value();
    case aggregation::ewma: return core::sensor_aggregation::ewma(s.ewma_alpha);
    case aggregation::max_in_window:
      return core::sensor_aggregation::max_in_window(s.window);
  }
  return {};
}

void install_sensors(core::adaptive_object& obj, sensor_host& host,
                     std::span<const sensor_spec> specs) {
  // Validate the whole list first so a bad entry cannot leave the monitor
  // half-replaced.
  const auto valid = host.sensor_names();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& s = specs[i];
    bool known = false;
    for (const auto n : valid) known = known || n == s.name;
    if (!known) sensor_host::throw_unknown_sensor(s.name, valid);
    for (std::size_t j = 0; j < i; ++j) {
      if (specs[j].name == s.name) {
        throw std::invalid_argument("duplicate sensor: " + s.name +
                                    " (each sensor may be listed once)");
      }
    }
    if (s.agg == aggregation::ewma && !(s.ewma_alpha > 0.0 && s.ewma_alpha <= 1.0)) {
      throw std::invalid_argument("bad ewma_alpha for sensor " + s.name + ": " +
                                  detail::spec_num(s.ewma_alpha) +
                                  " (valid: 0 < ewma_alpha <= 1)");
    }
  }
  obj.object_monitor().clear_sensors();
  for (const auto& s : specs) {
    obj.object_monitor().add_sensor(host.make_sensor(s.name, s.period),
                                    to_core_aggregation(s));
  }
}

}  // namespace adx::policy
