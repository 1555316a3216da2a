// adx::policy — declarative adaptation-policy specification.
//
// A `policy_spec` names a registered adaptation policy P, its numeric knobs,
// the sensors it observes (each with its own sampling period and windowed
// aggregation), and any decision-filter wrappers (hysteresis / deadband /
// cooldown) stacked around it. It is pure data: serializable JSON that rides
// inside `adx::run_config` (so a sweep cell or a failing checker run fully
// records which policy it ran), buildable fluently, comparable for equality.
//
// This header is deliberately dependency-free (stdlib + the obs JSON
// helpers), so `locks::lock_params` can embed a policy_spec by value. The
// engine — the registry, sensor sources, decision cores and combinators
// that turn a spec into a running policy — lives in
// src/policy/{registry,engine,...}; the adaptive lock reaches it through a
// single call, `policy_registry::install`, from its constructor.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/parse_error.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"

namespace adx::policy {

/// Where the policy core executes relative to the adapted object's
/// operations. `sync` is the paper's closely-coupled loop: every k-th
/// instrumentation point runs M and P inline and charges their cost to the
/// operating thread. `async` decouples them: instrumentation points only
/// queue observations (the object's monitor runs loosely coupled, so the
/// fast path carries zero policy cost) and the periodic policy runtime
/// (`policy::async_runtime`) drains and evaluates them out-of-band at fixed
/// virtual-time ticks.
enum class exec_mode : std::uint8_t {
  sync,
  async,
};

[[nodiscard]] constexpr const char* to_string(exec_mode m) {
  switch (m) {
    case exec_mode::sync: return "sync";
    case exec_mode::async: return "async";
  }
  return "?";
}

[[nodiscard]] inline exec_mode parse_exec_mode(std::string_view s) {
  if (s == "sync") return exec_mode::sync;
  if (s == "async") return exec_mode::async;
  throw cli::unknown_value("mode", s, {"sync", "async"});
}

/// How a sensor's raw samples are folded into the value the policy sees.
enum class aggregation : std::uint8_t {
  last_value,     ///< the newest sample, unfiltered (the paper's monitor)
  ewma,           ///< exponentially weighted moving average (smoothing)
  max_in_window,  ///< max over the last `window` samples (spike detection)
};

[[nodiscard]] constexpr const char* to_string(aggregation a) {
  switch (a) {
    case aggregation::last_value: return "last-value";
    case aggregation::ewma: return "ewma";
    case aggregation::max_in_window: return "max-in-window";
  }
  return "?";
}

[[nodiscard]] inline aggregation parse_aggregation(std::string_view s) {
  if (s == "last-value") return aggregation::last_value;
  if (s == "ewma") return aggregation::ewma;
  if (s == "max-in-window") return aggregation::max_in_window;
  throw std::invalid_argument("unknown aggregation: " + std::string(s) +
                              " (valid: last-value ewma max-in-window)");
}

/// One named sensor attached to the adapted lock's monitor.
struct sensor_spec {
  std::string name = "no-of-waiting-threads";
  /// Sampling period in triggers: sample once every `period`-th
  /// instrumentation point (the paper's lock monitor uses 2). 0 is
  /// normalized to 1 by core::sensor.
  std::uint64_t period = 2;
  aggregation agg = aggregation::last_value;
  double ewma_alpha = 0.25;  ///< weight of the newest sample (ewma only)
  std::uint64_t window = 8;  ///< sample window size (max-in-window only)

  friend bool operator==(const sensor_spec&, const sensor_spec&) = default;
};

/// One decision-filter combinator wrapped around the policy core. Wrappers
/// suppress Ψ thrash (§4: Waiting-Threshold and n must be tuned per lock —
/// these make a mis-tuned core cheap instead of pathological).
struct wrapper_spec {
  /// "hysteresis" | "deadband" | "cooldown".
  std::string kind = "hysteresis";
  /// hysteresis: the core must produce the *same* desired configuration this
  /// many consecutive times before it is applied.
  std::uint64_t confirm = 2;
  /// deadband: a same-shape reconfiguration moving spin-time by less than
  /// this many iterations is suppressed.
  std::int64_t band = 8;
  /// cooldown: after an applied Ψ, suppress further decisions for this many
  /// observations.
  std::uint64_t observations = 4;

  friend bool operator==(const wrapper_spec&, const wrapper_spec&) = default;
};

struct policy_spec {
  /// Registered policy name. "simple-adapt" with no params/sensors/wrappers
  /// is the default: the paper's §4 rule on the lock's own parameters.
  std::string name = "simple-adapt";
  /// Policy-specific numeric knobs; absent keys take the policy's defaults
  /// (for simple-adapt, the lock's `simple_adapt_params`).
  std::map<std::string, double, std::less<>> params;
  /// Sensor set; empty means the policy's default sensors.
  std::vector<sensor_spec> sensors;
  /// Decision filters, outermost first.
  std::vector<wrapper_spec> wrappers;
  /// sync: policy runs inline at instrumentation points (the default).
  /// async: observations queue and the periodic runtime evaluates them.
  exec_mode mode = exec_mode::sync;
  /// Async runtime tick period in virtual microseconds (async mode only).
  std::uint64_t period_us = kDefaultPeriodUs;
  /// Opt this object into the cross-object coordinator's global
  /// rebalancing (async mode only).
  bool coordinate = false;

  static constexpr std::uint64_t kDefaultPeriodUs = 50;

  friend bool operator==(const policy_spec&, const policy_spec&) = default;

  /// True for the spec value that means "simple-adapt with the lock's own
  /// parameters", which serializers omit or label as the default. Any
  /// async or coordinated spec is non-default.
  [[nodiscard]] bool is_default() const {
    return name == "simple-adapt" && params.empty() && sensors.empty() &&
           wrappers.empty() && mode == exec_mode::sync && !coordinate;
  }

  // ------- fluent builder -------

  policy_spec& with_name(std::string n) {
    name = std::move(n);
    return *this;
  }
  policy_spec& with_param(std::string key, double value) {
    params[std::move(key)] = value;
    return *this;
  }
  policy_spec& with_sensor(sensor_spec s) {
    sensors.push_back(std::move(s));
    return *this;
  }
  policy_spec& with_hysteresis(std::uint64_t confirm = 2) {
    wrapper_spec w;
    w.kind = "hysteresis";
    w.confirm = confirm;
    wrappers.push_back(w);
    return *this;
  }
  policy_spec& with_deadband(std::int64_t band = 8) {
    wrapper_spec w;
    w.kind = "deadband";
    w.band = band;
    wrappers.push_back(w);
    return *this;
  }
  policy_spec& with_cooldown(std::uint64_t observations = 4) {
    wrapper_spec w;
    w.kind = "cooldown";
    w.observations = observations;
    wrappers.push_back(w);
    return *this;
  }
  policy_spec& with_mode(exec_mode m) {
    mode = m;
    return *this;
  }
  /// Switch to async execution, optionally with a runtime tick period.
  policy_spec& with_async(std::uint64_t period = kDefaultPeriodUs) {
    mode = exec_mode::async;
    period_us = period;
    return *this;
  }
  policy_spec& with_coordinate(bool on = true) {
    coordinate = on;
    return *this;
  }

  // ------- JSON (single-line; from_json(to_json(s)) == s) -------

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static policy_spec from_json(std::string_view text);
  /// Parses from an already-parsed JSON value (how run_config embeds specs).
  [[nodiscard]] static policy_spec from_json_value(const obs::jvalue& v);
};

namespace detail {

/// Shortest round-trip formatting for spec numbers: param values survive
/// to_json/from_json bit-exactly (obs::json_num's %.6g would not).
[[nodiscard]] inline std::string spec_num(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

}  // namespace detail

inline std::string policy_spec::to_json() const {
  std::ostringstream os;
  os << "{\"name\":" << obs::json_str(name) << ",\"params\":{";
  bool first = true;
  for (const auto& [k, v] : params) {
    if (!first) os << ',';
    first = false;
    os << obs::json_str(k) << ':' << detail::spec_num(v);
  }
  os << "},\"sensors\":[";
  first = true;
  for (const auto& s : sensors) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":" << obs::json_str(s.name) << ",\"period\":" << s.period
       << ",\"agg\":" << obs::json_str(to_string(s.agg))
       << ",\"ewma_alpha\":" << detail::spec_num(s.ewma_alpha)
       << ",\"window\":" << s.window << '}';
  }
  os << "],\"wrappers\":[";
  first = true;
  for (const auto& w : wrappers) {
    if (!first) os << ',';
    first = false;
    os << "{\"kind\":" << obs::json_str(w.kind) << ",\"confirm\":" << w.confirm
       << ",\"band\":" << w.band << ",\"observations\":" << w.observations << '}';
  }
  os << "]";
  // The execution-mode keys are emitted only when they deviate from the
  // defaults so every pre-existing spec (and the replay journals that embed
  // them) keeps a byte-identical JSON form.
  if (mode != exec_mode::sync) os << ",\"mode\":" << obs::json_str(to_string(mode));
  if (period_us != kDefaultPeriodUs) os << ",\"period_us\":" << period_us;
  if (coordinate) os << ",\"coordinate\":true";
  os << '}';
  return os.str();
}

inline policy_spec policy_spec::from_json_value(const obs::jvalue& v) {
  if (!v.is_object()) {
    throw std::invalid_argument("policy_spec: expected a JSON object");
  }
  const auto& o = v.object();
  policy_spec spec;
  if (const auto* n = obs::json_find(o, "name")) spec.name = n->str();
  if (const auto* p = obs::json_find(o, "params")) {
    for (const auto& [k, pv] : p->object()) spec.params[k] = pv.number<double>();
  }
  if (const auto* ss = obs::json_find(o, "sensors")) {
    for (const auto& sv : ss->array()) {
      const auto& so = sv.object();
      sensor_spec s;
      if (const auto* f = obs::json_find(so, "name")) s.name = f->str();
      if (const auto* f = obs::json_find(so, "period")) s.period = f->number<std::uint64_t>();
      if (const auto* f = obs::json_find(so, "agg")) s.agg = parse_aggregation(f->str());
      if (const auto* f = obs::json_find(so, "ewma_alpha")) s.ewma_alpha = f->number<double>();
      if (const auto* f = obs::json_find(so, "window")) s.window = f->number<std::uint64_t>();
      spec.sensors.push_back(std::move(s));
    }
  }
  if (const auto* ws = obs::json_find(o, "wrappers")) {
    for (const auto& wv : ws->array()) {
      const auto& wo = wv.object();
      wrapper_spec w;
      if (const auto* f = obs::json_find(wo, "kind")) w.kind = f->str();
      if (const auto* f = obs::json_find(wo, "confirm")) w.confirm = f->number<std::uint64_t>();
      if (const auto* f = obs::json_find(wo, "band")) w.band = f->number<std::int64_t>();
      if (const auto* f = obs::json_find(wo, "observations")) {
        w.observations = f->number<std::uint64_t>();
      }
      if (w.kind != "hysteresis" && w.kind != "deadband" && w.kind != "cooldown") {
        throw std::invalid_argument("policy_spec: unknown wrapper kind: " + w.kind +
                                    " (valid: hysteresis deadband cooldown)");
      }
      spec.wrappers.push_back(std::move(w));
    }
  }
  if (const auto* m = obs::json_find(o, "mode")) spec.mode = parse_exec_mode(m->str());
  if (const auto* p = obs::json_find(o, "period_us")) {
    spec.period_us = p->number<std::uint64_t>();
  }
  if (const auto* c = obs::json_find(o, "coordinate")) spec.coordinate = c->boolean();
  return spec;
}

inline policy_spec policy_spec::from_json(std::string_view text) {
  const auto root = obs::json_reader(text, "policy_spec").parse();
  return from_json_value(root);
}

}  // namespace adx::policy
