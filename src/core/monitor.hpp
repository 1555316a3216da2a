// The monitor module M of an adaptive object (§3).
//
// The paper derives its lock monitor from a general-purpose thread monitor
// [GS93] whose monitor-thread implementation proved too loosely coupled for
// adaptive locks; the customized monitor instead runs *inside the invoking
// application threads*. Both couplings are kept here:
//   * closely coupled — trigger() samples inline and hands observations
//     straight to the caller (who runs the policy immediately);
//   * loosely coupled — observations queue up and are delivered when an
//     external agent drains them, modelling the monitor-thread lag the paper
//     rejected (ablation bench `bench_abl_coupling`).
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/sensor.hpp"

namespace adx::core {

enum class coupling : std::uint8_t { closely_coupled, loosely_coupled };

/// Per-sensor fold applied by the monitor before an observation is delivered.
/// This is the only place sensor samples are folded: every adaptive object
/// (lock, hash map, monitor object) registers its sensors with a fold and
/// its policy consumes the folded values.
struct sensor_aggregation {
  enum class kind : std::uint8_t {
    last_value,     ///< the newest sample, unfiltered
    ewma,           ///< exponentially weighted moving average
    max_in_window,  ///< max over the last `window` samples
  };

  kind k = kind::last_value;
  double alpha = 0.25;      ///< weight of the newest sample (ewma only)
  std::size_t window = 8;   ///< sample window size (max-in-window only)

  [[nodiscard]] static sensor_aggregation last_value() { return {}; }
  [[nodiscard]] static sensor_aggregation ewma(double alpha = 0.25) {
    return {kind::ewma, alpha, 8};
  }
  [[nodiscard]] static sensor_aggregation max_in_window(std::size_t w = 8) {
    return {kind::max_in_window, 0.25, w};
  }
};

class monitor {
 public:
  explicit monitor(coupling mode = coupling::closely_coupled, std::size_t queue_cap = 1024)
      : mode_(mode), queue_cap_(queue_cap) {}

  sensor& add_sensor(sensor s, sensor_aggregation agg = {}) {
    sensors_.push_back(std::move(s));
    agg_state st;
    st.spec = agg;
    aggs_.push_back(std::move(st));
    return sensors_.back();
  }

  /// Replaces the sensor set wholesale (used when a new adaptation policy is
  /// installed and brings its own sensors). Queued loosely-coupled
  /// observations from the old sensors are dropped with them, and so is every
  /// per-sensor aggregation fold (EWMA accumulators, max-in-window histories):
  /// a re-installed sensor set must start from a clean slate, not from
  /// aggregates a previous run primed.
  void clear_sensors() {
    sensors_.clear();
    aggs_.clear();
    queue_.clear();
  }

  [[nodiscard]] coupling mode() const { return mode_; }
  void set_mode(coupling m) { mode_ = m; }

  [[nodiscard]] std::size_t sensor_count() const { return sensors_.size(); }
  [[nodiscard]] sensor& sensor_at(std::size_t i) { return sensors_.at(i); }
  [[nodiscard]] const sensor& sensor_at(std::size_t i) const { return sensors_.at(i); }

  /// Diversity factor (§3): the range of distinct data monitored.
  [[nodiscard]] std::size_t diversity() const { return sensors_.size(); }

  /// Fires every sensor's trigger point. Closely coupled: due observations
  /// are returned for immediate policy execution. Loosely coupled: they are
  /// queued (dropping oldest on overflow — "information overload") and the
  /// return is empty. Each due observation is folded through its sensor's
  /// aggregation before delivery.
  std::vector<observation> trigger() {
    std::vector<observation> due;
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
      auto& s = sensors_[i];
      if (auto obs = s.trigger()) {
        obs->value = aggs_[i].feed(obs->value);
        if (mode_ == coupling::closely_coupled) {
          due.push_back(*obs);
        } else {
          if (queue_.size() >= queue_cap_) {
            queue_.pop_front();
            ++dropped_;
          }
          queue_.push_back(*obs);
        }
      }
    }
    return due;
  }

  /// Loosely-coupled drain: delivers up to `max` queued observations (oldest
  /// first), i.e. the external agent may act on *stale* state.
  std::vector<observation> drain(std::size_t max = ~std::size_t{0}) {
    std::vector<observation> out;
    while (!queue_.empty() && out.size() < max) {
      out.push_back(queue_.front());
      queue_.pop_front();
    }
    return out;
  }

  [[nodiscard]] std::size_t backlog() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  [[nodiscard]] std::uint64_t total_samples() const {
    std::uint64_t n = 0;
    for (const auto& s : sensors_) n += s.samples_taken();
    return n;
  }

  /// The aggregated value sensor `i` last delivered (0 before any sample).
  [[nodiscard]] std::int64_t aggregated_value(std::size_t i) const {
    return aggs_.at(i).value;
  }

 private:
  /// Running fold state for one sensor's aggregation.
  struct agg_state {
    sensor_aggregation spec{};
    bool primed{false};
    double ewma{0.0};
    std::deque<std::int64_t> recent;
    std::int64_t value{0};

    std::int64_t feed(std::int64_t raw) {
      switch (spec.k) {
        case sensor_aggregation::kind::last_value:
          value = raw;
          break;
        case sensor_aggregation::kind::ewma:
          if (!primed) {
            ewma = static_cast<double>(raw);
            primed = true;
          } else {
            ewma = spec.alpha * static_cast<double>(raw) + (1.0 - spec.alpha) * ewma;
          }
          value = static_cast<std::int64_t>(std::llround(ewma));
          break;
        case sensor_aggregation::kind::max_in_window: {
          const std::size_t w = spec.window == 0 ? 1 : spec.window;
          recent.push_back(raw);
          while (recent.size() > w) recent.pop_front();
          std::int64_t m = recent.front();
          for (const auto v : recent) m = v > m ? v : m;
          value = m;
          break;
        }
      }
      return value;
    }
  };

  coupling mode_;
  std::size_t queue_cap_;
  std::vector<sensor> sensors_;
  std::vector<agg_state> aggs_;  ///< parallel to sensors_
  std::deque<observation> queue_;
  std::uint64_t dropped_{0};
};

}  // namespace adx::core
