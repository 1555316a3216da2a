#include "sim/event_domain.hpp"

#include <algorithm>

namespace adx::sim {

event_domain::event_domain(const machine_config& cfg, const domain_options& opt)
    : places_(cfg.groups()),
      q_(std::min(std::max(opt.shards, 1u), places_), cfg.min_cross_group_latency()) {
  if (opt.adaptive_lookahead) q_.set_adaptive_lookahead(true, opt.max_widen);
  streams_.reserve(places_);
  for (unsigned p = 0; p < places_; ++p) {
    streams_.emplace_back(opt.seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  }
}

domain_stats event_domain::stats() const {
  domain_stats s;
  s.windows = q_.windows();
  s.cross_sends = q_.cross_sends();
  s.widened_windows = q_.widened_windows();
  s.peak_widen = q_.peak_widen();
  for (unsigned i = 0; i < q_.shards(); ++i) {
    s.slab_slots += q_.shard_queue(i).slots_acquired();
    s.callback_spills += q_.shard_queue(i).callback_spills();
  }
  return s;
}

std::unique_ptr<event_domain> make_event_domain(const machine_config& cfg,
                                                const domain_options& opt) {
  return std::make_unique<event_domain>(cfg, opt);
}

}  // namespace adx::sim
