#include "sim/event_domain.hpp"

#include <algorithm>

namespace adx::sim {

event_domain::event_domain(const machine_config& cfg, const domain_options& opt)
    : places_(cfg.groups()),
      q_(std::min(std::max(opt.shards, 1u), places_), cfg.min_cross_group_latency()) {
  streams_.reserve(places_);
  for (unsigned p = 0; p < places_; ++p) {
    streams_.emplace_back(opt.seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  }
}

domain_stats event_domain::stats() const {
  domain_stats s;
  s.windows = q_.windows();
  s.events = q_.processed();
  s.cross_sends = q_.cross_sends();
  for (unsigned i = 0; i < q_.shards(); ++i) {
    s.slab_slots += q_.shard_queue(i).slots_acquired();
    s.callback_spills += q_.shard_queue(i).callback_spills();
  }
  return s;
}

}  // namespace adx::sim
