// adaptive_hash_map — a concurrent open-chaining hash map whose stripe
// granularity is a Ψ-reconfigurable attribute (§3 applied beyond locks).
//
// Layout: `active_stripes` stripes of `buckets_per_stripe` chains each; a
// key hashes to bucket h % (active_stripes x buckets_per_stripe) and the
// bucket's stripe owns the guarding lock. Every stripe lock is a full lock
// from the locks:: factory — with an adaptive kind, each stripe's waiting
// policy adapts independently (hot stripes learn to block, cold ones to
// spin), a second, inner adaptation layer underneath the map-level one.
//
// The map-level Ψ changes the stripe count between `min_stripes` and
// `max_stripes` (by `stripe_factor` per step) under a quiesced epoch: the
// reconfigurer acquires every active stripe lock in ascending index order,
// rehashes, bumps the configuration generation, and releases. Operations
// capture the generation before locking one stripe and retry if it moved —
// so no operation ever observes a mid-rehash table. All `max_stripes` locks
// are preallocated up front: shrinking never destroys a lock a late waiter
// could still be queued on, it only parks the tail stripes.
//
// Timing follows the repo-wide "native state, charged timing" pattern: the
// authoritative table is host C++ data mutated inside await-free windows;
// chain traversal and rehash traffic are charged through ctx.touch at the
// owning stripe's home node.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "ct/context.hpp"
#include "ct/task.hpp"
#include "locks/factory.hpp"
#include "objects/object_policy.hpp"
#include "policy/registry.hpp"
#include "policy/sensor_host.hpp"

namespace adx::objects {

struct map_config {
  unsigned min_stripes = 16;
  unsigned max_stripes = 256;
  unsigned initial_stripes = 16;
  /// Stripe-count step per Ψ operation (16 ↔ 64 ↔ 256 with the defaults).
  unsigned stripe_factor = 4;
  unsigned buckets_per_stripe = 8;
  /// Cap for probe-length-driven bucket-array growth (Ψ doubles the
  /// per-stripe bucket count up to this; equal to buckets_per_stripe
  /// freezes the bucket arrays).
  unsigned max_buckets_per_stripe = 64;
  /// Stripe locks come from the ordinary lock factory — adaptive by default,
  /// so each stripe's waiting policy tunes itself independently.
  locks::lock_kind lock = locks::lock_kind::adaptive;
  locks::lock_params lock_params{};
  locks::lock_cost_model cost = locks::lock_cost_model::butterfly_cthreads();
  /// Stripes (locks + their buckets) are homed round-robin over this many
  /// nodes; set it to the machine's node count.
  unsigned nodes = 1;
  /// False freezes the stripe count (a "fixed-S" column in the benches);
  /// the per-stripe locks may still adapt their waiting policies.
  bool adaptive = true;
  /// Map-level policy; empty sensors/params mean default_map_spec().
  policy::policy_spec spec = default_map_spec();
};

/// Deterministic splitmix64-style mix, the default hasher. Stateless, so
/// identical across platforms — required for replayable check journals.
template <typename K>
struct map_hash {
  std::uint64_t operator()(const K& k) const {
    auto x = static_cast<std::uint64_t>(k);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
};

/// Identity hash for ports that need a fixed key→stripe mapping (kvstore's
/// hot bucket 0 must stay on stripe 0).
template <typename K>
struct identity_hash {
  std::uint64_t operator()(const K& k) const { return static_cast<std::uint64_t>(k); }
};

template <typename K, typename V, typename Hash = map_hash<K>>
class adaptive_hash_map final : public core::adaptive_object,
                                public policy::sensor_host,
                                public policy::stripe_controller {
 public:
  explicit adaptive_hash_map(map_config cfg)
      : core::adaptive_object("striped-chaining"), cfg_(validated(std::move(cfg))) {
    active_ = cfg_.initial_stripes;
    desired_ = active_;
    bps_ = cfg_.buckets_per_stripe;
    desired_bps_ = bps_;
    locks_.reserve(cfg_.max_stripes);
    for (unsigned s = 0; s < cfg_.max_stripes; ++s) {
      locks_.push_back(locks::make_lock(cfg_.lock, s % cfg_.nodes, cfg_.cost,
                                        cfg_.lock_params));
    }
    buckets_.resize(static_cast<std::size_t>(active_) * bps_);
    attributes().declare("active-stripes", static_cast<std::int64_t>(active_));
    if (cfg_.adaptive) policy::policy_registry::install(*this, *this, *this, cfg_.spec);
  }

  [[nodiscard]] const map_config& config() const { return cfg_; }

  /// Test/oracle instrumentation: called *inside* the guarded section after
  /// each committed point operation, i.e. in linearization order ('i' insert,
  /// 'a' assign, 'u' update, 'e' erase, 'f' find; `effect` = whether the op
  /// changed / found anything). Host-side only — must not await.
  using commit_hook = std::function<void(char op, const K& key, bool effect)>;
  void set_commit_hook(commit_hook h) { hook_ = std::move(h); }

  // ------------------------------------------------------------ operations

  /// Insert-or-assign; returns true when `key` was newly inserted.
  ct::task<bool> insert(ct::context& ctx, K key, V value) {
    bool inserted = false;
    for (;;) {
      const auto gen = config_generation();
      const auto b = bucket_of(key);
      auto& lk = stripe_lock_of(b);
      co_await lk.lock(ctx);
      if (gen != config_generation()) {
        co_await lk.unlock(ctx);
        continue;
      }
      witness_reconfig();
      auto& chain = buckets_[b];
      const auto steps = chain.size();
      co_await ctx.touch(lk.home(), sim::access_kind::read, 1 + steps);
      if (auto* e = chain_find(chain, key)) {
        e->second = std::move(value);
        if (hook_) hook_('a', e->first, true);
      } else {
        chain.emplace_back(std::move(key), std::move(value));
        ++size_;
        inserted = true;
        if (hook_) hook_('i', chain.back().first, true);
      }
      co_await ctx.touch(lk.home(), sim::access_kind::write, 1);
      note_probe(steps);
      co_await lk.unlock(ctx);
      break;
    }
    co_await after_op(ctx);
    co_return inserted;
  }

  ct::task<std::optional<V>> find(ct::context& ctx, K key) {
    std::optional<V> out;
    for (;;) {
      const auto gen = config_generation();
      const auto b = bucket_of(key);
      auto& lk = stripe_lock_of(b);
      co_await lk.lock(ctx);
      if (gen != config_generation()) {
        co_await lk.unlock(ctx);
        continue;
      }
      witness_reconfig();
      auto& chain = buckets_[b];
      co_await ctx.touch(lk.home(), sim::access_kind::read, 1 + chain.size());
      if (auto* e = chain_find(chain, key)) out = e->second;
      if (hook_) hook_('f', key, out.has_value());
      note_probe(chain.size());
      co_await lk.unlock(ctx);
      break;
    }
    co_await after_op(ctx);
    co_return out;
  }

  /// Returns true when `key` was present and removed.
  ct::task<bool> erase(ct::context& ctx, K key) {
    bool erased = false;
    for (;;) {
      const auto gen = config_generation();
      const auto b = bucket_of(key);
      auto& lk = stripe_lock_of(b);
      co_await lk.lock(ctx);
      if (gen != config_generation()) {
        co_await lk.unlock(ctx);
        continue;
      }
      witness_reconfig();
      auto& chain = buckets_[b];
      co_await ctx.touch(lk.home(), sim::access_kind::read, 1 + chain.size());
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].first == key) {
          if (i + 1 != chain.size()) chain[i] = std::move(chain.back());
          chain.pop_back();
          --size_;
          erased = true;
          co_await ctx.touch(lk.home(), sim::access_kind::write, 1);
          break;
        }
      }
      if (hook_) hook_('e', key, erased);
      note_probe(chain.size());
      co_await lk.unlock(ctx);
      break;
    }
    co_await after_op(ctx);
    co_return erased;
  }

  /// Read-modify-write under the stripe lock: `fn(V&)` runs on the existing
  /// value or on a freshly inserted `init`; `work` is extra critical-section
  /// compute (the application's processing on the entry).
  template <typename Fn>
  ct::task<void> update(ct::context& ctx, K key, Fn fn, V init = V{},
                        sim::vdur work = sim::vdur{}) {
    for (;;) {
      const auto gen = config_generation();
      const auto b = bucket_of(key);
      auto& lk = stripe_lock_of(b);
      co_await lk.lock(ctx);
      if (gen != config_generation()) {
        co_await lk.unlock(ctx);
        continue;
      }
      witness_reconfig();
      auto& chain = buckets_[b];
      const auto steps = chain.size();
      co_await ctx.touch(lk.home(), sim::access_kind::read, 1 + steps);
      auto* e = chain_find(chain, key);
      if (e == nullptr) {
        chain.emplace_back(std::move(key), std::move(init));
        ++size_;
        e = &chain.back();
      }
      if (work.ns > 0) co_await ctx.compute(work);
      fn(e->second);
      if (hook_) hook_('u', e->first, true);
      co_await ctx.touch(lk.home(), sim::access_kind::write, 1);
      note_probe(steps);
      co_await lk.unlock(ctx);
      break;
    }
    co_await after_op(ctx);
  }

  /// A global operation: exact size, acquiring every active stripe lock in
  /// ascending order. Its O(active_stripes) cost is the map's trade-off —
  /// coarse striping keeps globals cheap, fine striping keeps point ops
  /// uncontended — and what makes the stripe count worth adapting.
  ct::task<std::size_t> size_slow(ct::context& ctx) {
    std::size_t total = 0;
    for (;;) {
      const auto gen = config_generation();
      co_await locks_[0]->lock(ctx);
      if (gen != config_generation()) {
        co_await locks_[0]->unlock(ctx);
        continue;
      }
      // Generation is now frozen: any stripe reconfiguration must first
      // acquire stripe lock 0, which we hold.
      witness_reconfig();
      const unsigned n = active_;
      for (unsigned s = 1; s < n; ++s) co_await locks_[s]->lock(ctx);
      for (unsigned s = 0; s < n; ++s) {
        co_await ctx.touch(locks_[s]->home(), sim::access_kind::read, 1);
      }
      total = size_;
      for (unsigned s = n; s-- > 0;) co_await locks_[s]->unlock(ctx);
      break;
    }
    co_await after_op(ctx);
    co_return total;
  }

  /// Explicit Ψ: rehash onto `target` stripes under a quiesced epoch (all
  /// active stripe locks held, ascending). Normally reached cooperatively —
  /// the stripe policy requests a count and the next operation applies it.
  ct::task<void> reconfigure_stripes(ct::context& ctx, unsigned target) {
    target = clamp_stripes(target);
    for (;;) {
      const auto gen = config_generation();
      if (target == active_) co_return;
      co_await locks_[0]->lock(ctx);
      if (gen != config_generation()) {
        co_await locks_[0]->unlock(ctx);
        continue;
      }
      const unsigned before = active_;  // frozen while we hold stripe 0
      for (unsigned s = 1; s < before; ++s) co_await locks_[s]->lock(ctx);
      in_reconfig_ = true;
      const std::uint64_t moved = size_;
      std::vector<std::vector<std::pair<K, V>>> next(
          static_cast<std::size_t>(target) * bps_);
      for (auto& chain : buckets_) {
        for (auto& e : chain) {
          next[hash_(e.first) % next.size()].push_back(std::move(e));
        }
      }
      buckets_ = std::move(next);
      active_ = target;
      desired_ = target;
      (void)attributes().at("active-stripes").set(static_cast<std::int64_t>(target));
      // One read + one write per moved entry, plus the stripe-table update.
      note_reconfiguration(core::op_cost{moved, moved + 1});
      ++resizes_;
      in_reconfig_ = false;
      co_await ctx.touch(locks_[0]->home(), sim::access_kind::read, moved);
      co_await ctx.touch(locks_[0]->home(), sim::access_kind::write, moved + 1);
      for (unsigned s = before; s-- > 0;) co_await locks_[s]->unlock(ctx);
      break;
    }
  }

  /// Second Ψ axis: rehash onto `per_stripe` buckets per stripe (same
  /// quiesced epoch as reconfigure_stripes, stripe count unchanged).
  /// Reached cooperatively when the probe-length rule requests growth.
  ct::task<void> reconfigure_buckets(ct::context& ctx, unsigned per_stripe) {
    per_stripe = clamp_buckets(per_stripe);
    for (;;) {
      const auto gen = config_generation();
      if (per_stripe == bps_) co_return;
      co_await locks_[0]->lock(ctx);
      if (gen != config_generation()) {
        co_await locks_[0]->unlock(ctx);
        continue;
      }
      const unsigned stripes = active_;  // frozen while we hold stripe 0
      for (unsigned s = 1; s < stripes; ++s) co_await locks_[s]->lock(ctx);
      in_reconfig_ = true;
      const std::uint64_t moved = size_;
      std::vector<std::vector<std::pair<K, V>>> next(
          static_cast<std::size_t>(stripes) * per_stripe);
      for (auto& chain : buckets_) {
        for (auto& e : chain) {
          next[hash_(e.first) % next.size()].push_back(std::move(e));
        }
      }
      buckets_ = std::move(next);
      bps_ = per_stripe;
      desired_bps_ = per_stripe;
      note_reconfiguration(core::op_cost{moved, moved + 1});
      ++bucket_growths_;
      in_reconfig_ = false;
      co_await ctx.touch(locks_[0]->home(), sim::access_kind::read, moved);
      co_await ctx.touch(locks_[0]->home(), sim::access_kind::write, moved + 1);
      for (unsigned s = stripes; s-- > 0;) co_await locks_[s]->unlock(ctx);
      break;
    }
  }

  // --------------------------------------------------- stripe_controller Ψ

  [[nodiscard]] unsigned active_stripes() const override { return active_; }
  [[nodiscard]] unsigned min_stripes() const override { return cfg_.min_stripes; }
  [[nodiscard]] unsigned max_stripes() const override { return cfg_.max_stripes; }
  [[nodiscard]] unsigned stripe_factor() const override { return cfg_.stripe_factor; }
  void request_stripes(unsigned target) override { desired_ = clamp_stripes(target); }
  [[nodiscard]] unsigned buckets_per_stripe() const override { return bps_; }
  [[nodiscard]] unsigned max_buckets_per_stripe() const override {
    return cfg_.max_buckets_per_stripe;
  }
  void request_buckets(unsigned per_stripe) override {
    desired_bps_ = clamp_buckets(per_stripe);
  }

  // ------------------------------------------------------------ sensor_host

  [[nodiscard]] std::span<const std::string_view> sensor_names() const override {
    return map_sensor_names();
  }

  [[nodiscard]] core::sensor make_sensor(std::string_view name,
                                         std::uint64_t period) override {
    if (name == "load-factor") {
      return core::sensor(
          std::string(name),
          [this] {
            return static_cast<std::int64_t>(100 * size_ / buckets_.size());
          },
          period);
    }
    if (name == "stripe-contention-skew") {
      return core::sensor(
          std::string(name), [this] { return contention_skew(); }, period);
    }
    if (name == "probe-length") {
      return core::sensor(
          std::string(name),
          [this] { return static_cast<std::int64_t>(100.0 * probe_ewma_ + 0.5); },
          period);
    }
    policy::sensor_host::throw_unknown_sensor(name, map_sensor_names());
  }

  // ----------------------------------------------------------- introspection

  /// Unsimulated host-side views, for tests / oracles / result reporting.
  [[nodiscard]] std::size_t size_fast() const { return size_; }
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }
  [[nodiscard]] std::uint64_t bucket_growths() const { return bucket_growths_; }
  [[nodiscard]] bool reconfig_in_progress() const { return in_reconfig_; }
  /// Guarded sections entered while a reconfiguration was mid-flight — the
  /// Ψ-atomicity witness; any run where this is non-zero is a violation.
  [[nodiscard]] std::uint64_t psi_violations() const { return psi_violations_; }
  [[nodiscard]] double probe_ewma() const { return probe_ewma_; }

  [[nodiscard]] locks::lock_object& stripe_lock(unsigned s) { return *locks_.at(s); }
  [[nodiscard]] const locks::lock_object& stripe_lock(unsigned s) const {
    return *locks_.at(s);
  }

  /// Stripe index `key` currently maps to (host-side, for tests).
  [[nodiscard]] unsigned stripe_of(const K& key) const {
    return static_cast<unsigned>(bucket_of(key) / bps_);
  }

  /// Unsimulated snapshot of the whole table, for shadow-model comparison.
  [[nodiscard]] std::vector<std::pair<K, V>> snapshot_raw() const {
    std::vector<std::pair<K, V>> out;
    out.reserve(size_);
    for (const auto& chain : buckets_) {
      for (const auto& e : chain) out.push_back(e);
    }
    return out;
  }

 private:
  static map_config validated(map_config cfg) {
    if (cfg.min_stripes == 0 || cfg.max_stripes < cfg.min_stripes) {
      throw std::invalid_argument("adaptive_hash_map: need 1 <= min <= max stripes");
    }
    if (cfg.initial_stripes < cfg.min_stripes || cfg.initial_stripes > cfg.max_stripes) {
      throw std::invalid_argument("adaptive_hash_map: initial stripes out of range");
    }
    if (cfg.buckets_per_stripe == 0) {
      throw std::invalid_argument("adaptive_hash_map: need buckets_per_stripe >= 1");
    }
    if (cfg.max_buckets_per_stripe < cfg.buckets_per_stripe) {
      cfg.max_buckets_per_stripe = cfg.buckets_per_stripe;
    }
    if (cfg.nodes == 0) {
      throw std::invalid_argument("adaptive_hash_map: need nodes >= 1");
    }
    if (cfg.stripe_factor < 2) {
      throw std::invalid_argument("adaptive_hash_map: need stripe_factor >= 2");
    }
    return cfg;
  }

  [[nodiscard]] unsigned clamp_stripes(unsigned t) const {
    return t < cfg_.min_stripes ? cfg_.min_stripes
                                : (t > cfg_.max_stripes ? cfg_.max_stripes : t);
  }

  [[nodiscard]] unsigned clamp_buckets(unsigned t) const {
    return t < cfg_.buckets_per_stripe
               ? cfg_.buckets_per_stripe
               : (t > cfg_.max_buckets_per_stripe ? cfg_.max_buckets_per_stripe : t);
  }

  [[nodiscard]] std::size_t bucket_of(const K& key) const {
    return hash_(key) % buckets_.size();
  }
  [[nodiscard]] locks::lock_object& stripe_lock_of(std::size_t bucket) {
    return *locks_[bucket / bps_];
  }

  static std::pair<K, V>* chain_find(std::vector<std::pair<K, V>>& chain, const K& key) {
    for (auto& e : chain) {
      if (e.first == key) return &e;
    }
    return nullptr;
  }

  void note_probe(std::size_t steps) {
    const auto s = static_cast<double>(steps);
    probe_ewma_ = probe_primed_ ? 0.25 * s + 0.75 * probe_ewma_ : s;
    probe_primed_ = true;
  }

  void witness_reconfig() {
    if (in_reconfig_) ++psi_violations_;
  }

  [[nodiscard]] std::int64_t contention_skew() const {
    std::int64_t max_w = 0;
    std::int64_t total = 0;
    for (unsigned s = 0; s < active_; ++s) {
      const auto w = locks_[s]->waiting_now();
      total += w;
      max_w = w > max_w ? w : max_w;
    }
    return max_w - total / static_cast<std::int64_t>(active_);
  }

  /// Closely-coupled feedback after the guarded section, then cooperative Ψ
  /// application. Monitor/policy execution is charged per delivered
  /// observation, matching the adaptive lock's loop.
  ct::task<void> after_op(ct::context& ctx) {
    const auto delivered = feedback_point();
    if (delivered > 0) {
      co_await ctx.compute((cfg_.cost.monitor_sample_overhead + cfg_.cost.policy_execution) *
                           static_cast<std::int64_t>(delivered));
    }
    if (cfg_.adaptive && desired_ != active_) {
      co_await reconfigure_stripes(ctx, desired_);
    }
    if (cfg_.adaptive && desired_bps_ != bps_) {
      co_await reconfigure_buckets(ctx, desired_bps_);
    }
  }

  map_config cfg_;
  Hash hash_{};
  std::vector<std::unique_ptr<locks::lock_object>> locks_;  ///< all max_stripes of them
  std::vector<std::vector<std::pair<K, V>>> buckets_;
  unsigned active_{1};
  unsigned desired_{1};
  unsigned bps_{1};          ///< live buckets per stripe (second Ψ axis)
  unsigned desired_bps_{1};  ///< requested by the probe-length rule
  std::uint64_t size_{0};
  std::uint64_t resizes_{0};
  std::uint64_t bucket_growths_{0};
  bool in_reconfig_{false};
  std::uint64_t psi_violations_{0};
  double probe_ewma_{0.0};
  bool probe_primed_{false};
  commit_hook hook_;
};

}  // namespace adx::objects
