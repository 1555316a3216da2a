// Lightweight summary statistics used across the simulator, the lock
// instrumentation, and the benchmark reporting.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace adx::sim {

/// Streaming accumulator: count / mean / variance (Welford) / min / max.
class accumulator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const {
    return n_ ? min_ : 0.0;
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : 0.0;
  }

  void reset() { *this = accumulator{}; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// HDR-style log-linear histogram over non-negative integer values (latency
/// nanoseconds). Each power-of-two octave is split into 2^sub_bits linear
/// sub-buckets, so relative quantile error is bounded by 2^-sub_bits (~3% at
/// the default 5) across the whole 64-bit range while storage stays a few KB.
/// Bucket indexing is pure integer arithmetic and merge is bucket-wise
/// addition, so per-shard histograms merged in any order yield bit-identical
/// quantiles — the property the sharded tail-latency scenarios are gated on.
class log_histogram {
 public:
  explicit log_histogram(unsigned sub_bits = 5) : sub_bits_(sub_bits) {}

  void add(std::uint64_t v, std::uint64_t count = 1) {
    const std::size_t i = index_of(v);
    if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
    buckets_[i] += count;
    total_ += count;
    max_ = std::max(max_, v);
    // 128-bit accumulation: v * count alone can exceed 2^64 for wide counts,
    // and long runs of ns-scale values would silently wrap a 64-bit sum.
    sum_ += static_cast<unsigned __int128>(v) * count;
  }

  /// Bucket-wise sum; commutative and associative, so any merge tree over
  /// the same per-shard histograms produces the same result.
  void merge(const log_histogram& other) {
    if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
    total_ += other.total_;
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  /// Value at quantile q in [0, 1]: the inclusive upper bound of the bucket
  /// holding the ceil(q * total)-th sample (exact for values below 2^sub_bits,
  /// within one sub-bucket above). Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (total_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return std::min(bucket_hi(i), max_);
    }
    return max_;
  }

  [[nodiscard]] std::uint64_t p50() const { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p99() const { return quantile(0.99); }
  [[nodiscard]] std::uint64_t p999() const { return quantile(0.999); }

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0;
  }

  /// Index of the bucket recording `v` — values below 2^sub_bits map 1:1;
  /// above, the octave (msb - sub_bits) selects a block of 2^sub_bits
  /// sub-buckets and the top sub_bits bits below the msb select within it.
  [[nodiscard]] std::size_t index_of(std::uint64_t v) const {
    if (v < (1ULL << sub_bits_)) return static_cast<std::size_t>(v);
    const unsigned msb = 63U - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - sub_bits_;
    return static_cast<std::size_t>(((static_cast<std::uint64_t>(shift) + 1) << sub_bits_) +
                                    ((v >> shift) - (1ULL << sub_bits_)));
  }

  /// Inclusive upper bound of bucket i (its largest representable value).
  [[nodiscard]] std::uint64_t bucket_hi(std::size_t i) const {
    if (i < (1ULL << sub_bits_)) return i;
    const std::uint64_t block = (i >> sub_bits_) - 1;  // == shift
    const std::uint64_t sub = (i & ((1ULL << sub_bits_) - 1)) + (1ULL << sub_bits_);
    return ((sub + 1) << block) - 1;
  }

 private:
  unsigned sub_bits_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_{0};
  std::uint64_t max_{0};
  unsigned __int128 sum_{0};
};

}  // namespace adx::sim
