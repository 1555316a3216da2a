#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace adx::sim {
namespace {

TEST(Accumulator, EmptyIsZeroed) {
  accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, SingleValue) {
  accumulator a;
  a.add(5.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, MeanMinMaxSum) {
  accumulator a;
  for (double v : {1.0, 2.0, 3.0, 4.0}) a.add(v);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
}

TEST(Accumulator, SampleVariance) {
  accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_NEAR(a.variance(), 4.571428, 1e-5);  // n-1 denominator
}

TEST(Accumulator, NegativeValues) {
  accumulator a;
  a.add(-3.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
}

TEST(Accumulator, ResetClears) {
  accumulator a;
  a.add(1.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(LogHistogram, EmptyQuantileIsZero) {
  log_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, ExactBelowSubBucketRange) {
  // With sub_bits = 5, values below 2^5 get one bucket each: quantiles in
  // that range are exact, not approximations.
  log_histogram h(5);
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(h.index_of(v), v);
    EXPECT_EQ(h.bucket_hi(v), v);
    h.add(v);
  }
  EXPECT_EQ(h.quantile(0.5), 15u);
  EXPECT_EQ(h.quantile(1.0), 31u);
  EXPECT_EQ(h.max(), 31u);
}

TEST(LogHistogram, IndexAndBucketHiRoundTrip) {
  log_histogram h(5);
  for (const std::uint64_t v : {32ULL, 33ULL, 63ULL, 64ULL, 1000ULL, 65'535ULL,
                                1ULL << 30, (1ULL << 40) + 12345ULL}) {
    const auto i = h.index_of(v);
    // v lands in bucket i: above the previous bucket's ceiling, at or below
    // its own.
    EXPECT_GE(h.bucket_hi(i), v) << v;
    EXPECT_LT(h.bucket_hi(i - 1), v) << v;
    // Log-linear error bound: the sub-bucket width is at most v / 2^sub_bits.
    EXPECT_LE(h.bucket_hi(i) - v, v / 32) << v;
  }
}

TEST(LogHistogram, QuantileClampsToObservedMax) {
  log_histogram h;
  h.add(1000);  // bucket ceiling is above 1000, but 1000 is the real max
  EXPECT_EQ(h.quantile(0.5), 1000u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(LogHistogram, MergeMatchesSequentialAdds) {
  log_histogram all, odd, even;
  std::uint64_t x = 99;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto v = (x >> 33) % 1'000'000;
    all.add(v);
    (i % 2 ? odd : even).add(v);
  }
  even.merge(odd);
  EXPECT_EQ(even.count(), all.count());
  EXPECT_EQ(even.max(), all.max());
  EXPECT_DOUBLE_EQ(even.mean(), all.mean());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(even.quantile(q), all.quantile(q)) << q;
  }
}

TEST(LogHistogram, WeightedAddCountsEverySample) {
  log_histogram h;
  h.add(10, 7);
  h.add(1'000'000, 3);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.quantile(0.5), 10u);
  EXPECT_GT(h.quantile(0.95), 900'000u);
}

TEST(LogHistogram, SumSurvivesPastUint64) {
  // v * count alone exceeds 2^64 here; a 64-bit sum would wrap and report a
  // tiny mean. The 128-bit accumulator keeps the mean exact.
  log_histogram h;
  const std::uint64_t v = 1ULL << 40;
  h.add(v, 1ULL << 25);  // v * count == 2^65
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(v));

  log_histogram other;
  other.add(v, 1ULL << 25);
  h.merge(other);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(v));
}

}  // namespace
}  // namespace adx::sim
