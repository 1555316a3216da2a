#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace adx::obs {
namespace {

TEST(Tracer, DisabledByDefault) {
  tracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_TRUE(t.empty());
}

TEST(Tracer, DisabledFastPathNeverAllocates) {
  tracer t;
  for (int i = 0; i < 1000; ++i) {
    t.complete("span", "cat", sim::vtime{100}, sim::vdur{50}, 0, 1);
    t.instant("mark", "cat", sim::vtime{100}, 0, 1);
    t.counter("gauge", "cat", sim::vtime{100}, 0, 7);
  }
  EXPECT_TRUE(t.empty());
  // The event vector must never have been touched: no reserve, no push.
  EXPECT_EQ(t.events().capacity(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RecordsWhenEnabled) {
  tracer t;
  t.enable();
  t.complete("span", "lock", sim::vtime{2000}, sim::vdur{500}, 3, 7);
  t.instant("mark", "ct", sim::vtime{2500}, 3, 7, {"v_i", 4});
  t.counter("depth", "lock", sim::vtime{3000}, 3, 9);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.events()[0].name, "span");
  EXPECT_EQ(t.events()[0].ph, phase::complete);
  EXPECT_EQ(t.events()[0].dur.ns, 500);
  EXPECT_EQ(t.events()[1].a1.value, 4);
  EXPECT_EQ(t.events()[2].a1.value, 9);
}

TEST(Tracer, ExportsSortedByVirtualTime) {
  tracer t;
  t.enable();
  t.instant("late", "c", sim::vtime{3000}, 0, 0);
  t.instant("early", "c", sim::vtime{1000}, 0, 0);
  t.instant("mid", "c", sim::vtime{2000}, 0, 0);
  const auto json = t.chrome_json();
  const auto e = json.find("early");
  const auto m = json.find("mid");
  const auto l = json.find("late");
  ASSERT_NE(e, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(l, std::string::npos);
  EXPECT_LT(e, m);
  EXPECT_LT(m, l);

  const auto csv = t.csv();
  EXPECT_LT(csv.find("early"), csv.find("mid"));
  EXPECT_LT(csv.find("mid"), csv.find("late"));
}

TEST(Tracer, TimestampTiesKeepRecordingOrder) {
  tracer t;
  t.enable();
  t.instant("first", "c", sim::vtime{500}, 0, 0);
  t.instant("second", "c", sim::vtime{500}, 0, 0);
  const auto json = t.chrome_json();
  EXPECT_LT(json.find("first"), json.find("second"));
}

TEST(Tracer, LimitCapsStorageAndCountsDropped) {
  tracer t;
  t.enable();
  t.set_limit(2);
  for (std::uint64_t i = 0; i < 5; ++i) t.instant("e", "c", sim::vtime{i}, 0, 0);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
  EXPECT_NE(t.chrome_json().find("\"droppedEvents\":3"), std::string::npos);
}

TEST(Tracer, ClearResets) {
  tracer t;
  t.enable();
  t.set_limit(1);
  t.instant("a", "c", sim::vtime{1}, 0, 0);
  t.instant("b", "c", sim::vtime{2}, 0, 0);
  EXPECT_EQ(t.dropped(), 1u);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.enabled()) << "clear drops events, not the enable state";
}

}  // namespace
}  // namespace adx::obs
