// Wire-protocol codec: bit-exact round trips for every message type, strict
// rejection of malformed frames, and incremental parsing at any chunking.
#include "telemetry/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace adx::telemetry {
namespace {

message roundtrip(const message& in) {
  const std::string frame = encode_frame(in);
  frame_reader r;
  r.feed(frame);
  message out;
  EXPECT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_EQ(r.pending(), 0u);
  return out;
}

hello_msg sample_hello() { return {kProtocolVersion, "run-7", "adx-check"}; }

trace_event_msg sample_event() {
  trace_event_msg e;
  e.name = "qlock.held";
  e.cat = "lock";
  e.ph = 0;  // complete
  e.ts_ns = 123'456'789;
  e.dur_ns = 42'000;
  e.pid = 3;
  e.tid = 17;
  e.a1_key = "v_i";
  e.a1_value = -5;
  e.a2_key = "waiting";
  e.a2_value = 9;
  e.detail_key = "d_c";
  e.detail = "spin-then-block(400)";
  return e;
}

metrics_msg sample_metrics() {
  metrics_msg m;
  m.ts_ns = 999;
  m.counters = {{"lock.acquisitions", 120}, {"sim.remote_reads", 7}};
  m.gauges = {{"lock.contention_ratio", 0.375},
              {"weird", -0.0},
              {"tiny", std::numeric_limits<double>::denorm_min()}};
  hist_snapshot h;
  h.name = "lock.wait_us";
  h.min_value = 0.5;
  h.sub_per_octave = 8;
  h.bucket_count = 385;
  h.count = 3;
  h.sum = 17.25;
  h.min = 1.5;
  h.max = 12.0;
  h.buckets = {{5, 1}, {40, 2}};
  m.histograms.push_back(h);
  return m;
}

adapt_msg sample_adapt() {
  return {55'000, "qlock", "simple-adapt", "pure-spin(400)",
          "no-of-waiting-threads=3", 3};
}

TEST(Wire, RoundTripEveryMessageType) {
  EXPECT_EQ(roundtrip(message{sample_hello()}), message{sample_hello()});
  EXPECT_EQ(roundtrip(message{sample_event()}), message{sample_event()});
  EXPECT_EQ(roundtrip(message{sample_metrics()}), message{sample_metrics()});
  EXPECT_EQ(roundtrip(message{sample_adapt()}), message{sample_adapt()});
  EXPECT_EQ(roundtrip(message{progress_msg{3, 12, "mutex/spin"}}),
            message{(progress_msg{3, 12, "mutex/spin"})});
  EXPECT_EQ(roundtrip(message{result_msg{"cell-a", 1, "mutual-exclusion"}}),
            message{(result_msg{"cell-a", 1, "mutual-exclusion"})});
  EXPECT_EQ(roundtrip(message{bye_msg{99}}), message{bye_msg{99}});
}

TEST(Wire, DoublesRoundTripBitExact) {
  // Doubles travel as IEEE-754 bit patterns; NaN payload bits included.
  metrics_msg m;
  m.gauges = {{"nan", std::nan("")},
              {"inf", std::numeric_limits<double>::infinity()},
              {"neg0", -0.0},
              {"pi", 3.141592653589793}};
  const auto out = std::get<metrics_msg>(roundtrip(message{m}));
  ASSERT_EQ(out.gauges.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.gauges[i].second),
              std::bit_cast<std::uint64_t>(m.gauges[i].second))
        << m.gauges[i].first;
  }
}

TEST(Wire, IncrementalFeedByteAtATime) {
  const std::string frame = encode_frame(message{sample_event()});
  frame_reader r;
  message out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    r.feed(frame.data() + i, 1);
    EXPECT_EQ(r.next(out), frame_reader::status::need_more) << "at byte " << i;
  }
  r.feed(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_EQ(out, message{sample_event()});
}

TEST(Wire, MultipleFramesInOneBuffer) {
  std::string buf = encode_frame(message{sample_hello()}) +
                    encode_frame(message{sample_adapt()}) +
                    encode_frame(message{bye_msg{0}});
  frame_reader r;
  r.feed(buf);
  message out;
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_TRUE(std::holds_alternative<hello_msg>(out));
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_TRUE(std::holds_alternative<adapt_msg>(out));
  ASSERT_EQ(r.next(out), frame_reader::status::ok);
  EXPECT_TRUE(std::holds_alternative<bye_msg>(out));
  EXPECT_EQ(r.next(out), frame_reader::status::need_more);
}

TEST(Wire, TruncatedPayloadRejectedAtEveryPrefix) {
  // Chop the payload (not the frame header): every prefix must fail decode,
  // never misparse. The frame_reader would wait for more bytes; decoding the
  // truncated payload directly must error.
  const message m{sample_event()};
  const std::string frame = encode_frame(m);
  const std::string payload = frame.substr(5);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    message out;
    std::string err;
    EXPECT_FALSE(decode_payload(
        static_cast<std::uint8_t>(msg_type::trace_event),
        std::string_view(payload.data(), n), out, &err))
        << "prefix of " << n << " bytes decoded";
    EXPECT_FALSE(err.empty());
  }
}

TEST(Wire, TrailingBytesRejected) {
  const std::string frame = encode_frame(message{bye_msg{1}});
  std::string payload = frame.substr(5) + "x";  // one trailing byte
  message out;
  std::string err;
  EXPECT_FALSE(decode_payload(static_cast<std::uint8_t>(msg_type::bye), payload,
                              out, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST(Wire, UnknownTypeRejected) {
  message out;
  std::string err;
  EXPECT_FALSE(decode_payload(0, "", out, &err));
  EXPECT_FALSE(decode_payload(200, "", out, &err));
  EXPECT_NE(err.find("unknown"), std::string::npos);
}

TEST(Wire, OversizedFramePoisonsReader) {
  // Header claiming a > kMaxFrameBytes payload: the reader must error
  // immediately (not buffer 16 MiB of garbage) and stay failed.
  std::string bogus;
  const std::uint32_t len = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) bogus.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  bogus.push_back(2);
  frame_reader r;
  r.feed(bogus);
  message out;
  EXPECT_EQ(r.next(out), frame_reader::status::error);
  EXPECT_NE(r.error_text().find("exceeds"), std::string::npos);
  // Poisoned: even a valid frame afterwards keeps erroring.
  r.feed(encode_frame(message{bye_msg{0}}));
  EXPECT_EQ(r.next(out), frame_reader::status::error);
}

TEST(Wire, CorruptStringLengthRejected) {
  // A string whose declared length runs past the payload end.
  std::string payload;
  const std::uint32_t version = kProtocolVersion;
  for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>((version >> (8 * i)) & 0xFF));
  const std::uint32_t huge = 0xFFFFFF;
  for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  payload += "ab";
  message out;
  std::string err;
  EXPECT_FALSE(decode_payload(static_cast<std::uint8_t>(msg_type::hello), payload,
                              out, &err));
}

TEST(Wire, ObsEventConversionPreservesFields) {
  obs::event e;
  e.name = "proc.run";
  e.cat = "ct";
  e.ph = obs::phase::complete;
  e.ts = sim::vtime{5000};
  e.dur = sim::vdur{250};
  e.pid = 2;
  e.tid = 11;
  e.a1 = {"v_i", 42};
  e.detail_key = "d_c";
  e.detail = "blocking";
  const auto w = to_wire(e);
  EXPECT_EQ(w.name, "proc.run");
  EXPECT_EQ(w.cat, "ct");
  EXPECT_EQ(w.ph, static_cast<std::uint8_t>(obs::phase::complete));
  EXPECT_EQ(w.ts_ns, 5000);
  EXPECT_EQ(w.dur_ns, 250);
  EXPECT_EQ(w.a1_key, "v_i");
  EXPECT_EQ(w.a1_value, 42);
  EXPECT_TRUE(w.a2_key.empty());
  EXPECT_EQ(w.detail_key, "d_c");
  EXPECT_EQ(w.detail, "blocking");
}

TEST(Wire, MetricsSnapshotAndHistogramRestore) {
  obs::metrics m;
  m.get_counter("a.count").inc(7);
  m.get_gauge("a.ratio").set(0.25);
  auto& h = m.get_histogram("a.wait_us");
  for (const double v : {1.0, 2.0, 4.0, 100.0, 5000.0}) h.add(v);

  const auto snap = snapshot_metrics(m, 777);
  EXPECT_EQ(snap.ts_ns, 777);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);

  // Reconstructed histogram answers every query the original does.
  const auto back = restore_histogram(snap.histograms[0]);
  EXPECT_EQ(back.count(), h.count());
  EXPECT_DOUBLE_EQ(back.sum(), h.sum());
  EXPECT_DOUBLE_EQ(back.min(), h.min());
  EXPECT_DOUBLE_EQ(back.max(), h.max());
  for (const double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(back.percentile(p), h.percentile(p)) << "p" << p;
  }
}

/// A metrics frame carrying one histogram snapshot with the given geometry
/// and sparse buckets; the encoder writes whatever it is given.
std::string histogram_frame(std::uint32_t sub, std::uint32_t bucket_count,
                            std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets) {
  metrics_msg m;
  hist_snapshot h;
  h.name = "h";
  h.sub_per_octave = sub;
  h.bucket_count = bucket_count;
  h.count = buckets.size();
  h.buckets = std::move(buckets);
  m.histograms.push_back(h);
  return encode_frame(message{m});
}

TEST(Wire, HostileHistogramGeometryPoisonsReader) {
  // Each frame is tiny but would make restore_histogram allocate an
  // unbounded counter vector, or index past the one it allocates.
  constexpr std::uint32_t cap = 1 + hist_snapshot::kMaxOctaves * 8;
  const std::string hostile[] = {
      histogram_frame(1, 0xFFFFFFFFu, {}),    // ~34 GiB of counters
      histogram_frame(0, 385, {}),            // no sub-buckets
      histogram_frame(hist_snapshot::kMaxSubPerOctave + 1, 385, {}),
      histogram_frame(8, 0, {}),              // no buckets at all
      histogram_frame(8, cap + 1, {}),        // more than 64 octaves
      histogram_frame(1, 2, {{0, 1}, {1, 1}, {1, 1}}),  // more entries than buckets
      histogram_frame(8, 385, {{385, 1}}),    // index past the last bucket
  };
  for (const auto& frame : hostile) {
    frame_reader r;
    r.feed(frame);
    message out;
    EXPECT_EQ(r.next(out), frame_reader::status::error);
    EXPECT_NE(r.error_text().find("histogram"), std::string::npos) << r.error_text();
    r.feed(encode_frame(message{bye_msg{0}}));
    EXPECT_EQ(r.next(out), frame_reader::status::error);  // stays poisoned
  }
}

TEST(Wire, HistogramAtTheGeometryCapRoundTrips) {
  constexpr std::uint32_t sub = hist_snapshot::kMaxSubPerOctave;
  constexpr std::uint32_t buckets = 1 + hist_snapshot::kMaxOctaves * sub;
  const std::string frame = histogram_frame(sub, buckets, {{0, 1}, {buckets - 1, 2}});
  frame_reader r;
  r.feed(frame);
  message out;
  ASSERT_EQ(r.next(out), frame_reader::status::ok) << r.error_text();
  const auto& h = std::get<metrics_msg>(out).histograms.at(0);
  EXPECT_EQ(h.sub_per_octave, sub);
  EXPECT_EQ(h.bucket_count, buckets);
  ASSERT_EQ(h.buckets.size(), 2u);
  EXPECT_EQ(h.buckets[1].first, buckets - 1);
  EXPECT_EQ(restore_histogram(h).bucket_count(), buckets);
}

TEST(Wire, ParseEndpointForms) {
  auto ep = parse_endpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->k, endpoint::kind::unix_domain);
  EXPECT_EQ(ep->path, "/tmp/x.sock");

  ep = parse_endpoint("/tmp/bare-path.sock");
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->k, endpoint::kind::unix_domain);

  ep = parse_endpoint("tcp:127.0.0.1:9314");
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->k, endpoint::kind::tcp);
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 9314);

  std::string err;
  EXPECT_FALSE(parse_endpoint("unix:", &err));
  EXPECT_FALSE(parse_endpoint("tcp:nohost", &err));
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:0", &err));
  EXPECT_FALSE(parse_endpoint("tcp:127.0.0.1:70000", &err));
  EXPECT_FALSE(parse_endpoint("garbage", &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace adx::telemetry
