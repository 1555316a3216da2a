#include "telemetry/wire.hpp"

#include <bit>
#include <cstring>

namespace adx::telemetry {
namespace {

// ------- little-endian primitive writers (append to a string) -------

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

// ------- strict cursor-based reader -------

struct cursor {
  std::string_view buf;
  std::size_t pos{0};
  bool ok{true};
  const char* fault = "truncated field";  ///< why ok went false

  void fail(const char* why) {
    ok = false;
    fault = why;
  }

  [[nodiscard]] bool have(std::size_t n) const { return ok && buf.size() - pos >= n; }

  std::uint8_t u8() {
    if (!have(1)) { ok = false; return 0; }
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint32_t u32() {
    if (!have(4)) { ok = false; return 0; }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos + static_cast<std::size_t>(i)])) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!have(8)) { ok = false; return 0; }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos + static_cast<std::size_t>(i)])) << (8 * i);
    pos += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!have(n)) { ok = false; return {}; }
    std::string s(buf.substr(pos, n));
    pos += n;
    return s;
  }
  /// Decode succeeded iff every field parsed AND the payload is spent.
  [[nodiscard]] bool done() const { return ok && pos == buf.size(); }
};

void encode_payload(std::string& out, const hello_msg& m) {
  put_u32(out, m.version);
  put_str(out, m.run_id);
  put_str(out, m.producer);
}

void encode_payload(std::string& out, const trace_event_msg& m) {
  put_str(out, m.name);
  put_str(out, m.cat);
  put_u8(out, m.ph);
  put_i64(out, m.ts_ns);
  put_i64(out, m.dur_ns);
  put_u32(out, m.pid);
  put_u32(out, m.tid);
  put_str(out, m.a1_key);
  put_i64(out, m.a1_value);
  put_str(out, m.a2_key);
  put_i64(out, m.a2_value);
  put_str(out, m.detail_key);
  put_str(out, m.detail);
}

void encode_payload(std::string& out, const metrics_msg& m) {
  put_i64(out, m.ts_ns);
  put_u32(out, static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [k, v] : m.counters) {
    put_str(out, k);
    put_u64(out, v);
  }
  put_u32(out, static_cast<std::uint32_t>(m.gauges.size()));
  for (const auto& [k, v] : m.gauges) {
    put_str(out, k);
    put_f64(out, v);
  }
  put_u32(out, static_cast<std::uint32_t>(m.histograms.size()));
  for (const auto& h : m.histograms) {
    put_str(out, h.name);
    put_f64(out, h.min_value);
    put_u32(out, h.sub_per_octave);
    put_u32(out, h.bucket_count);
    put_u64(out, h.count);
    put_f64(out, h.sum);
    put_f64(out, h.min);
    put_f64(out, h.max);
    put_u32(out, static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [i, n] : h.buckets) {
      put_u32(out, i);
      put_u64(out, n);
    }
  }
}

void encode_payload(std::string& out, const adapt_msg& m) {
  put_i64(out, m.ts_ns);
  put_str(out, m.object);
  put_str(out, m.policy);
  put_str(out, m.decision);
  put_str(out, m.sensors);
  put_i64(out, m.sensor_value);
}

void encode_payload(std::string& out, const progress_msg& m) {
  put_u64(out, m.done);
  put_u64(out, m.total);
  put_str(out, m.label);
}

void encode_payload(std::string& out, const result_msg& m) {
  put_str(out, m.label);
  put_u8(out, m.failed);
  put_str(out, m.detail);
}

void encode_payload(std::string& out, const bye_msg& m) { put_u64(out, m.dropped); }

bool decode_body(cursor& c, hello_msg& m) {
  m.version = c.u32();
  m.run_id = c.str();
  m.producer = c.str();
  return c.done();
}

bool decode_body(cursor& c, trace_event_msg& m) {
  m.name = c.str();
  m.cat = c.str();
  m.ph = c.u8();
  m.ts_ns = c.i64();
  m.dur_ns = c.i64();
  m.pid = c.u32();
  m.tid = c.u32();
  m.a1_key = c.str();
  m.a1_value = c.i64();
  m.a2_key = c.str();
  m.a2_value = c.i64();
  m.detail_key = c.str();
  m.detail = c.str();
  return c.done();
}

bool decode_body(cursor& c, metrics_msg& m) {
  m.ts_ns = c.i64();
  const std::uint32_t nc = c.u32();
  for (std::uint32_t i = 0; i < nc && c.ok; ++i) {
    std::string k = c.str();
    const std::uint64_t v = c.u64();
    m.counters.emplace_back(std::move(k), v);
  }
  const std::uint32_t ng = c.u32();
  for (std::uint32_t i = 0; i < ng && c.ok; ++i) {
    std::string k = c.str();
    const double v = c.f64();
    m.gauges.emplace_back(std::move(k), v);
  }
  const std::uint32_t nh = c.u32();
  for (std::uint32_t i = 0; i < nh && c.ok; ++i) {
    hist_snapshot h;
    h.name = c.str();
    h.min_value = c.f64();
    h.sub_per_octave = c.u32();
    h.bucket_count = c.u32();
    h.count = c.u64();
    h.sum = c.f64();
    h.min = c.f64();
    h.max = c.f64();
    const std::uint32_t nb = c.u32();
    if (c.ok && (h.sub_per_octave == 0 || h.sub_per_octave > hist_snapshot::kMaxSubPerOctave ||
                 h.bucket_count == 0 ||
                 h.bucket_count > 1 + hist_snapshot::kMaxOctaves * h.sub_per_octave ||
                 nb > h.bucket_count)) {
      c.fail("histogram geometry out of range");
    }
    for (std::uint32_t j = 0; j < nb && c.ok; ++j) {
      const std::uint32_t idx = c.u32();
      const std::uint64_t n = c.u64();
      if (c.ok && idx >= h.bucket_count) c.fail("histogram bucket index out of range");
      h.buckets.emplace_back(idx, n);
    }
    m.histograms.push_back(std::move(h));
  }
  return c.done();
}

bool decode_body(cursor& c, adapt_msg& m) {
  m.ts_ns = c.i64();
  m.object = c.str();
  m.policy = c.str();
  m.decision = c.str();
  m.sensors = c.str();
  m.sensor_value = c.i64();
  return c.done();
}

bool decode_body(cursor& c, progress_msg& m) {
  m.done = c.u64();
  m.total = c.u64();
  m.label = c.str();
  return c.done();
}

bool decode_body(cursor& c, result_msg& m) {
  m.label = c.str();
  m.failed = c.u8();
  m.detail = c.str();
  return c.done();
}

bool decode_body(cursor& c, bye_msg& m) {
  m.dropped = c.u64();
  return c.done();
}

template <typename T>
bool decode_as(std::string_view payload, message& out, std::string* err,
               const char* what) {
  cursor c{payload};
  T m;
  if (!decode_body(c, m)) {
    if (err != nullptr) {
      *err = std::string("malformed ") + what + " payload (" +
             (c.ok ? "trailing bytes" : c.fault) + ")";
    }
    return false;
  }
  out = std::move(m);
  return true;
}

}  // namespace

msg_type type_of(const message& m) {
  switch (m.index()) {
    case 0: return msg_type::hello;
    case 1: return msg_type::trace_event;
    case 2: return msg_type::metrics;
    case 3: return msg_type::adapt;
    case 4: return msg_type::progress;
    case 5: return msg_type::result;
    default: return msg_type::bye;
  }
}

std::string encode_frame(const message& m) {
  std::string payload;
  std::visit([&payload](const auto& msg) { encode_payload(payload, msg); }, m);
  std::string frame;
  frame.reserve(5 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u8(frame, static_cast<std::uint8_t>(type_of(m)));
  frame += payload;
  return frame;
}

bool decode_payload(std::uint8_t type, std::string_view payload, message& out,
                    std::string* err) {
  switch (static_cast<msg_type>(type)) {
    case msg_type::hello: return decode_as<hello_msg>(payload, out, err, "hello");
    case msg_type::trace_event:
      return decode_as<trace_event_msg>(payload, out, err, "trace_event");
    case msg_type::metrics: return decode_as<metrics_msg>(payload, out, err, "metrics");
    case msg_type::adapt: return decode_as<adapt_msg>(payload, out, err, "adapt");
    case msg_type::progress: return decode_as<progress_msg>(payload, out, err, "progress");
    case msg_type::result: return decode_as<result_msg>(payload, out, err, "result");
    case msg_type::bye: return decode_as<bye_msg>(payload, out, err, "bye");
  }
  if (err != nullptr) *err = "unknown message type " + std::to_string(type);
  return false;
}

frame_reader::status frame_reader::next(message& out) {
  if (failed_) return status::error;
  // Compact the buffer when consumed bytes dominate, so a long-lived stream
  // doesn't hold its whole history in memory.
  if (pos_ > 0 && pos_ >= buf_.size() / 2 && buf_.size() > 4096) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 5) return status::need_more;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf_[pos_ + static_cast<std::size_t>(i)])) << (8 * i);
  if (len > kMaxFrameBytes) {
    failed_ = true;
    error_ = "frame length " + std::to_string(len) + " exceeds limit " +
             std::to_string(kMaxFrameBytes);
    return status::error;
  }
  if (avail < 5 + static_cast<std::size_t>(len)) return status::need_more;
  const auto type = static_cast<std::uint8_t>(buf_[pos_ + 4]);
  const std::string_view payload(buf_.data() + pos_ + 5, len);
  std::string err;
  if (!decode_payload(type, payload, out, &err)) {
    failed_ = true;
    error_ = err;
    return status::error;
  }
  pos_ += 5 + static_cast<std::size_t>(len);
  return status::ok;
}

trace_event_msg to_wire(const obs::event& e) {
  trace_event_msg m;
  m.name = e.name;
  m.cat = e.cat != nullptr ? e.cat : "";
  m.ph = static_cast<std::uint8_t>(e.ph);
  m.ts_ns = e.ts.ns;
  m.dur_ns = e.dur.ns;
  m.pid = e.pid;
  m.tid = e.tid;
  if (e.a1.present()) {
    m.a1_key = e.a1.key;
    m.a1_value = e.a1.value;
  }
  if (e.a2.present()) {
    m.a2_key = e.a2.key;
    m.a2_value = e.a2.value;
  }
  if (e.detail_key != nullptr) {
    m.detail_key = e.detail_key;
    m.detail = e.detail;
  }
  return m;
}

metrics_msg snapshot_metrics(const obs::metrics& m, std::int64_t ts_ns) {
  metrics_msg out;
  out.ts_ns = ts_ns;
  for (const auto& [k, c] : m.counters()) out.counters.emplace_back(k, c.value());
  for (const auto& [k, g] : m.gauges()) out.gauges.emplace_back(k, g.value());
  for (const auto& [k, h] : m.histograms()) {
    hist_snapshot s;
    s.name = k;
    s.min_value = h.min_value();
    s.sub_per_octave = h.sub_per_octave();
    s.bucket_count = static_cast<std::uint32_t>(h.bucket_count());
    s.count = h.count();
    s.sum = h.sum();
    s.min = h.min();
    s.max = h.max();
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (h.bucket(i) != 0) {
        s.buckets.emplace_back(static_cast<std::uint32_t>(i), h.bucket(i));
      }
    }
    out.histograms.push_back(std::move(s));
  }
  return out;
}

obs::log_histogram restore_histogram(const hist_snapshot& h) {
  const unsigned sub = h.sub_per_octave == 0 ? 1 : h.sub_per_octave;
  // bucket_count = 1 + octaves * sub; recover the octave count (rounded up
  // so a snapshot with a mismatched count never loses top buckets).
  const unsigned octaves =
      h.bucket_count > 1 ? (h.bucket_count - 1 + sub - 1) / sub : 1;
  obs::log_histogram out(h.min_value, sub, octaves);
  out.restore(h.count, h.sum, h.min, h.max, h.buckets);
  return out;
}

std::optional<endpoint> parse_endpoint(std::string_view text, std::string* err) {
  endpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.k = endpoint::kind::unix_domain;
    ep.path = std::string(text.substr(5));
    if (ep.path.empty()) {
      if (err != nullptr) *err = "unix endpoint needs a path";
      return std::nullopt;
    }
    return ep;
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string_view rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0 || colon + 1 == rest.size()) {
      if (err != nullptr) *err = "tcp endpoint must be tcp:HOST:PORT";
      return std::nullopt;
    }
    ep.k = endpoint::kind::tcp;
    ep.host = std::string(rest.substr(0, colon));
    std::uint32_t port = 0;
    for (const char ch : rest.substr(colon + 1)) {
      if (ch < '0' || ch > '9') {
        if (err != nullptr) *err = "tcp port must be numeric";
        return std::nullopt;
      }
      port = port * 10 + static_cast<std::uint32_t>(ch - '0');
      if (port > 65535) {
        if (err != nullptr) *err = "tcp port out of range";
        return std::nullopt;
      }
    }
    if (port == 0) {
      if (err != nullptr) *err = "tcp port must be non-zero";
      return std::nullopt;
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  if (text.find('/') != std::string_view::npos) {
    ep.k = endpoint::kind::unix_domain;
    ep.path = std::string(text);
    return ep;
  }
  if (err != nullptr) {
    *err = "endpoint must be unix:PATH, tcp:HOST:PORT, or a filesystem path";
  }
  return std::nullopt;
}

}  // namespace adx::telemetry
