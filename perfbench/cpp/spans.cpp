#include "spans.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

span_log::span_log(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

std::int64_t span_log::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int span_log::begin(std::string_view name, std::string label) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::string(name), now_ns(), -1, open_.empty() ? -1 : open_.back(), std::move(label)});
  open_.push_back(id);
  return id;
}

void span_log::end(int id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span_log::end: span " + std::to_string(id) +
                           " is not the innermost open span");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::map<std::string, double> span_log::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0) continue;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

namespace {

void write_json_string(std::FILE* f, std::string_view s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

}  // namespace

bool span_log::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
    std::fputs("{\"name\":", f);
    write_json_string(f, s.name);
    std::fprintf(f,
                 ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"run_id\":",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    write_json_string(f, run_id_);
    if (!s.label.empty()) {
      std::fputs(",\"label\":", f);
      write_json_string(f, s.label);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
