// In-memory span log for the benchmark's traced run.
//
// A span covers one call the benchmark makes into a layer (set-up, a
// workload workload call, a probe). Spans nest on a stack: a span opened while
// another is open is its child. Everything stays in memory until the run
// ends; write_chrome_json() then emits Chrome trace-event JSON ("ph":"X"
// complete events), which chrome://tracing and Perfetto open directly.
//
// A disabled log records nothing, so the untraced run pays one branch per
// call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

class span_log {
 public:
  struct span {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};
    std::string label;  ///< which call of that name (lock kind, CS, seed)
  };

  span_log(bool enabled, std::string run_id);

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int begin(std::string_view name, std::string label = {});
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  /// Opens a span for the lifetime of the object.
  class scope {
   public:
    scope(span_log* log, std::string_view name, std::string label = {})
        : log_(log), id_(log ? log->begin(name, std::move(label)) : -1) {}
    ~scope() {
      if (log_) log_->end(id_);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    span_log* log_;
    int id_;
  };

  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

  /// Self time per span name, in seconds: each span's duration minus the
  /// durations of its direct children, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes every closed span as Chrome trace-event JSON. Returns false if
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
