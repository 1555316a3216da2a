// Shared helpers for the benchmark harness: the flag parser setup, report
// formats, and the renderers shared by several binaries (Tables 1-3, Figures
// 4-9). What each experiment runs — its grid, configs and probes — is defined
// once in perf/probes.hpp, which the adx-bench scenario registry runs too; a
// bench binary only parses its flags and renders paper columns, labels and
// prose.
//
// Every bench declares its flags through the shared `adx::cli::options`
// parser (see bench_options below): each binary gets a generated `--help`
// screen, `--name=value` / `--name value` syntax, and a clean exit-2 error
// on unknown flags — no per-bench argv scanning.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <fstream>
#include <span>
#include <string>

#include "cli/options.hpp"
#include "exec/job_executor.hpp"
#include "locks/factory.hpp"
#include "obs/report_sink.hpp"
#include "obs/tracer.hpp"
#include "perf/probes.hpp"

namespace adx::bench {

/// Paper-vs-measured tables render through the observability layer's
/// report_builder; benches keep the short historical name.
using table = obs::report_builder;

/// Starts the shared flag parser for a bench. Chain `.u64/.str/.flag`
/// declarations onto the result, then call `parse(argc, argv)`.
inline cli::options bench_options(char** argv, const char* summary) {
  return cli::options(argv != nullptr && argv[0] != nullptr ? argv[0] : "bench",
                      summary)
      .note("Clocks: figures are simulated virtual time (deterministic for a "
            "fixed seed and")
      .note("machine shape) unless a column or metric is explicitly labelled "
            "'wall' (host")
      .note("wall-clock time, noisy). adx-bench tracks both against committed "
            "baselines.");
}

/// Starts the flag parser for a *sweep* bench: bench_options plus the shared
/// `--jobs` flag. Sweep benches run every grid point as an independent
/// simulation on an exec::job_executor, so their figures are byte-identical
/// for any worker count. The federated benches pass `default_jobs = 1`:
/// there the workers drive the DES window pool, which costs more host time
/// than it saves at their window sizes.
inline cli::options bench_sweep_options(char** argv, const char* summary,
                                        std::uint64_t default_jobs = 0) {
  return bench_options(argv, summary)
      .u64("jobs", default_jobs,
           "parallel sweep workers (0 = one per host core); figures are "
           "byte-identical for any value");
}

/// Folds the declared `--jobs` flag into a concrete worker count.
inline unsigned jobs_from(const cli::options& opt) {
  return exec::resolve_jobs(opt.get_u64("jobs"));
}

/// Reads a declared `--format` flag; exits 2 on bad values.
inline obs::report_format report_format_from(const cli::options& opt) {
  const auto& s = opt.get_str("format");
  const auto f = obs::parse_report_format(s);
  if (!f) {
    std::fprintf(stderr, "unknown --format '%s' (expected table, csv or json)\n",
                 s.c_str());
    std::exit(2);
  }
  return *f;
}

/// One row of a Tables 4-8 cost table: its label and the paper's local and
/// remote figures (a negative remote: the paper gives none, so none is
/// measured either).
struct cost_row {
  const char* name;
  double paper_local;
  double paper_remote;
};

/// The whole of a Tables 4-8 bench: parses `--format` (its only flag),
/// measures row i with `measure(i, remote)` and prints paper vs measured,
/// local and remote.
template <typename Measure>
void run_cost_table(int argc, char** argv, const char* first_col, const char* title,
                    const char* preamble, std::span<const cost_row> rows,
                    Measure measure) {
  auto opt = bench_options(argv, title)
                 .str("format", "table", "report format: table|csv|json");
  opt.parse(argc, argv);
  const auto fmt = report_format_from(opt);
  table t({first_col, "paper local", "meas. local", "paper remote", "meas. remote"});
  t.title(title);
  if (preamble != nullptr) t.preamble(preamble);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const bool remote = r.paper_remote >= 0;
    t.row({r.name, table::num(r.paper_local), table::num(measure(i, false)),
           remote ? table::num(r.paper_remote) : "-",
           remote ? table::num(measure(i, true)) : "-"});
  }
  t.emit(fmt);
}

/// printf into a std::string, for report preamble/note lines.
[[gnu::format(printf, 1, 2)]] inline std::string strf(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

/// Prints the standard Tables 1-3 layout (paper row + measured row) through a
/// report_sink, honouring `--format=table|csv|json`.
inline void print_tsp_table(const char* title, tsp::variant v, int paper_blocking_ms,
                            int paper_adaptive_ms, double paper_improvement,
                            int paper_sequential_ms, int argc, char** argv) {
  perf::tsp_table_shape shape;
  auto opt = bench_options(argv, title)
                 .u64("cities", shape.cities, "TSP problem size")
                 .u64("processors", shape.processors,
                      "processors (one searcher thread each)")
                 .str("format", "table", "report format: table|csv|json");
  opt.parse(argc, argv);
  const auto fmt = report_format_from(opt);
  shape.cities = static_cast<unsigned>(opt.get_u64("cities"));
  shape.processors = static_cast<unsigned>(opt.get_u64("processors"));

  const auto r = perf::run_tsp_table(v, shape);
  const auto& blocking = r.blocking;
  const auto& adaptive = r.adaptive;

  table t({"", "sequential (ms)", "blocking lock (ms)", "adaptive lock (ms)",
           "improvement"});
  t.title(title);
  t.preamble(strf("(measured: %u cities, %u processors, 1 searcher thread/processor, "
                  "mean over %zu seeds)",
                  shape.cities, shape.processors, shape.seeds.size()));
  t.row({"paper (BBN GP1000)",
         paper_sequential_ms > 0 ? std::to_string(paper_sequential_ms) : "-",
         std::to_string(paper_blocking_ms), std::to_string(paper_adaptive_ms),
         table::pct(paper_improvement)});
  const double seq_ms = perf::sequential_virtual_ms(v, shape);
  t.row({"measured (simulator)", table::num(seq_ms, 0),
         table::num(blocking.mean_ms, 0),
         table::num(adaptive.mean_ms, 0), table::pct(r.improvement())});

  const double work_norm =
      (blocking.mean_ms_per_expansion - adaptive.mean_ms_per_expansion) /
      blocking.mean_ms_per_expansion;
  t.note(strf("work-normalized improvement (per node expanded; removes the "
              "B&B exploration luck between runs): %.1f%%",
              100 * work_norm));
  t.note(strf("qlock: blocking %.0f%% contended (peak %lld waiting) vs adaptive "
              "%.0f%% (peak %lld); expansions %llu vs %llu",
              100 * blocking.qlock_contention,
              static_cast<long long>(blocking.qlock_peak),
              100 * adaptive.qlock_contention,
              static_cast<long long>(adaptive.qlock_peak),
              static_cast<unsigned long long>(blocking.mean_expansions),
              static_cast<unsigned long long>(adaptive.mean_expansions)));
  t.note(strf("speedup over sequential: blocking %.1fx, adaptive %.1fx",
              seq_ms / blocking.mean_ms, seq_ms / adaptive.mean_ms));
  t.emit(fmt);
}

/// Runs one TSP config with pattern recording and prints the requested
/// lock's waiting-count series as an ASCII chart (Figures 4-9).
///
/// `--trace-json=PATH` additionally records a structured-event trace of the
/// run — thread run slices, lock acquire/held spans, reconfiguration
/// decisions annotated with v_i / d_c — and writes Chrome trace-event JSON
/// (Perfetto-loadable) to PATH. When tracing, the lock kind defaults to
/// adaptive (so the trace contains reconfiguration events); `--lock=KIND`
/// overrides it either way.
inline void print_pattern_figure(const char* title, tsp::variant v, bool qlock,
                                 int argc, char** argv) {
  perf::pattern_shape shape;
  auto opt = bench_options(argv, title)
                 .u64("cities", shape.cities, "TSP problem size")
                 .u64("processors", shape.processors,
                      "processors (one searcher thread each)")
                 .u64("seed", shape.seed, "instance seed")
                 .str("trace-json", "", "write Chrome trace-event JSON to PATH")
                 .str("lock", "",
                      "lock kind to trace (default blocking; adaptive when tracing)")
                 .flag("csv", "also dump the raw waiting-count series as CSV");
  opt.parse(argc, argv);
  shape.cities = static_cast<unsigned>(opt.get_u64("cities"));
  shape.processors = static_cast<unsigned>(opt.get_u64("processors"));
  shape.seed = opt.get_u64("seed");
  const auto& trace_path = opt.get_str("trace-json");
  const auto lock_name =
      !opt.get_str("lock").empty()
          ? opt.get_str("lock")
          : std::string(trace_path.empty() ? "blocking" : "adaptive");
  locks::lock_kind kind;
  try {
    kind = locks::parse_lock_kind(lock_name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--lock: %s\n", e.what());
    std::exit(2);
  }

  obs::tracer tr;
  if (!trace_path.empty()) tr.enable();
  const auto r = perf::run_pattern(v, kind, shape, trace_path.empty() ? nullptr : &tr);
  const auto& pattern = perf::pattern_series(r, qlock);
  const auto& report = perf::pattern_report(r, qlock);

  std::printf("%s\n", title);
  if (kind != locks::lock_kind::blocking) {
    std::printf("(lock kind: %s)\n", locks::to_string(kind));
  }
  std::printf("(measured: %u cities, seed %llu, %u processors; waiting threads over "
              "virtual time)\n\n",
              shape.cities, static_cast<unsigned long long>(shape.seed),
              shape.processors);
  std::printf("%s\n", pattern.ascii_chart(r.elapsed).c_str());
  std::printf("requests %llu, contended %.1f%%, peak waiting %lld, mean wait %.0f us, "
              "run %.0f ms\n",
              static_cast<unsigned long long>(report.requests),
              100 * report.contention_ratio, static_cast<long long>(report.peak_waiting),
              report.mean_wait_us, r.elapsed.ms());
  if (opt.get_flag("csv")) {
    std::printf("\n%s", pattern.to_csv().c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      std::exit(1);
    }
    out << tr.chrome_json();
    std::printf("\nChrome trace (%zu events%s) written to %s\n", tr.size(),
                tr.dropped() ? strf(", %llu dropped",
                                    static_cast<unsigned long long>(tr.dropped()))
                                   .c_str()
                             : "",
                trace_path.c_str());
  }
}

}  // namespace adx::bench
