// adx_perfbench — runs one benchmark workload and prints its metrics.
//
//   adx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --out-dir <dir> [--commit <id>]
//
// Untraced (--trace 0): sets the workload up several times, runs one
// warm-up pass, then timed passes for --seconds, and prints the end-to-end
// metrics. Every set-up and pass is bracketed by runs of a reference kernel
// that measures the host's speed of the moment. Traced (--trace 1):
// alternates untraced and traced passes for --seconds, then runs a
// Ψ-counting pass with a telemetry dump and the layer probes; prints the
// per-layer metrics.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Exit status 0 when a result was printed, 1 on an error, 2 on bad arguments,
// 3 when the build or host cannot give trustworthy numbers; no result is
// printed unless the status is 0.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <queue>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"
#include "telemetry/wire.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace lk = adx::locks;
using clock_type = std::chrono::steady_clock;

/// Set-up is timed at least kMinSetups and at most kMaxSetups times,
/// stopping once kSetupBudgetS has passed. A fixed ceiling keeps the
/// allocator's history, and so peak_rss_mb, the same in every run. A set-up
/// shorter than kMinTimedS (cs_sweep's takes ~70 µs) is timed as the mean
/// of a batch of that many seconds, so that per-call jitter does not
/// dominate it.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 20;
constexpr double kSetupBudgetS = 2.5;
constexpr double kMinTimedS = 0.005;

struct args {
  workload_id id = workload_id::serve_seq;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "adx_perfbench: %s\nusage: adx_perfbench --workload "
               "serve_seq|serve_sharded|cs_sweep|tsp_central --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--commit ID]\n",
               msg);
  std::exit(2);
}

args parse_args(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        const auto w = parse_workload(val);
        if (!w) usage(("unknown workload " + val).c_str());
        a.id = *w;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds must be in (0, 120]");
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace must be 0 or 1");
        a.trace = val == "1";
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else if (key == "--commit") {
        a.commit = val;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key + ": " + val).c_str());
    }
  }
  return a;
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is no substitute: Linux carries it across execve, so it would
/// report the launching interpreter's footprint.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct metric {
  std::string name;
  double value;
  const char* unit;
};

volatile std::uint64_t g_kernel_sink;

/// Host seconds of a fixed amount of work written here, with no library
/// code: a measure of the host's single-thread speed of the moment. It does
/// what the simulator spends its time on: binary-heap pops and pushes of
/// timestamped events, each touching a random slot of a table of kSlots
/// words.
template <std::size_t kSlots>
double heap_kernel_s() {
  constexpr std::uint32_t kPending = 4096;
  constexpr int kSteps = 150'000;
  static std::vector<std::uint64_t> table(kSlots, 1);
  using event = std::pair<std::uint64_t, std::uint32_t>;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = clock_type::now();
  std::priority_queue<event, std::vector<event>, std::greater<>> pq;
  for (std::uint32_t i = 0; i < kPending; ++i) pq.emplace(next() & 0xffff, i);
  std::uint64_t sum = 0;
  for (int i = 0; i < kSteps; ++i) {
    const auto [t, id] = pq.top();
    pq.pop();
    auto& slot = table[(next() ^ id) & (kSlots - 1)];
    slot += t;
    sum += slot;
    pq.emplace(t + (next() & 0xfff) + 1, id);
  }
  const double s = seconds_since(t0);
  g_kernel_sink = g_kernel_sink + sum;
  return s;
}

/// Host seconds of kRounds hand-offs between this thread and a helper, in
/// the way an executor round wakes its workers and waits for them (mutex,
/// condition variables): a measure of the host's thread wake-up latency of
/// the moment.
double handoff_kernel_s() {
  constexpr int kRounds = 6000;
  std::mutex mu;
  std::condition_variable wake, done;
  std::uint64_t generation = 0;
  bool finished = false;
  bool stop = false;
  std::uint64_t work = 0;
  std::thread helper([&] {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> l(mu);
      wake.wait(l, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      work += seen * 7;
      finished = true;
      l.unlock();
      done.notify_all();
    }
  });
  const auto t0 = clock_type::now();
  for (int r = 0; r < kRounds; ++r) {
    {
      const std::lock_guard<std::mutex> l(mu);
      finished = false;
      ++generation;
    }
    wake.notify_all();
    std::unique_lock<std::mutex> l(mu);
    done.wait(l, [&] { return finished; });
  }
  const double s = seconds_since(t0);
  {
    const std::lock_guard<std::mutex> l(mu);
    stop = true;
  }
  wake.notify_all();
  helper.join();
  g_kernel_sink = g_kernel_sink + work;
  return s;
}

/// The reference kernels a workload's host time is measured against: the
/// heap kernel over a table the size of L2 and over one the size of a
/// share of L3 (the host's slow phases hit the memory hierarchy as well as
/// the cores); for serve_sharded, whose host time goes mostly to window
/// hand-offs between its threads, the hand-off kernel alone. When the
/// host steals CPU time, hand-offs slow down far more than single-thread
/// work, and only a kernel that hands off the same way tracks them.
struct reference {
  bool handoff = false;

  [[nodiscard]] double run_s() const {
    if (handoff) return handoff_kernel_s();
    return heap_kernel_s<std::size_t{1} << 15>()     // 256 KiB
           + heap_kernel_s<std::size_t{1} << 19>();  // 4 MiB
  }
  /// run_s()'s typical value on the host the README's figures were taken
  /// on (4-vCPU shared VM, g++ 12.2, Release). Host times are reported as
  /// if measured there.
  [[nodiscard]] double nominal_s() const { return handoff ? 0.106 : 0.023 + 0.033; }
};

/// Host seconds of the timed pieces of work of one phase (set-ups or
/// passes), each bracketed by runs of the reference kernels.
struct phase {
  explicit phase(reference k) : kernels(k) {}

  reference kernels;
  std::vector<double> work_s;
  std::vector<double> ref_s;  ///< before the first piece and after each

  /// Runs `work`, which returns the host seconds of the piece it timed,
  /// followed by the reference kernels.
  template <class F>
  void time(F&& work) {
    if (ref_s.empty()) ref_s.push_back(kernels.run_s());
    work_s.push_back(work());
    ref_s.push_back(kernels.run_s());
  }

  [[nodiscard]] double best_s() const { return *std::min_element(work_s.begin(), work_s.end()); }

  /// Each piece's host time ÷ its kernel reading, the mean of the kernel
  /// runs on either side of it. Every piece does identical work, and the
  /// host's slow phases, which can last whole runs, slow the kernels and
  /// the work next to them alike; the ratio cancels them.
  [[nodiscard]] std::vector<double> relative() const {
    std::vector<double> rel;
    for (std::size_t i = 0; i < work_s.size(); ++i) {
      rel.push_back(work_s[i] / ((ref_s[i] + ref_s[i + 1]) / 2));
    }
    return rel;
  }

  /// A set-up's host time on the nominal host: the geometric mean of two
  /// ratios, which fail in different ways, × the kernels' nominal time:
  ///  - fastest piece ÷ fastest kernel reading: exact when the run has a
  ///    quiet stretch, thrown off by one lucky reading;
  ///  - the median of relative(): robust to single readings, but off when
  ///    the piece and the kernels slow by different factors in a phase that
  ///    covers part of the run.
  [[nodiscard]] double nominal_s() const {
    std::vector<double> reading;
    for (std::size_t i = 0; i < work_s.size(); ++i) {
      reading.push_back((ref_s[i] + ref_s[i + 1]) / 2);
    }
    const double fastest = best_s() / *std::min_element(reading.begin(), reading.end());
    return std::sqrt(fastest * median(relative())) * kernels.nominal_s();
  }

  /// A pass's host time on the nominal host: the lower quartile of
  /// relative() × the kernels' nominal time. Interference only adds time,
  /// so the low side is the pass's own cost; a quartile rather than the
  /// minimum keeps one lucky pair of piece and reading from setting it.
  /// Each pass is paired with its own reading, so phases that cover part
  /// of the run cancel too.
  [[nodiscard]] double nominal_q1_s() const {
    auto rel = relative();
    std::sort(rel.begin(), rel.end());
    const double pos = 0.25 * static_cast<double>(rel.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, rel.size() - 1);
    const double q1 = rel[lo] + (pos - static_cast<double>(lo)) * (rel[hi] - rel[lo]);
    return q1 * kernels.nominal_s();
  }
};

struct totals {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;

  void add(const pass_result& p) {
    attempted += p.ops_attempted;
    failed += p.ops_failed;
    for (const auto& f : p.failures) {
      if (failures.size() < 20) failures.push_back(f);
    }
  }
};

/// Runs one checked pass, timed into `ph`. The pass's virtual table must
/// repeat `ref`'s digest exactly.
void timed_pass(workload& w, span_log* spans, const pass_result& ref, totals& tot, phase& ph) {
  pass_result p;
  ph.time([&] {
    const auto t0 = clock_type::now();
    p = w.run_pass(spans);
    return seconds_since(t0);
  });
  if (p.digest != ref.digest && p.ops_failed == 0) {
    p.ops_failed = p.ops_attempted;
    p.failures.push_back("virtual results differ from the warm-up pass on the same seed");
  }
  tot.add(p);
}

struct dump_stats {
  std::uint64_t frames{0};
  std::uint64_t adapt{0};
  std::uint64_t bytes{0};
};

dump_stats read_dump(const std::string& path) {
  dump_stats d;
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  d.bytes = bytes.size();
  adx::telemetry::frame_reader r;
  r.feed(bytes);
  adx::telemetry::message m;
  while (r.next(m) == adx::telemetry::frame_reader::status::ok) {
    ++d.frames;
    if (std::holds_alternative<adx::telemetry::adapt_msg>(m)) ++d.adapt;
  }
  return d;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string metrics_json(const std::vector<metric>& ms) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

int run(const args& a) {
  // Guards: numbers from a debug build or an oversubscribed host are never
  // reported.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (build_type != "Release" || asserts_on) {
    std::fprintf(stderr,
                 "adx_perfbench: refusing to measure a '%s' build (assertions %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), asserts_on ? "on" : "off");
    return 3;
  }
  options opt;
  opt.id = a.id;
  opt.seed = a.seed;
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string stem = a.out_dir + "/" + to_string(a.id) + "-seed" + std::to_string(a.seed) +
                           (a.trace ? "-trace" : "");
  if (a.id == workload_id::serve_sharded) opt.telemetry_dump = stem + "-telemetry.bin";
  const unsigned cpus = host_cpus();
  if (host_threads(opt) > cpus) {
    std::fprintf(stderr,
                 "adx_perfbench: workload %s needs %u host threads but only %u CPUs are "
                 "available; refusing to measure\n",
                 to_string(a.id), host_threads(opt), cpus);
    return 3;
  }
  std::printf("# perfbench meta: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %u, \"host_threads\": %u, \"compiler\": \"%s\", \"build_type\": "
              "\"%s\", \"commit\": \"%s\"}\n",
              to_string(a.id), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0, cpus,
              host_threads(opt), json_escape(PERFBENCH_COMPILER).c_str(), build_type.c_str(),
              json_escape(a.commit).c_str());
  std::fflush(stdout);

  span_log log(a.trace, std::string(to_string(a.id)) + "-seed" + std::to_string(a.seed));
  span_log* spans = a.trace ? &log : nullptr;

  // ---- set-up, several times, between runs of the reference kernels;
  // the last one is kept. The traced run records spans for the first.
  const reference kernels{a.id == workload_id::serve_sharded};
  (void)kernels.run_s();  // faults the kernels' tables in
  phase setups(kernels);
  std::unique_ptr<workload> w;
  std::size_t batch = 1;
  const auto setup_start = clock_type::now();
  while (setups.work_s.size() < kMinSetups ||
         (setups.work_s.size() < kMaxSetups && seconds_since(setup_start) < kSetupBudgetS)) {
    setups.time([&] {
      double s = 0;
      for (std::size_t i = 0; i < batch; ++i) {
        w.reset();  // one telemetry client at a time
        const auto t0 = clock_type::now();
        w = workload::setup(opt, setups.work_s.empty() && i == 0 ? spans : nullptr);
        s += seconds_since(t0);
      }
      return s / static_cast<double>(batch);
    });
    if (setups.work_s.size() == 1) {
      batch = static_cast<std::size_t>(std::clamp(kMinTimedS / setups.work_s[0], 1.0, 1000.0));
    }
  }

  // ---- warm-up pass: checked, gives the reference virtual table.
  totals tot;
  const pass_result ref = w->run_pass(nullptr);
  tot.add(ref);

  // ---- timed passes. The traced run alternates untraced and traced
  // passes, so that both see the same phases of the host's load.
  phase untraced(kernels);
  phase traced(kernels);
  const auto start = clock_type::now();
  while (untraced.work_s.size() < 3 || seconds_since(start) < a.seconds) {
    timed_pass(*w, nullptr, ref, tot, untraced);
    if (a.trace) timed_pass(*w, spans, ref, tot, traced);
  }
  const double rss = peak_rss_mib();

  std::vector<metric> ms;
  const double pass_s = untraced.best_s();
  const double ops = static_cast<double>(ref.ops_done);
  if (!a.trace) {
    ms = {
        {"sim_ops_per_s", ops / untraced.nominal_q1_s(), "1/s"},
        {"setup_s", setups.nominal_s(), "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"virt_makespan_ms", ref.virt_makespan_ms, "ms"},
        {"adaptive_regret", ref.adaptive_regret, "ratio"},
    };
  } else {
    // Telemetry the workload itself published (serve_sharded), per pass.
    const double passes = static_cast<double>(1 + untraced.work_s.size() + traced.work_s.size());
    dump_stats own{};
    double dropped = 0;
    if (auto* c = w->telemetry_client()) {
      c->flush();
      dropped = static_cast<double>(c->dropped()) / passes;
      w->close_telemetry();
      own = read_dump(opt.telemetry_dump);
    }

    // Ψ decisions of the adaptive calls, counted from a dump with rings
    // large enough that nothing is dropped.
    const std::string psi_path = stem + "-psi.bin";
    std::uint64_t adaptive_acq = 0;
    std::uint64_t psi_dropped = 0;
    {
      span_log::scope s(spans, "count_psi");
      adx::telemetry::client_options copt;
      copt.dump_path = psi_path;
      copt.run_id = "perfbench-psi";
      copt.producer = "perfbench";
      copt.ring_capacity = std::size_t{1} << 16;
      std::string err;
      auto c = adx::telemetry::client::open(copt, &err);
      if (!c) {
        std::fprintf(stderr, "adx_perfbench: telemetry dump: %s\n", err.c_str());
        return 1;
      }
      adaptive_acq = w->run_pass(spans).counts.adaptive_acquisitions;
      c->flush();
      psi_dropped = c->dropped();
    }
    const dump_stats psi = read_dump(psi_path);
    std::filesystem::remove(psi_path, ec);
    if (psi_dropped != 0) {
      std::fprintf(stderr, "adx_perfbench: warning: %llu Ψ frames dropped; count is low\n",
                   static_cast<unsigned long long>(psi_dropped));
    }

    // Probes.
    const auto shape = shape_of(a.id);
    auto probe = [&](const char* name, auto&& fn) {
      span_log::scope s(spans, std::string("probe.") + name);
      return fn();
    };
    const double event_ns = probe("event", [&] { return probe_event_ns(shape); });
    const double window_ns = probe("window", [&] { return probe_window_ns(shape); });
    const double round_ns = probe("exec_round", [&] { return probe_exec_round_ns(shape); });
    const double dispatch_ns = probe("dispatch", [&] { return probe_dispatch_ns(shape); });
    const lk::lock_kind cycle_kinds[] = {lk::lock_kind::spin, lk::lock_kind::blocking,
                                         lk::lock_kind::combined, lk::lock_kind::adaptive};
    std::vector<double> cycle_ns;
    for (const auto k : cycle_kinds) {
      cycle_ns.push_back(probe("lock_cycle", [&] { return probe_lock_cycle_ns(k); }));
    }
    const double feedback_ns = probe("feedback", [] { return probe_feedback_ns(); });
    const double hist_ns = probe("hist_record", [] { return probe_hist_record_ns(); });
    const double pub_off_ns = probe("publish_off", [] { return probe_publish_off_ns(); });
    const std::string pub_path = stem + "-probe.bin";
    const double pub_on_ns = probe("publish_on", [&] { return probe_publish_on_ns(pub_path); });
    std::filesystem::remove(pub_path, ec);

    // Each traced pass ran right after an untraced one, in the same phase
    // of the host's load; the median of their ratios is tracing's cost.
    std::vector<double> trace_cost;
    for (std::size_t i = 0; i < traced.work_s.size(); ++i) {
      trace_cost.push_back(traced.work_s[i] / untraced.work_s[i]);
    }

    // Per-layer metrics from the reference pass's counts.
    const auto& n = ref.counts;
    const double pass_ns = pass_s * 1e9;
    const double events = static_cast<double>(n.events);
    const double windows = static_cast<double>(n.windows);
    const double acq = static_cast<double>(n.acquisitions);
    double kind_cycle_ns = 0;
    const auto used = lock_kinds(a.id);
    for (const auto k : used) {
      for (std::size_t i = 0; i < std::size(cycle_kinds); ++i) {
        if (cycle_kinds[i] == k) kind_cycle_ns += cycle_ns[i] / static_cast<double>(used.size());
      }
    }
    const double pops = static_cast<double>(n.tsp_expansions + n.tsp_pruned_pops);

    ms = {
        {"sim.events", events, "count"},
        {"sim.events_per_op", ratio(events, ops), "ratio"},
        {"sim.ns_per_event", event_ns, "ns"},
        {"sim.windows", windows, "count"},
        {"sim.events_per_window", ratio(events, windows), "ratio"},
        {"sim.cross_sends", static_cast<double>(n.cross_sends), "count"},
        {"sim.window_ns", window_ns, "ns"},
        {"sim.est_share", ratio(events * event_ns + windows * window_ns, pass_ns), "fraction"},
        {"exec.round_ns", round_ns, "ns"},
        {"ct.ns_per_dispatch", dispatch_ns, "ns"},
        {"ct.posts", static_cast<double>(n.posts), "count"},
        {"locks.acquisitions", acq, "count"},
        {"locks.blocks_per_kop", 1000 * ratio(static_cast<double>(n.blocks), acq), "1/kop"},
        {"locks.contended_frac", ratio(static_cast<double>(n.contended), acq), "fraction"},
        {"locks.spin_iters_per_acq", ratio(static_cast<double>(n.spin_iterations), acq),
         "ratio"},
        {"locks.cycle_ns.spin", cycle_ns[0], "ns"},
        {"locks.cycle_ns.blocking", cycle_ns[1], "ns"},
        {"locks.cycle_ns.combined", cycle_ns[2], "ns"},
        {"locks.cycle_ns.adaptive", cycle_ns[3], "ns"},
        {"locks.reconfigs", static_cast<double>(psi.adapt), "count"},
        {"locks.reconfigs_per_kop",
         1000 * ratio(static_cast<double>(psi.adapt), static_cast<double>(adaptive_acq)),
         "1/kop"},
        {"locks.est_share", ratio(acq * kind_cycle_ns, pass_ns), "fraction"},
        {"policy.feedback_ns", feedback_ns, "ns"},
        {"telemetry.frames", static_cast<double>(own.frames) / passes, "count"},
        {"telemetry.dropped", dropped, "count"},
        {"telemetry.dump_bytes", static_cast<double>(own.bytes) / passes, "B"},
        {"telemetry.publish_ns_off", pub_off_ns, "ns"},
        {"telemetry.publish_ns_on", pub_on_ns, "ns"},
        {"obs.hist_record_ns", hist_ns, "ns"},
        {"tsp.expansions", static_cast<double>(n.tsp_expansions), "count"},
        {"tsp.pruned_frac", ratio(static_cast<double>(n.tsp_pruned_pops), pops), "fraction"},
        {"tsp.steals", static_cast<double>(n.tsp_steals), "count"},
        {"tsp.events_per_expansion", ratio(events, static_cast<double>(n.tsp_expansions)),
         "ratio"},
        {"workload.virt_p50_us", ref.virt_p50_us, "us"},
        {"workload.virt_p99_us", ref.virt_p99_us, "us"},
        {"workload.virt_samples", static_cast<double>(ref.virt_samples), "count"},
        {"workload.virt_p99_regret", ref.p99_regret, "ratio"},
        {"workload.ops_failed_frac", 0, "fraction"},  // filled in below
        {"trace_overhead_frac", median(trace_cost) - 1, "fraction"},
    };
    // Mean self time per span of each name.
    std::map<std::string, int> span_count;
    for (const auto& s : log.spans()) ++span_count[s.name];
    const auto self = log.self_seconds();
    for (const char* name : {"setup", "zero_load", "pass", "run_ct_serve", "run_cs_workload",
                             "solve_sequential", "solve_parallel", "count_psi", "probe.event",
                             "probe.window", "probe.exec_round", "probe.dispatch",
                             "probe.lock_cycle", "probe.feedback", "probe.hist_record",
                             "probe.publish_off", "probe.publish_on"}) {
      const auto it = self.find(name);
      const double v = it == self.end() ? 0.0 : it->second / span_count[name];
      ms.push_back({std::string("span.") + name + ".self_s", v, "s"});
    }
    const std::string span_path = stem + "-spans.json";
    if (!log.write_chrome_json(span_path)) {
      std::fprintf(stderr, "adx_perfbench: cannot write %s\n", span_path.c_str());
      return 1;
    }
    std::printf("# spans: %s (%zu spans)\n", span_path.c_str(), log.spans().size());
  }

  w.reset();  // closes serve_sharded's telemetry client before its dump goes
  if (!opt.telemetry_dump.empty()) std::filesystem::remove(opt.telemetry_dump, ec);

  const double failed_frac =
      ratio(static_cast<double>(tot.failed), static_cast<double>(tot.attempted));
  for (auto& m : ms) {
    if (m.name == "workload.ops_failed_frac") m.value = failed_frac;
  }
  for (const auto& f : tot.failures) std::printf("# check failed: %s\n", f.c_str());
  auto sorted = untraced.work_s;
  std::sort(sorted.begin(), sorted.end());
  const double median_s = median(sorted);
  std::printf("# perfbench summary: {\"virt_digest\": \"%016llx\", \"calls_per_pass\": %llu, "
              "\"timed_passes\": %zu, \"pass_s\": {\"min\": %.6f, \"median\": %.6f, "
              "\"max\": %.6f}, \"host_ops_per_s\": %.6g, \"host_setup_s\": %.6g, "
              "\"ref_kernel_s\": {\"setup\": %.6f, \"passes\": %.6f}, "
              "\"serve_adaptive\": {\"virt_p50_us\": %.4f, \"virt_p99_us\": %.4f, "
              "\"samples\": %llu, \"p99_regret\": %.4f}, \"ops_failed_frac\": %.6g}\n",
              static_cast<unsigned long long>(ref.digest),
              static_cast<unsigned long long>(ref.calls), sorted.size(), sorted.front(), median_s,
              sorted.back(), ops / pass_s, setups.best_s(), median(setups.ref_s),
              median(untraced.ref_s), ref.virt_p50_us, ref.virt_p99_us,
              static_cast<unsigned long long>(ref.virt_samples), ref.p99_regret, failed_frac);
  for (const auto& m : ms) std::printf("#   %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              tot.failed == 0 ? "true" : "false", static_cast<unsigned long long>(tot.attempted),
              static_cast<unsigned long long>(tot.failed), metrics_json(ms).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adx_perfbench: %s\n", e.what());
    return 1;
  }
}
