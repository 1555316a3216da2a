// adx-telemetryd — the fleet telemetry aggregation daemon.
//
// Server mode (default): listen on a socket, accept any number of producer
// streams (adx-check sweeps, benches, native harnesses), merge them into
// one run-tagged timeline, and either refresh a terminal dashboard or run
// quietly. On exit (SIGINT, or --runs producers completing) it writes the
// merged Chrome-trace JSON to --export.
//
//   adx-telemetryd --listen=unix:/tmp/adx.sock --export=merged.json
//   adx-telemetryd --listen=tcp:127.0.0.1:9314 --runs=4 --quiet
//
// Merge mode: no sockets at all — decode post-hoc dump files (written by
// producers via --telemetry-dump) through the same timeline logic, print the
// final dashboard (unless --quiet) and write the merged export. Because a
// producer's dump is byte-for-byte the stream it sent, merging dumps
// post-hoc reproduces the live merged export exactly; CI diffs the two.
//
//   adx-telemetryd --merge=p0.tlm,p1.tlm,p2.tlm --export=merged.json
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli/options.hpp"
#include "telemetry/telemetry.hpp"

namespace {

std::atomic<bool> g_interrupted{false};

void on_sigint(int) { g_interrupted.store(true); }

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool write_export(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "adx-telemetryd: cannot write " << path << "\n";
    return false;
  }
  out << json;
  return true;
}

/// Writes `prefix` then the dashboard panel for `tl` to stdout.
void print_dashboard(const adx::telemetry::timeline& tl,
                     const adx::telemetry::dashboard_options& dopt, const char* prefix) {
  const std::string panel = prefix + render_dashboard(tl.snapshot(), dopt);
  std::fwrite(panel.data(), 1, panel.size(), stdout);
  std::fflush(stdout);
}

int merge_mode(const std::string& merge_list, const std::string& export_path, bool quiet,
               const adx::telemetry::dashboard_options& dopt) {
  adx::telemetry::timeline tl;
  int rc = 0;
  for (const auto& path : split_commas(merge_list)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "adx-telemetryd: cannot read " << path << "\n";
      rc = 1;
      continue;
    }
    adx::telemetry::frame_reader reader;
    adx::telemetry::stream_state st;
    char buf[65536];
    bool poisoned = false;
    while (in.read(buf, sizeof buf), in.gcount() > 0) {
      reader.feed(buf, static_cast<std::size_t>(in.gcount()));
      adx::telemetry::message m;
      while (!poisoned) {
        const auto status = reader.next(m);
        if (status == adx::telemetry::frame_reader::status::need_more) break;
        if (status == adx::telemetry::frame_reader::status::error) {
          std::cerr << "adx-telemetryd: " << path << ": " << reader.error_text()
                    << "\n";
          poisoned = true;
          rc = 1;
          break;
        }
        std::string err;
        if (!tl.apply(st, m, &err)) {
          std::cerr << "adx-telemetryd: " << path << ": " << err << "\n";
          poisoned = true;
          rc = 1;
          break;
        }
      }
      if (poisoned) break;
    }
    if (!poisoned && reader.pending() > 0) {
      std::cerr << "adx-telemetryd: " << path << ": " << reader.pending()
                << " trailing bytes (truncated stream)\n";
    }
    tl.stream_closed(st);
  }
  if (!quiet) print_dashboard(tl, dopt, "");
  if (!export_path.empty() && !write_export(export_path, tl.chrome_json())) rc = 1;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt =
      adx::cli::options("adx-telemetryd",
                        "telemetry aggregation server: merged fleet timeline, "
                        "live dashboard, Chrome-trace export")
          .str("listen", "unix:/tmp/adx-telemetry.sock",
               "endpoint to accept producers on (unix:PATH or tcp:HOST:PORT)")
          .str("export", "", "write merged Chrome-trace JSON here on exit")
          .str("merge", "",
               "offline mode: comma-separated telemetry dump files to merge "
               "(no sockets)")
          .u64("runs", 0, "exit after this many producer runs complete (0 = run "
                          "until SIGINT)")
          .u64("refresh-ms", 500, "dashboard refresh interval")
          .flag("quiet", "no dashboard (live or --merge); print nothing but errors")
          .flag("color", "ANSI colors in the dashboard")
          .note("Producers attach with --telemetry=<endpoint> (adx-check, "
                "benches) or embed telemetry::client directly.");
  opt.parse(argc, argv);

  const bool quiet = opt.get_flag("quiet");
  adx::telemetry::dashboard_options dopt;
  dopt.color = opt.get_flag("color");

  if (!opt.get_str("merge").empty()) {
    return merge_mode(opt.get_str("merge"), opt.get_str("export"), quiet, dopt);
  }

  std::string err;
  const auto ep = adx::telemetry::parse_endpoint(opt.get_str("listen"), &err);
  if (!ep) {
    std::cerr << "adx-telemetryd: --listen: " << err << "\n";
    return 2;
  }

  adx::telemetry::timeline tl;
  auto srv = adx::telemetry::server::start(*ep, tl, &err);
  if (!srv) {
    std::cerr << "adx-telemetryd: " << err << "\n";
    return 1;
  }

  std::signal(SIGINT, on_sigint);
  std::signal(SIGTERM, on_sigint);

  const std::uint64_t want_runs = opt.get_u64("runs");
  const auto refresh = std::chrono::milliseconds(opt.get_u64("refresh-ms"));

  if (!quiet) {
    std::cerr << "adx-telemetryd: listening on " << opt.get_str("listen") << "\n";
  }

  while (!g_interrupted.load()) {
    if (want_runs > 0 && srv->connections_accepted() >= want_runs &&
        tl.runs_done() >= want_runs) {
      break;
    }
    // Home the cursor and clear below instead of wiping the terminal —
    // refresh without flicker.
    if (!quiet) print_dashboard(tl, dopt, "\x1b[H\x1b[J");
    std::this_thread::sleep_for(refresh);
  }

  srv->stop();
  if (!quiet) print_dashboard(tl, dopt, "\n");
  if (!opt.get_str("export").empty()) {
    if (!write_export(opt.get_str("export"), tl.chrome_json())) return 1;
    if (!quiet) {
      std::cerr << "adx-telemetryd: merged export written to "
                << opt.get_str("export") << "\n";
    }
  }
  return srv->protocol_errors() > 0 ? 1 : 0;
}
