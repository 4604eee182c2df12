// ode_top: live metrics monitor for a running Ode database.
//
// Usage:
//   ode_top <db-path> [--interval-ms N] [--iterations N] [--no-clear]
//
// Polls <db-path>/METRICS.json — the file a database re-exports every
// DatabaseOptions::stats_export_interval_ms — and renders counters as
// per-second rates between polls, gauges as current values, and latency
// histograms as count/p50/p99.  Reading a file instead of opening the
// database keeps the monitor safe to point at a live process: an Ode
// database is embedded and single-process, so a second Open would run
// recovery under the owner's feet.
//
// Rates use the ts_micros stamp the exporter writes into the document, not
// this process's clock, so a stalled exporter shows as a frozen timestamp
// rather than as phantom zero rates.
//
//   --interval-ms N   poll every N ms (default 1000)
//   --iterations N    exit after N polls (default 0 = run until killed)
//   --no-clear        append frames instead of clearing the terminal

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "core/diagnostics.h"
#include "storage/env.h"
#include "util/json.h"
#include "util/status.h"

namespace {

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

void RenderFrame(const std::map<std::string, double>& now,
                 const std::map<std::string, double>& prev,
                 double elapsed_seconds) {
  const auto ts = now.find("ts_micros");
  std::printf("ode_top  ts=%.0fus  (%.2fs since previous sample)\n",
              ts != now.end() ? ts->second : 0.0, elapsed_seconds);
  std::printf("%-44s %14s %12s\n", "counter", "total", "per-sec");
  for (const auto& [path, value] : now) {
    if (!HasPrefix(path, "metrics.counters.")) continue;
    const std::string name = path.substr(std::strlen("metrics.counters."));
    double rate = 0.0;
    if (const auto it = prev.find(path);
        it != prev.end() && elapsed_seconds > 0.0) {
      rate = (value - it->second) / elapsed_seconds;
    }
    std::printf("%-44s %14.0f %12.1f\n", name.c_str(), value, rate);
  }
  std::printf("%-44s %14s\n", "gauge", "value");
  for (const auto& [path, value] : now) {
    if (!HasPrefix(path, "metrics.gauges.")) continue;
    std::printf("%-44s %14.0f\n",
                path.substr(std::strlen("metrics.gauges.")).c_str(), value);
  }
  std::printf("%-44s %10s %12s %12s\n", "histogram (ns)", "count", "p50",
              "p99");
  // Histogram subfields flatten to metrics.histograms.<name>.<field>; group
  // by walking the count entries and probing their siblings.
  for (const auto& [path, value] : now) {
    if (!HasPrefix(path, "metrics.histograms.")) continue;
    const size_t dot = path.rfind('.');
    if (path.substr(dot + 1) != "count") continue;
    const std::string base = path.substr(0, dot);
    const auto field = [&](const char* f) {
      const auto it = now.find(base + "." + f);
      return it == now.end() ? 0.0 : it->second;
    };
    std::printf("%-44s %10.0f %12.0f %12.0f\n",
                base.substr(std::strlen("metrics.histograms.")).c_str(), value,
                field("p50"), field("p99"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(
        "usage: ode_top <db-path> [--interval-ms N] [--iterations N] "
        "[--no-clear]\n",
        stderr);
    return 2;
  }
  const std::string path = argv[1];
  uint64_t interval_ms = 1000;
  uint64_t iterations = 0;  // 0 = until killed.
  bool clear_screen = true;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-clear") == 0) {
      clear_screen = false;
    } else {
      std::fprintf(stderr, "ode_top: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  ode::Env* env = ode::Env::Posix();
  const std::string metrics_path =
      path + "/" + std::string(ode::kMetricsExportFileName);
  std::map<std::string, double> prev;
  bool have_prev = false;
  for (uint64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    auto contents = ode::ReadDiagnosticsFile(env, metrics_path);
    if (!contents.ok()) {
      std::fprintf(stderr,
                   "ode_top: cannot read %s: %s\n"
                   "(is the database running with "
                   "stats_export_interval_ms > 0?)\n",
                   metrics_path.c_str(),
                   contents.status().ToString().c_str());
      return 1;
    }
    // Every number in the document, keyed "path.to.key" (util/json.h).
    auto read = ode::ReadJson(*contents);
    if (!read.ok() || read->numbers.empty()) {
      std::fprintf(stderr, "ode_top: %s holds no metrics yet%s%s\n",
                   metrics_path.c_str(), read.ok() ? "" : ": ",
                   read.ok() ? "" : read.status().ToString().c_str());
      return 1;
    }
    const std::map<std::string, double> now = std::move(read->numbers);
    double elapsed = 0.0;
    if (have_prev) {
      const auto ts_now = now.find("ts_micros");
      const auto ts_prev = prev.find("ts_micros");
      if (ts_now != now.end() && ts_prev != prev.end()) {
        elapsed = (ts_now->second - ts_prev->second) / 1e6;
      }
    }
    if (clear_screen) std::fputs("\x1b[2J\x1b[H", stdout);
    RenderFrame(now, have_prev ? prev : now, elapsed);
    std::fflush(stdout);
    prev = now;
    have_prev = true;
  }
  return 0;
}
