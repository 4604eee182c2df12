// ode_perfbench: the repository benchmark's load generator.
//
//   ode_perfbench --workload <edit_session|history_reads|server_mix>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>]
//   ode_perfbench --selftest
//   ode_perfbench --list-metrics
//
// Prints one line per metric, then, as the last line, one JSON object with
// the keys correct, attempted, failed and metrics: every end-to-end metric
// for --trace 0, every per-layer metric for --trace 1.  With --out it also
// writes a record of the run (provenance, all values, sample counts,
// problems).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef ODE_PERFBENCH_BUILD_TYPE
#define ODE_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ODE_PERFBENCH_COMPILER
#define ODE_PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Env(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// Where the numbers came from: the ODE build that is linked in (its own
/// CMAKE_BUILD_TYPE and compiler), the source revision, the host and the
/// run's settings.
std::string ProvenanceJson(const RunOptions& o) {
  std::string j = "{";
  j += "\"git_sha\":" + JsonString(Env("PERFBENCH_GIT_SHA", "unknown"));
  j += ",\"source_digest\":" +
       JsonString(Env("PERFBENCH_SOURCE_DIGEST", "unknown"));
  j += ",\"ode_build_type\":" + JsonString(ODE_PERFBENCH_BUILD_TYPE);
  j += ",\"ode_compiler\":" + JsonString(ODE_PERFBENCH_COMPILER);
  j += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  j += ",\"env\":\"MemEnv\",\"commit_mode\":\"kSync\"";
  j += ",\"workload\":" + JsonString(o.workload);
  j += ",\"seed\":" + std::to_string(o.seed);
  j += ",\"seconds\":" + JsonNumber(o.seconds);
  j += ",\"trace\":" + std::to_string(o.trace ? 1 : 0);
  j += "}";
  return j;
}

std::string MetricsJson(const RunResult& r, bool trace) {
  std::string j = "{";
  bool first = true;
  for (const MetricDef& d : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (!first) j += ",";
    first = false;
    j += JsonString(d.name) + ":{\"value\":" + JsonNumber(r.values.at(d.name)) +
         ",\"unit\":" + JsonString(d.unit) + "}";
  }
  return j + "}";
}

void WriteRecord(const RunOptions& o, const std::string& dir,
                 const RunResult& r) {
  const std::string stem = dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           std::to_string(o.trace ? 1 : 0);
  std::ofstream rec(stem + ".json");
  rec << "{\"provenance\":" << ProvenanceJson(o)
      << ",\"setup\":" << JsonString(r.setup_description)
      << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"op_digest\":\"" << std::hex << r.op_digest << std::dec << "\""
      << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, n] : r.samples) {
    rec << (first ? "" : ",") << JsonString(name) << ":" << n;
    first = false;
  }
  rec << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : r.values) {
    rec << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(v);
    first = false;
  }
  rec << "},\"problems\":[";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    rec << (i ? "," : "") << JsonString(r.problems[i]);
  }
  rec << "]}\n";
}

/// The op class a percentile metric ("read_p50_us") is taken over.
std::string ClassOf(const std::string& name) {
  const size_t p = name.find("_p");
  return p == std::string::npos ? "" : name.substr(0, p);
}

/// Human-readable lines: each metric with its unit, and the sample count
/// behind each percentile.  Per-class figures are printed only on the
/// workloads that have ops of the class.
void PrintHuman(const RunOptions& o, const RunResult& r) {
  std::printf("# provenance %s\n", ProvenanceJson(o).c_str());
  std::printf("# setup: %s\n", r.setup_description.c_str());
  auto samples_of = [&](const std::string& name) -> std::string {
    const auto it = r.samples.find(ClassOf(name));
    if (it == r.samples.end()) return "";
    return "  (n=" + std::to_string(it->second) + ")";
  };
  for (const MetricDef& d : o.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    std::printf("%-45s %16.6g %-6s%s\n", d.name, r.values.at(d.name), d.unit,
                samples_of(d.name).c_str());
  }
  if (!o.trace) {
    for (const MetricDef& d : PerClassMetrics()) {
      if (r.samples.at(ClassOf(d.name)) == 0) continue;
      std::printf("%-45s %16.6g %-6s%s  (not in the result line)\n", d.name,
                  r.values.at(d.name), d.unit, samples_of(d.name).c_str());
    }
  }
  for (const std::string& p : r.problems) {
    std::printf("# PROBLEM %s\n", p.c_str());
  }
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const std::regex name_re("[A-Za-z0-9_.-]+");
  for (const auto& defs :
       {EndToEndMetrics(), PerClassMetrics(), PerLayerMetrics()}) {
    for (const MetricDef& d : defs) {
      expect(std::regex_match(d.name, name_re),
             std::string("metric name ") + d.name);
    }
  }
  auto run = [](uint64_t seed) {
    RunOptions o;
    o.workload = "edit_session";
    o.seed = seed;
    o.setups = 1;
    o.ops = 1500;
    return RunBenchmark(o);
  };
  RunResult a = run(7);
  RunResult b = run(7);
  RunResult c = run(8);
  expect(a.correct && b.correct && c.correct, "edit_session runs correct");
  expect(a.op_digest == b.op_digest, "same seed, same op-stream digest");
  expect(a.op_digest != c.op_digest, "other seed, other op-stream digest");
  for (const char* name :
       {"storage.wal.bytes_per_commit", "storage.btree.descents_per_op",
        "count.core.pnew", "count.core.newversion", "count.core.update",
        "count.core.delete_version", "count.txn.commits"}) {
    expect(a.values.at(name) == b.values.at(name) && a.values.at(name) > 0,
           std::string("same seed, equal ") + name + " (" +
               JsonNumber(a.values.at(name)) + " vs " +
               JsonNumber(b.values.at(name)) + ")");
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ode_perfbench --workload <edit_session|history_reads|"
               "server_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n"
               "       ode_perfbench --selftest | --list-metrics\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions o;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (arg == "--list-metrics") {
      for (const MetricDef& d : EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (o.workload.empty() || o.seconds <= 0) return Usage();
  const RunResult r = RunBenchmark(o);
  PrintHuman(o, r);
  if (!out_dir.empty()) WriteRecord(o, out_dir, r);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(r, o.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ode_perfbench: %s\n", e.what());
    return 1;
  }
}
