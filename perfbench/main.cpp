// perfbench — the repository's benchmark harness.
//
//   perfbench --workload fleet|heavy|table2 --seed N --seconds S
//             --trace 0|1 --daemon PATH --out DIR [--tiny]
//
// Runs one workload for S seconds and prints, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, taken from spans the benchmark records around calls into each
// layer (a Chrome trace-event file is written to DIR/trace.json).  The
// exit code is 0 only when every output checked out correct.
//
// perfbench/run.py builds this binary and mwr_served and is the command
// to run; README.md in this directory lists the workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <sys/resource.h>

#include "perfbench.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

// Every metric a run prints, with its unit.  End-to-end metrics are
// printed by --trace 0 runs, per-layer ones by --trace 1 runs; the same
// lists are in BENCHMARK.json at the repository root.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"campaigns_per_s", "1/s"},     {"result_latency_p50_ms", "ms"},
    {"result_latency_p99_ms", "ms"}, {"cpu_iterations_per_s", "1/s"},
    {"setup_s", "s"},               {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"control.submit_rtt_p50_us", "us"},
    {"control.status_rtt_p50_us", "us"},
    {"control.status_rtt_p99_us", "us"},
    {"control.polls_per_campaign", "count"},
    {"server.epoch_p50_us", "us"},
    {"server.epoch_p99_us", "us"},
    {"server.epochs", "count"},
    {"server.busy_share", "share"},
    {"server.result_first_fetch_us", "us"},
    {"server.starved_epochs", "count"},
    {"server.failed_campaigns", "count"},
    {"hub.oracle_hit_ratio", "share"},
    {"hub.pool_hit_ratio", "share"},
    {"checkpoint.critical_us_per_epoch", "us"},
    {"checkpoint.bytes_per_campaign", "bytes"},
    {"checkpoint.writer_s", "s"},
    {"session.online_unit_us", "us"},
    {"session.setup_unit_us", "us"},
    {"pool.precompute_ms", "ms"},
    {"pool.revalidate_ms", "ms"},
    {"pool.safe_ratio", "share"},
    {"oracle.evaluate_ns", "ns"},
    {"oracle.cache_hit_ratio", "share"},
    {"repair.probes_per_repair", "count"},
    {"mwu.standard_update_ns", "ns"},
    {"mwu.slate_update_ns", "ns"},
    {"mwu.distributed_update_ns", "ns"},
    {"sweep.parallel_efficiency", "share"},
    {"engine.speedup_2v1", "x"},
    {"obs.registry_metrics", "count"},
    {"obs.metrics_dump_bytes", "bytes"},
    {"trace.overhead_share", "share"},
    {"self_s.bench", "s"},
    {"self_s.control", "s"},
    {"self_s.server", "s"},
    {"self_s.session", "s"},
    {"self_s.pool", "s"},
    {"self_s.oracle", "s"},
    {"self_s.mwu", "s"},
    {"self_s.sweep", "s"},
};

std::string format_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(const Report& report, bool trace) {
  const auto& names = trace ? kPerLayer : kEndToEnd;
  std::map<std::string, const Report::Metric*> by_name;
  for (const Report::Metric& metric : report.metrics)
    by_name[metric.name] = &metric;
  bool correct = report.correct && report.failed == 0;
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
      correct = false;
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += '"';
    metrics += name;
    metrics += "\": {\"value\": ";
    metrics += format_number(it->second->value);
    metrics += ", \"unit\": \"";
    metrics += unit;
    metrics += "\"}";
  }
  // Human-readable table first; the JSON object is the last line.
  for (const auto& [name, unit] : names) {
    const auto it = by_name.find(name);
    if (it != by_name.end())
      std::printf("# %-34s %16.6g %s\n", name, it->second->value, unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(
          report.attempted, 1)),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

/// Returns false when --help was printed.
bool parse(int argc, char** argv, Options& options) {
  mwr::util::Cli cli(
      "perfbench: the repository benchmark (run it through perfbench/run.py)");
  cli.add_string("workload", "", "fleet, heavy or table2");
  cli.add_int("seed", 1, "workload seed");
  cli.add_double("seconds", 10.0, "measured time per run");
  cli.add_int("trace", 0, "1 = traced run printing the per-layer metrics");
  cli.add_string("daemon", "", "path of the mwr_served binary");
  cli.add_string("out", "", "private work directory for this run");
  cli.add_flag("tiny", "smoke-test sizes");
  cli.add_flag("setup-probe", "internal: the table2 set-up probe");
  if (!cli.parse(argc, argv)) return false;
  options.workload =
      cli.get_flag("setup-probe") ? "setup-probe" : cli.get_string("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.seconds = cli.get_double("seconds");
  options.trace = cli.get_int("trace") != 0;
  options.daemon = cli.get_string("daemon");
  options.out_dir = cli.get_string("out");
  options.tiny = cli.get_flag("tiny");
  options.self = argv[0];
  if (options.seconds <= 0.0)
    throw std::invalid_argument("--seconds must be positive");
  return true;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  ++failed;
  correct = false;
  // Cap the noise: a systematic mismatch would otherwise print thousands
  // of identical lines.
  if (failed <= 20)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t InputRng::below(std::uint64_t bound) {
  return bound == 0 ? 0 : next() % bound;
}

double percentile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : mwr::util::percentile(values, q);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void fill_missing_layers(Report& report) {
  std::map<std::string, bool> have;
  for (const Report::Metric& metric : report.metrics) have[metric.name] = true;
  for (const auto& [name, unit] : kPerLayer) {
    if (!have.count(name)) report.set(name, 0.0, unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Options options;
    if (!parse(argc, argv, options)) return 0;
    if (options.workload == "setup-probe") return run_setup_probe(options);

    // Calibrate before the run's own tracer records anything.
    const double span_cost = options.trace ? calibrate_span_cost() : 0.0;
    Tracer tracer(options.trace);
    Report report;
    const Clock::time_point start = Clock::now();
    if (options.workload == "table2") {
      run_table2(options, tracer, report);
    } else if (options.workload == "fleet" || options.workload == "heavy") {
      run_serve(options, tracer, report);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    if (options.trace) {
      const double wall = seconds_since(start);
      const std::size_t spans = tracer.span_count();
      report.set("trace.overhead_share",
                 static_cast<double>(spans) * span_cost / wall, "share");
      std::printf("# trace: %zu spans, %.1f ns per span, %.2f s traced\n",
                  spans, span_cost * 1e9, wall);
      for (const auto& [layer, self] : tracer.self_seconds_by_layer()) {
        std::printf("# self time %-10s %10.4f s\n", layer.c_str(), self);
        report.set("self_s." + layer, self, "s");
      }
      const std::string path = options.out_dir + "/trace.json";
      tracer.write_chrome_trace(path);
      std::printf("# wrote %s\n", path.c_str());
      fill_missing_layers(report);
    }
    print_result(report, options.trace);
    return report.correct && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", error.what());
    return 2;
  }
}
