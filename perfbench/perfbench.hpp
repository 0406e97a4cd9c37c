// Shared declarations of the perfbench harness (see README.md in this
// directory for the workloads, the metrics and what each one means).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/control.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test sizes.
  std::string daemon;         ///< path of the mwr_served binary.
  std::string out_dir;        ///< private per-run work directory.
  std::string self;           ///< path of this binary (setup probes).
};

/// What one run prints: the correctness verdict, the operation counts and
/// the metrics, in insertion order.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records one failed operation and why (printed to stderr).
  void fail(const std::string& why);
};

/// Deterministic generator for the workload inputs: the benchmark's own
/// SplitMix64, so a change to the library's RNG cannot change them.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform01();  ///< in [0, 1).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// A serve workload: the requests the client sends each round and the
/// warm-up requests every set-up runs to completion before timing.  The
/// daemon's admission cap is the round's size, so a round is resident at
/// once.
struct ServeWorkload {
  std::string name;
  std::vector<mwr::serve::SubmitRequest> requests;
  std::vector<mwr::serve::SubmitRequest> warmup;
};

[[nodiscard]] ServeWorkload make_serve_workload(const Options& options);

/// util::percentile (linear interpolation, q in [0, 1]); 0 when empty.
[[nodiscard]] double percentile(const std::vector<double>& values, double q);

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Sets every per-layer metric the workload did not measure to 0, so each
/// traced run prints the whole list.
void fill_missing_layers(Report& report);

/// The workloads.
void run_serve(const Options& options, Tracer& tracer, Report& report);
void run_table2(const Options& options, Tracer& tracer, Report& report);

/// `--setup-probe`: the table2 process start-to-sweep-start probe.  Prints
/// the monotonic clock at the point the sweep would start, then exits.
int run_setup_probe(const Options& options);

// --- per-layer measurements shared by the traced runs (layers.cpp) -----

/// session.*, pool.*, oracle.evaluate_ns for a sample of the workload's
/// requests.
void measure_apr_layers(const ServeWorkload& workload, Tracer& tracer,
                        Report& report);
/// mwu.*_update_ns at k = 1024.
void measure_mwu_layers(Tracer& tracer, Report& report, bool tiny);
}  // namespace perfbench
