// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// repository's public functions (ServeClient, CampaignServer,
// CampaignSession, MutationPool, TestOracle, the MWU strategies and
// costmodel::run_evaluation).  Each span keeps its name, start, end,
// parent span and a campaign id.  Nothing is written while the run is
// timed: write_chrome_trace() dumps Chrome trace-event JSON (viewable in
// Perfetto) at exit, and self_seconds_by_layer() folds the spans into per
// layer self time (a span's duration minus what its children cover).
//
// A span's layer is its name up to the first '.', e.g. "control.submit"
// belongs to "control".  With tracing disabled, Span is a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same thread's records.
  std::uint64_t id = 0;      ///< campaign id or request index; 0 = none.
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Every span of every thread, as lanes (one per recording thread).
  struct Lane {
    std::vector<SpanRecord> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices.
  };

  /// The calling thread's lane (created on first use).
  Lane& lane();

  [[nodiscard]] std::size_t span_count() const;
  /// Self time per layer in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome_trace(const std::string& path) const;

  /// Nanoseconds since the tracer was created.
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII span: records [construction, destruction) on the calling thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t id = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Tracer::Lane* lane_ = nullptr;
  std::int32_t index_ = -1;
};

/// Measured cost of recording one span on this machine, in seconds; the
/// traced run multiplies it by its span count to report
/// trace.overhead_share.
[[nodiscard]] double calibrate_span_cost();

}  // namespace perfbench
