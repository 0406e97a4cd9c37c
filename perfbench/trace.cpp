#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

struct LaneCache {
  const Tracer* owner = nullptr;
  Tracer::Lane* lane = nullptr;
};
thread_local LaneCache t_cache;

std::string layer_of(const char* name) {
  const std::string full(name);
  const std::size_t dot = full.find('.');
  return dot == std::string::npos ? full : full.substr(0, dot);
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::~Tracer() {
  // A later tracer may reuse this address; drop the calling thread's
  // cached lane so it cannot be mistaken for one of the new tracer's.
  if (t_cache.owner == this) t_cache = {};
}

Tracer::Lane& Tracer::lane() {
  if (t_cache.owner == this) return *t_cache.lane;
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::make_unique<Lane>());
  lanes_.back()->spans.reserve(1 << 14);
  t_cache = {this, lanes_.back().get()};
  return *t_cache.lane;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans.size();
  return n;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> self;
  for (const auto& lane : lanes_) {
    // Children are recorded after their parent and close before it, so
    // subtracting each child's duration from its parent's leaves the
    // parent's self time (spans on one thread nest strictly).
    std::vector<std::int64_t> child_ns(lane->spans.size(), 0);
    for (const SpanRecord& span : lane->spans) {
      if (span.parent >= 0)
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
    }
    for (std::size_t i = 0; i < lane->spans.size(); ++i) {
      const SpanRecord& span = lane->spans[i];
      self[layer_of(span.name)] +=
          static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) *
          1e-9;
    }
  }
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
    const auto& spans = lanes_[tid]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      char buf[384];
      std::snprintf(
          buf, sizeof buf,
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
          "\"parent\":%d,\"id\":%llu}}",
          first ? "" : ",\n", span.name, layer_of(span.name).c_str(), tid + 1,
          static_cast<double>(span.start_ns) * 1e-3,
          static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
          span.parent, static_cast<unsigned long long>(span.id));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
}

Span::Span(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (!tracer.enabled()) return;
  lane_ = &tracer.lane();
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.parent = lane_->open.empty() ? -1 : lane_->open.back();
  record.start_ns = tracer.now_ns();
  index_ = static_cast<std::int32_t>(lane_->spans.size());
  lane_->spans.push_back(record);
  lane_->open.push_back(index_);
}

Span::~Span() {
  if (lane_ == nullptr) return;
  lane_->spans[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
  lane_->open.pop_back();
}

double calibrate_span_cost() {
  constexpr int kSpans = 200000;
  Tracer probe(true);
  const Clock::time_point start = Clock::now();
  {
    const Span root(probe, "calibrate.root");
    for (int i = 0; i < kSpans; ++i) {
      const Span span(probe, "calibrate.span", static_cast<std::uint64_t>(i));
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return seconds / kSpans;
}

}  // namespace perfbench
