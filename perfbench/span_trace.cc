#include "perfbench/span_trace.h"

#include <time.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "perfbench/bench_stats.h"

namespace perfbench {

uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t ThreadCpuNs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<uint64_t>(now.tv_sec) * 1000000000ULL + static_cast<uint64_t>(now.tv_nsec);
}

int32_t SpanRecorder::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.op = op_;
  span.start_ns = HostNowNs();
  spans_.push_back(span);
  current_ = static_cast<int32_t>(spans_.size() - 1);
  ++open_;
  return current_;
}

void SpanRecorder::Close(int32_t index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = HostNowNs();
  if (index != current_) {
    ++misnested_;
  }
  --open_;
  current_ = span.parent;
}

std::vector<uint64_t> SpanRecorder::SelfTimesNs() const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].push_back({span.start_ns, span.end_ns});
    }
  }
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = SelfTimeNs({spans_[i].start_ns, spans_[i].end_ns}, std::move(children[i]));
  }
  return self;
}

double SpanRecorder::MeanMs(const std::string& name) const {
  uint64_t total = 0;
  size_t n = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += span.end_ns - span.start_ns;
      ++n;
    }
  }
  return n == 0 ? 0 : static_cast<double>(total) / 1e6 / static_cast<double>(n);
}

std::map<std::string, uint64_t> SpanRecorder::LayerSelfNs() const {
  const std::vector<uint64_t> self = SelfTimesNs();
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[LayerOf(spans_[i].name)] += self[i];
  }
  return out;
}

std::string SpanRecorder::ToJsonLines() const {
  std::string out;
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                  ",\"parent\":%d,\"op\":%" PRIu64 "}\n",
                  span.name, LayerOf(span.name).c_str(), span.start_ns, span.end_ns, span.parent,
                  span.op);
    out += line;
  }
  return out;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
