// In-memory spans recorded by the benchmark around each call it makes into
// a simulator layer. A span's name is "<layer>.<call>"; its layer is the
// part before the first dot. Spans stay in memory until the run ends, and a
// disabled recorder costs one branch per span.

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Host steady-clock nanoseconds: span timestamps.
uint64_t HostNowNs();
// CPU nanoseconds the calling thread has run: the timer behind every
// end-to-end host-time metric. The benchmark is single-threaded, so this is
// the host time the workload itself took, without the time the host gave
// to other processes or virtual machines.
uint64_t ThreadCpuNs();

struct Span {
  const char* name = "";  // A string literal.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // Index into the recorder's spans; -1 for a root.
  uint64_t op = 0;      // The operation the span belongs to.
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Spans opened from now on carry `op`.
  void set_op(uint64_t op) { op_ = op; }

  int32_t Open(const char* name);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  // Per span: its duration minus the part its direct children cover.
  std::vector<uint64_t> SelfTimesNs() const;
  // Mean duration in ms of every span called `name` (0 when none).
  double MeanMs(const std::string& name) const;
  // Self time summed per layer, in ns.
  std::map<std::string, uint64_t> LayerSelfNs() const;
  // Closes that did not close the innermost open span. Self times rely on
  // spans nesting, so this must stay 0.
  size_t misnested() const { return misnested_; }
  // Spans opened and not yet closed.
  bool any_open() const { return open_ != 0; }
  // One JSON object per line: name, layer, start/end ns, parent, op.
  std::string ToJsonLines() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint64_t op_ = 0;
  size_t open_ = 0;
  size_t misnested_ = 0;
};

// Opens a span for the lifetime of the scope (nothing when disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder->enabled() ? recorder->Open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      recorder_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
