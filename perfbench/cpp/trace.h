// In-memory span recorder for the traced run.
//
// A span is (request id, span id, parent span id, name, start, end), all
// times steady-clock nanoseconds. The benchmark opens spans around its
// own calls into each layer's public functions; spans nest through a
// stack, so a span's parent is whichever span was open when it began.
// Operators of an executed plan report only their inclusive time
// (ExecStats open_ns + next_ns, from BatchIterator timing), so they are
// added as closed spans whose duration is exact and whose start is the
// enclosing drain span's start.
//
// A span's self time is its duration minus its children's durations.
// PerRequestUs sums, per request, the durations or the self times of
// the spans with one name; LayerProbe turns those into medians (layer
// timings) or means (operator self times). Spans stay in memory and
// are written out once, when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t request = 0;
  int32_t id = 0;
  int32_t parent = -1;  // -1: a request's root span
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Open returns -1 and Close
  /// ignores it, so the untraced run executes the same calls.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts a new request; span ids restart at 0.
  void BeginRequest(uint64_t request_id);

  /// Opens a span named `name` under the innermost open span.
  int Open(const std::string& name);
  void Close(int span);

  /// Adds an already-measured span under `parent`.
  int AddClosed(const std::string& name, int parent, int64_t start_ns,
                int64_t end_ns);

  /// Index of the innermost open span, -1 when none.
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Start time of span `span` of the current request.
  int64_t start_of(int span) const;

  /// Per name, one value per traced request: the request's summed span
  /// durations under that name in microseconds — self times (duration
  /// minus children's) when `self_time` — 0 when the request had no span
  /// of that name.
  std::map<std::string, std::vector<double>> PerRequestUs(
      bool self_time) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  /// Offset in spans_ where each request's spans begin.
  std::vector<size_t> request_begin_;
  uint64_t request_ = 0;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), span_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
