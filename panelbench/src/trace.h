// In-memory span recorder for the traced benchmark run, plus the small
// statistics helpers every metric is built from.
//
// A span is (name, start, end, parent, unit id, thread). Spans are recorded
// only while tracing is enabled; they stay in memory and are written out
// once, at exit (write_spans_csv). Nesting is tracked per thread, so a span
// opened inside another on the same thread becomes its child and inherits
// its unit id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace panelbench {

/// Milliseconds on the steady clock since the first call in this process.
double now_ms();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no parent
  const char* name = "";     // string literal
  double start_ms = 0.0;
  double end_ms = 0.0;
  long unit = -1;            // work unit, -1 outside units
  int thread = 0;            // small per-process thread index

  double ms() const { return end_ms - start_ms; }
};

/// Turn span recording on or off (off by default).
void set_tracing(bool on);
bool tracing();

/// All spans closed so far, in closing order.
std::vector<Span> spans();

/// Write every span as CSV (id,parent,name,start_ms,end_ms,unit,thread).
void write_spans_csv(const std::string& path);

/// RAII span. `unit` < 0 inherits the enclosing span's unit id.
class SpanScope {
 public:
  explicit SpanScope(const char* name, long unit = -1);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Durations (ms) of every span called `name`.
std::vector<double> span_ms(const std::vector<Span>& all, const char* name);
/// Sum of those durations.
double span_total_ms(const std::vector<Span>& all, const char* name);
/// Self time of every span called `name`: its duration minus the durations
/// of its direct children.
double span_self_total_ms(const std::vector<Span>& all, const char* name);

/// Median (mean of the middle pair for even counts). 0 for an empty input.
double median(std::vector<double> values);
/// Linear-interpolation percentile, q in [0, 100]. 0 for an empty input.
double percentile(std::vector<double> values, double q);

/// Per-call timing summary: p50, plus the highest percentile of the ladder
/// {99.9, 99, 90} that has at least ten samples beyond it. With fewer than
/// 100 samples no such percentile exists and `tail` repeats p50.
struct CallStats {
  double p50 = 0.0;
  double tail = 0.0;
  long n = 0;
};
CallStats call_stats(const std::vector<double>& samples);

}  // namespace panelbench
