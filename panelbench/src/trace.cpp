#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace panelbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<int> g_next_thread{0};
std::mutex g_mu;
std::vector<Span> g_spans;

struct Open {
  std::uint64_t id;
  long unit;
};
thread_local std::vector<Open> t_open;
thread_local int t_thread = -1;

int thread_index() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

double now_ms() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

void set_tracing(bool on) { g_tracing.store(on); }
bool tracing() { return g_tracing.load(); }

std::vector<Span> spans() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

void write_spans_csv(const std::string& path) {
  std::ofstream out(path);
  out << "id,parent,name,start_ms,end_ms,unit,thread\n";
  out.precision(17);
  for (const Span& s : spans())
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start_ms
        << ',' << s.end_ms << ',' << s.unit << ',' << s.thread << '\n';
}

SpanScope::SpanScope(const char* name, long unit) {
  if (!tracing()) return;
  active_ = true;
  span_.id = g_next_id.fetch_add(1);
  span_.name = name;
  span_.thread = thread_index();
  if (!t_open.empty()) {
    span_.parent = t_open.back().id;
    if (unit < 0) unit = t_open.back().unit;
  }
  span_.unit = unit;
  t_open.push_back(Open{span_.id, unit});
  span_.start_ms = now_ms();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ms = now_ms();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(span_);
}

std::vector<double> span_ms(const std::vector<Span>& all, const char* name) {
  const std::string want(name);
  std::vector<double> out;
  for (const Span& s : all)
    if (want == s.name) out.push_back(s.ms());
  return out;
}

double span_total_ms(const std::vector<Span>& all, const char* name) {
  double total = 0.0;
  for (double ms : span_ms(all, name)) total += ms;
  return total;
}

double span_self_total_ms(const std::vector<Span>& all, const char* name) {
  const std::string want(name);
  std::unordered_map<std::uint64_t, double> child_ms;
  for (const Span& s : all)
    if (s.parent != 0) child_ms[s.parent] += s.ms();
  double total = 0.0;
  for (const Span& s : all) {
    if (want != s.name) continue;
    const auto it = child_ms.find(s.id);
    total += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  return total;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

CallStats call_stats(const std::vector<double>& samples) {
  CallStats st;
  st.n = static_cast<long>(samples.size());
  st.p50 = percentile(samples, 50.0);
  st.tail = st.p50;
  for (double q : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(st.n) * (1.0 - q / 100.0) >= 10.0 - 1e-9) {
      st.tail = percentile(samples, q);
      break;
    }
  }
  return st;
}

}  // namespace panelbench
