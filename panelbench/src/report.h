// Result reporting: named metrics with units, the host and config block,
// and the correctness gate every run passes through.
#pragma once

#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace panelbench {

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Per-call timing samples (ms): `base + p50_suffix` is the p50,
  /// `base + "_tail"` the tail percentile of call_stats, `base + "_n"` the
  /// sample count.
  void add_calls(const std::string& base, const std::vector<double>& samples,
                 const std::string& p50_suffix = "");

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Collects correctness-gate failures; the run is correct when none fired.
class Gate {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// The checks that hold at any seed for one panel's sweep_csv_table bytes:
/// every success rate lies in [0, 1], and the noise-free full-depth point
/// (when the panel has one) is exactly 100%.
void check_csv(const std::string& panel, const std::string& csv, Gate& gate);

/// Compare each panel's CSV with `<reference_dir>/<panel>.csv` byte for
/// byte (a missing reference file is a failure).
void check_reference(const Workload& w, const std::vector<std::string>& csv,
                     const std::string& reference_dir, Gate& gate);

/// Overwrite `<reference_dir>/<panel>.csv` with each panel's CSV.
void write_reference(const Workload& w, const std::vector<std::string>& csv,
                     const std::string& reference_dir);

/// Replace the noise-free full-depth success rate of the first panel's CSV
/// with 0.5: a deliberately corrupted result for the gate's self-test.
std::string corrupt_csv(const std::string& csv);

/// Host and configuration block (JSON object): CPU model and caches
/// (common/host_info.h), nproc, the threads that run units and the pool
/// size (QFAB_THREADS), the SIMD kernel
/// table, the precision resolve_precision picks per depth, build type, and
/// the filesystem that holds the journal and fabric state under
/// `state_dir`.
std::string config_json(const Workload& w, int threads,
                        const std::string& state_dir);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, long attempted, long failed,
                        const Metrics& metrics);

}  // namespace panelbench
