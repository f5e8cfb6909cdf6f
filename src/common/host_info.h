// Host metadata for benchmark reports: timings are only comparable between
// runs on similar hardware, so panelbench (panelbench/src/report.cpp)
// records the CPU model and cache sizes next to its measurements.
#pragma once

#include <string>

namespace qfab {

struct HostInfo {
  std::string cpu_model;  // /proc/cpuinfo "model name" ("" when unknown)
  long l2_kib = 0;        // per-core unified L2 (0 when unknown)
  long l3_kib = 0;        // shared L3 (0 when unknown)
};

/// Probe /proc/cpuinfo and the cpu0 sysfs cache hierarchy once per process.
const HostInfo& host_info();

}  // namespace qfab
