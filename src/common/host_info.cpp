#include "common/host_info.h"

#include <fstream>

namespace qfab {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// sysfs cache sizes are "32K" / "2048K" / "16M"; anything unparsable
/// yields 0.
long parse_cache_kib(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t pos = 0;
  long value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + (text[pos] - '0');
    ++pos;
  }
  if (pos == 0) return 0;
  if (pos < text.size() && (text[pos] == 'M' || text[pos] == 'm'))
    value *= 1024;
  return value;
}

HostInfo probe() {
  HostInfo info;
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos ||
          line.compare(0, 10, "model name") != 0)
        continue;
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      info.cpu_model = line.substr(start);
      break;
    }
  }
  // cpu0's cache hierarchy: the data/unified level-2 entry is the per-core
  // L2, level 3 the shared LLC. Missing sysfs (containers, non-x86) leaves
  // the sizes at 0.
  for (int index = 0; index < 10; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_line(base + "/level");
    if (level.empty()) break;
    if (read_line(base + "/type") == "Instruction") continue;
    const long kib = parse_cache_kib(read_line(base + "/size"));
    if (level == "2")
      info.l2_kib = kib;
    else if (level == "3")
      info.l3_kib = kib;
  }
  return info;
}

}  // namespace

const HostInfo& host_info() {
  static const HostInfo info = probe();
  return info;
}

}  // namespace qfab
