#include "report.h"

#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/host_info.h"
#include "exp/experiment.h"
#include "sim/batch.h"

#ifndef PANELBENCH_BUILD_TYPE
#define PANELBENCH_BUILD_TYPE "unknown"
#endif

namespace panelbench {

using namespace qfab;

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out + "\"";
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, sep)) out.push_back(cur);
  return out;
}

/// Filesystem type and mount point holding `path`, from the longest
/// matching mount point in /proc/self/mountinfo ("unknown" when absent).
std::string filesystem_of(const std::string& path) {
  std::error_code ec;
  const std::string real = std::filesystem::canonical(path, ec).string();
  std::ifstream in("/proc/self/mountinfo");
  std::string line, best_mount, best_type = "unknown";
  while (std::getline(in, line)) {
    const std::vector<std::string> f = split(line, ' ');
    const std::size_t dash = line.find(" - ");
    if (f.size() < 5 || dash == std::string::npos) continue;
    const std::string& mount = f[4];
    const bool under = real == mount ||
                       (real.compare(0, mount.size(), mount) == 0 &&
                        (mount == "/" || real[mount.size()] == '/'));
    if (!under || mount.size() < best_mount.size()) continue;
    best_mount = mount;
    best_type = split(line.substr(dash + 3), ' ').front();
  }
  struct statfs st {};
  std::ostringstream out;
  out << best_type << " at " << (best_mount.empty() ? "?" : best_mount);
  if (statfs(path.c_str(), &st) == 0)
    out << " (f_type 0x" << std::hex << static_cast<unsigned long>(st.f_type)
        << ")";
  return out.str();
}

}  // namespace

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

void Metrics::add_calls(const std::string& base,
                        const std::vector<double>& samples,
                        const std::string& p50_suffix) {
  const CallStats st = call_stats(samples);
  add(base + p50_suffix, st.p50, "ms");
  add(base + "_tail", st.tail, "ms");
  add(base + "_n", static_cast<double>(st.n), "count");
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i) out += ", ";
    out += quoted(entries_[i].name) + ": {\"value\": " +
           number(entries_[i].value) + ", \"unit\": " +
           quoted(entries_[i].unit) + "}";
  }
  return out + "}";
}

void Gate::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void check_csv(const std::string& panel, const std::string& csv, Gate& gate) {
  const std::vector<std::string> lines = split(csv, '\n');
  gate.expect(lines.size() >= 2 &&
                  lines[0] == "depth,rate_percent,success_rate,sigma,"
                              "lower_flips,upper_flips,instances",
              panel + ": CSV header or rows missing");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> f = split(lines[i], ',');
    if (f.size() != 7) {
      gate.expect(false, panel + ": malformed CSV row '" + lines[i] + "'");
      continue;
    }
    const double success = std::strtod(f[2].c_str(), nullptr);
    gate.expect(success >= 0.0 && success <= 1.0,
                panel + ": success rate " + f[2] + " outside [0, 1]");
    if (f[0] == "full" && std::strtod(f[1].c_str(), nullptr) == 0.0)
      gate.expect(f[2] == "1.000000",
                  panel + ": noise-free full-depth success " + f[2] +
                      " is not 100%");
  }
}

void check_reference(const Workload& w, const std::vector<std::string>& csv,
                     const std::string& reference_dir, Gate& gate) {
  for (std::size_t i = 0; i < w.panels.size(); ++i) {
    const std::string path = reference_dir + "/" + w.panels[i].name + ".csv";
    gate.expect(std::filesystem::exists(path),
                w.panels[i].name + ": reference " + path + " missing");
    if (std::filesystem::exists(path))
      gate.expect(read_bytes(path) == csv[i],
                  w.panels[i].name + ": CSV differs from reference " + path);
  }
}

void write_reference(const Workload& w, const std::vector<std::string>& csv,
                     const std::string& reference_dir) {
  std::filesystem::create_directories(reference_dir);
  for (std::size_t i = 0; i < w.panels.size(); ++i) {
    std::ofstream out(reference_dir + "/" + w.panels[i].name + ".csv",
                      std::ios::binary);
    out << csv[i];
  }
}

std::string corrupt_csv(const std::string& csv) {
  std::vector<std::string> lines = split(csv, '\n');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> f = split(lines[i], ',');
    if (f.size() != 7 || f[0] != "full" ||
        std::strtod(f[1].c_str(), nullptr) != 0.0)
      continue;
    f[2] = "0.500000";
    std::string row;
    for (std::size_t c = 0; c < f.size(); ++c) row += (c ? "," : "") + f[c];
    lines[i] = row;
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

std::string config_json(const Workload& w, int threads,
                        const std::string& state_dir) {
  const HostInfo& host = host_info();
  std::ostringstream out;
  out << "{\"workload\": " << quoted(w.name)
      << ", \"scale\": " << quoted(scale_name(w.scale))
      << ", \"seed\": " << w.seed << ", \"cpu\": " << quoted(host.cpu_model)
      << ", \"l2_kib\": " << host.l2_kib << ", \"l3_kib\": " << host.l3_kib
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"threads\": " << threads << ", \"pool_threads\": "
      << (std::getenv("QFAB_THREADS") ? std::getenv("QFAB_THREADS") : "0")
      << ", \"fabric_workers\": " << w.fabric_workers
      << ", \"simd\": " << quoted(simd_mode_name())
      << ", \"build_type\": " << quoted(PANELBENCH_BUILD_TYPE)
      << ", \"precision_by_depth\": {";
  const SweepConfig& cfg = w.panels.front().config;
  for (std::size_t d = 0; d < cfg.depths.size(); ++d) {
    CircuitSpec spec = cfg.base;
    spec.depth = cfg.depths[d];
    const std::size_t gates = build_transpiled_circuit(spec).gates().size();
    out << (d ? ", " : "") << quoted(depth_label(cfg.depths[d])) << ": "
        << quoted(precision_name(resolve_precision(cfg.run, gates)));
  }
  out << "}, \"points_per_rep\": " << w.points()
      << ", \"units_per_rep\": " << w.units()
      << ", \"state_fs\": " << quoted(filesystem_of(state_dir)) << "}";
  return out.str();
}

std::string result_line(bool correct, long attempted, long failed,
                        const Metrics& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.json() + "}";
}

}  // namespace panelbench
