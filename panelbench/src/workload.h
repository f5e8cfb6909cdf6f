// The benchmark's workloads and the two ways a repetition runs them:
// untraced, through the public sweep entry points exactly as the figure
// benches call them, and traced, through the same unit loop rebuilt from
// SweepExecution / SweepAssembler / JournalWriter with a span per call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/fabric.h"
#include "exp/sweep.h"

namespace panelbench {

enum class Scale { kDefault, kTiny };

const char* scale_name(Scale scale);

/// One figure row: an operand-order pair and the operand set both of its
/// panels share (paper Sec. IV).
struct Row {
  std::string name;  // "1to1", "1to2", "2to2"
  qfab::OperandOrders orders;
  std::vector<qfab::ArithInstance> instances;  // filled by generate_rows
};

/// One figure panel: a sweep over (depth × rate column) for one row.
struct Panel {
  std::string name;  // "<row>_<axis>", e.g. "1to1_2q"
  std::size_t row = 0;
  qfab::SweepConfig config;
};

struct Workload {
  std::string name;
  Scale scale = Scale::kDefault;
  std::uint64_t seed = 0;
  /// Each panel checkpoints to its own journal (run_sweep_durable).
  bool journaled = false;
  /// > 0: every panel runs through run_sweep_fabric with this many worker
  /// processes (its durable state is the fabric directory).
  int fabric_workers = 0;
  std::vector<Row> rows;
  std::vector<Panel> panels;

  /// Success-rate points one repetition evaluates: instance × depth × rate
  /// column (the noise-free column included), summed over panels.
  std::size_t points() const;
  /// Work units (instance block × depth) one repetition runs.
  std::size_t units() const;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// The named workload's configuration; operands are not generated yet.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, Scale scale,
                       std::uint64_t seed);

/// generate_instances for every row from its row seed, as the figure
/// benches derive it (seed ^ order_x << 8 ^ order_y).
void generate_rows(Workload& w);

/// Whole file contents ("" when it cannot be read).
std::string read_bytes(const std::string& path);

/// Process CPU seconds, user + system, of this process and its reaped
/// children (RUSAGE_SELF + RUSAGE_CHILDREN).
double process_cpu_s();
/// Peak resident set in MiB: the larger of this process and its largest
/// reaped child.
double peak_rss_mb();

/// What one repetition produced.
struct RepResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<qfab::SweepResult> results;  // per panel
  std::vector<std::string> csv;            // per panel, sweep_csv_table
  std::size_t units = 0;
  std::size_t retried = 0;
  std::size_t poisoned = 0;
  std::vector<qfab::FabricReport> fabric;  // per panel, fabric runs only
};

/// One untraced repetition: instance generation, then every panel through
/// its entry point, one exp.sweep span each: run_sweep_durable with a fresh
/// journal under `state_dir` when journaled, run_sweep_fabric with a fresh
/// fabric directory there when fabric, plain run_sweep_durable otherwise.
RepResult run_rep(Workload& w, const std::string& state_dir);

/// Return every panel's merged result from finished durable state in
/// `state_dir`: a fabric resume of the directories a fabric run_rep left,
/// otherwise a journal resume (run_sweep_durable with resume) of the
/// journals a run_rep or run_traced_rep wrote. One exp.resume span per
/// panel.
RepResult resume_rep(const Workload& w, const std::string& state_dir);

/// In-process run_sweep_durable of every panel, journaled under
/// `state_dir` even for a fabric workload, timed: the reference a fabric
/// run must match and the traced loop's untraced counterpart.
RepResult in_process_rep(const Workload& w, const std::string& state_dir);

/// Set-up only: instance generation, then a SweepExecution per panel
/// (transpiled circuits and fused plans for every depth). Returns seconds.
double setup_once(Workload& w);

/// Unit-loop windows of one traced panel, for thread utilisation.
struct LoopWindow {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// One traced repetition: the run_sweep_durable unit loop rebuilt from
/// public pieces (SweepExecution::run_unit under parallel_for_chunked,
/// SweepAssembler, JournalWriter), with spans around set-up, every unit
/// and every journal append. Journaled and fabric workloads journal to
/// `state_dir` (a fabric's workers journal too).
RepResult run_traced_rep(Workload& w, const std::string& state_dir,
                         std::vector<LoopWindow>& windows);

/// Journal path and fabric directory of a panel under `state_dir`.
std::string journal_path(const std::string& state_dir, const Panel& p);
std::string fabric_dir(const std::string& state_dir, const Panel& p);

}  // namespace panelbench
