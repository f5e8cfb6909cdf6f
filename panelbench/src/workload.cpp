#include "workload.h"

#include <sys/resource.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "exp/journal.h"
#include "trace.h"

namespace panelbench {

using namespace qfab;

namespace {

const std::vector<double> kFig1Rates1q = {0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0};
const std::vector<double> kFig1Rates2q = {0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0};
const std::vector<double> kFig2Rates2q = {0.1, 0.25, 0.5, 1.0, 1.5, 2.0};

const std::vector<Row> kFigureRows = {
    {"1to1", {1, 1}, {}}, {"1to2", {1, 2}, {}}, {"2to2", {2, 2}, {}}};

SweepConfig panel_config(const CircuitSpec& base, std::vector<int> depths,
                         int instances, int trajectories, std::uint64_t shots,
                         Precision precision, std::uint64_t seed) {
  SweepConfig cfg;
  cfg.base = base;
  cfg.depths = std::move(depths);
  cfg.instances = instances;
  cfg.run.shots = shots;
  cfg.run.error_trajectories = trajectories;
  cfg.run.precision = precision;
  cfg.seed = seed;
  return cfg;
}

void add_panel(Workload& w, std::size_t row, const SweepConfig& cfg,
               bool vary_2q, const std::vector<double>& rates) {
  Panel p;
  p.row = row;
  p.name = w.rows[row].name + (vary_2q ? "_2q" : "_1q");
  p.config = cfg;
  p.config.orders = w.rows[row].orders;
  p.config.vary_2q = vary_2q;
  p.config.rates_percent = rates;
  w.panels.push_back(std::move(p));
}

/// sweep_csv_table bytes of a result, as the figure benches write them.
std::string csv_text(const SweepResult& result, const std::string& path) {
  sweep_csv_table(result).write_csv(path);
  return read_bytes(path);
}

void finish_rep(const Workload& w, const std::string& csv_dir, RepResult& rep) {
  std::filesystem::create_directories(csv_dir);
  for (std::size_t i = 0; i < w.panels.size(); ++i) {
    const SweepResult& r = rep.results[i];
    rep.units += r.units_total;
    rep.retried += r.units_retried;
    rep.poisoned += r.unit_errors.size();
    rep.csv.push_back(
        csv_text(r, csv_dir + "/" + w.panels[i].name + ".csv"));
  }
}

}  // namespace

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const char* scale_name(Scale scale) {
  return scale == Scale::kTiny ? "tiny" : "default";
}

std::size_t Workload::points() const {
  std::size_t n = 0;
  for (const Panel& p : panels)
    n += static_cast<std::size_t>(p.config.instances) * p.config.depths.size() *
         p.config.expanded_rates().size();
  return n;
}

std::size_t Workload::units() const {
  std::size_t n = 0;
  for (const Panel& p : panels)
    n += SweepGrid(p.config, static_cast<std::size_t>(p.config.instances))
             .n_units;
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"qfa8_fig1", "qfm4_fig2",
                                                  "qfa4_fabric"};
  return names;
}

Workload make_workload(const std::string& name, Scale scale,
                       std::uint64_t seed) {
  const bool tiny = scale == Scale::kTiny;
  Workload w;
  w.name = name;
  w.scale = scale;
  w.seed = seed;
  CircuitSpec base;
  if (name == "qfa8_fig1") {
    // Fig. 1 at fig1_qfa_sweep's default scale, --precision auto
    // --checkpoint: six panels, one journal each.
    base.op = Operation::kAdd;
    base.n = 8;
    w.journaled = true;
    w.rows = kFigureRows;
    const SweepConfig cfg =
        tiny ? panel_config(base, {1, kFullDepth}, 3, 3, 64, Precision::kAuto,
                            seed)
             : panel_config(base, {1, 2, 3, 4, kFullDepth}, 12, 10, 2048,
                            Precision::kAuto, seed);
    for (std::size_t r = 0; r < w.rows.size(); ++r) {
      add_panel(w, r, cfg, false,
                tiny ? std::vector<double>{0.4, 0.8} : kFig1Rates1q);
      add_panel(w, r, cfg, true,
                tiny ? std::vector<double>{0.5, 2.0} : kFig1Rates2q);
    }
  } else if (name == "qfm4_fig2") {
    // Fig. 2's 2q-rate panels at fig2_qfm_sweep's default scale: the QFM
    // n=4 cascade in double precision, no checkpoint.
    base.op = Operation::kMultiply;
    base.n = 4;
    w.rows = kFigureRows;
    const SweepConfig cfg =
        tiny ? panel_config(base, {1, kFullDepth}, 2, 2, 64,
                            Precision::kDouble, seed)
             : panel_config(base, {1, 2, 3, kFullDepth}, 8, 6, 2048,
                            Precision::kDouble, seed);
    for (std::size_t r = 0; r < w.rows.size(); ++r)
      add_panel(w, r, cfg, true,
                tiny ? std::vector<double>{0.5, 2.0} : kFig2Rates2q);
  } else if (name == "qfa4_fabric") {
    // Many ~1 ms units of QFA n=4 through a two-worker fabric: lease
    // claims, fsync'd shard appends, done markers and the merge dominate.
    base.op = Operation::kAdd;
    base.n = 4;
    w.fabric_workers = 2;
    w.rows = {kFigureRows[0]};
    const SweepConfig cfg =
        tiny ? panel_config(base, {1, kFullDepth}, 16, 3, 64,
                            Precision::kDouble, seed)
             : panel_config(base, {1, 2, 3, kFullDepth}, 128, 10, 2048,
                            Precision::kDouble, seed);
    add_panel(w, 0, cfg, true,
              tiny ? std::vector<double>{0.5, 2.0} : kFig1Rates2q);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

void generate_rows(Workload& w) {
  for (Row& row : w.rows) {
    Pcg64 row_rng(w.seed ^
                  (static_cast<std::uint64_t>(row.orders.order_x) << 8) ^
                  static_cast<std::uint64_t>(row.orders.order_y));
    const CircuitSpec& base = w.panels.front().config.base;
    row.instances = generate_instances(w.panels.front().config.instances,
                                       base.n, base.n, row.orders, row_rng);
  }
}

double process_cpu_s() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string journal_path(const std::string& state_dir, const Panel& p) {
  return state_dir + "/" + p.name + ".journal";
}

std::string fabric_dir(const std::string& state_dir, const Panel& p) {
  return state_dir + "/" + p.name + ".fabric";
}

namespace {

enum class Mode {
  kFresh,      // the workload's own durable state (if any), started afresh
  kResume,     // resume from finished durable state
  kInProcess,  // run_sweep_durable with a fresh journal, even for a fabric
};

/// Every panel through its public entry point; timing is the caller's.
/// Durable state: a fabric directory for fabric workloads, else a journal
/// (kFresh journals only when the workload is journaled; kResume reads
/// the journals a journaled run_rep or run_traced_rep wrote).
RepResult run_panels(const Workload& w, const std::string& state_dir,
                     Mode mode) {
  std::filesystem::create_directories(state_dir);
  RepResult rep;
  for (const Panel& p : w.panels) {
    const std::vector<ArithInstance>& inst = w.rows[p.row].instances;
    SpanScope span(mode == Mode::kResume ? "exp.resume" : "exp.sweep");
    if (mode != Mode::kInProcess && w.fabric_workers > 0) {
      FabricOptions fabric;
      fabric.dir = fabric_dir(state_dir, p);
      fabric.workers = w.fabric_workers;
      fabric.resume = mode == Mode::kResume;
      // The coordinator's default 50 ms supervision cadence would quantise
      // a ~0.2 s run into a handful of poll periods; 5 ms keeps the
      // protocol's own I/O the measured cost.
      fabric.poll_seconds = 0.005;
      rep.fabric.emplace_back();
      rep.results.push_back(
          run_sweep_fabric(p.config, inst, fabric, &rep.fabric.back()));
    } else {
      DurableOptions durable;
      if (mode != Mode::kFresh || w.journaled) {
        durable.journal_path = journal_path(state_dir, p);
        durable.resume = mode == Mode::kResume;
      }
      rep.results.push_back(run_sweep_durable(p.config, inst, durable));
    }
  }
  return rep;
}

}  // namespace

RepResult run_rep(Workload& w, const std::string& state_dir) {
  const double cpu0 = process_cpu_s();
  const Stopwatch watch;
  generate_rows(w);
  RepResult rep = run_panels(w, state_dir, Mode::kFresh);
  rep.wall_s = watch.seconds();
  rep.cpu_s = process_cpu_s() - cpu0;
  finish_rep(w, state_dir + "/csv", rep);
  return rep;
}

RepResult resume_rep(const Workload& w, const std::string& state_dir) {
  const Stopwatch watch;
  RepResult rep = run_panels(w, state_dir, Mode::kResume);
  rep.wall_s = watch.seconds();
  finish_rep(w, state_dir + "/csv_resume", rep);
  return rep;
}

RepResult in_process_rep(const Workload& w, const std::string& state_dir) {
  const Stopwatch watch;
  RepResult rep = run_panels(w, state_dir, Mode::kInProcess);
  rep.wall_s = watch.seconds();
  finish_rep(w, state_dir + "/csv", rep);
  return rep;
}

double setup_once(Workload& w) {
  const Stopwatch watch;
  generate_rows(w);
  for (const Panel& p : w.panels)
    const SweepExecution exec(p.config, w.rows[p.row].instances);
  return watch.seconds();
}

RepResult run_traced_rep(Workload& w, const std::string& state_dir,
                         std::vector<LoopWindow>& windows) {
  std::filesystem::create_directories(state_dir);
  RepResult rep;
  const double cpu0 = process_cpu_s();
  const Stopwatch watch;
  {
    SpanScope rows_span("exp.generate_instances");
    generate_rows(w);
  }
  for (const Panel& p : w.panels) {
    SpanScope panel_span("exp.panel");
    const std::vector<ArithInstance>& inst = w.rows[p.row].instances;
    std::unique_ptr<SweepExecution> exec;
    {
      SpanScope s("exp.setup");
      exec = std::make_unique<SweepExecution>(p.config, inst);
    }
    const SweepGrid& grid = exec->grid();
    SweepAssembler assembler(p.config, grid);
    std::unique_ptr<JournalWriter> journal;
    if (w.journaled || w.fabric_workers > 0) {
      SpanScope s("exp.journal_open");
      journal = std::make_unique<JournalWriter>(
          journal_path(state_dir, p), sweep_fingerprint(p.config, inst),
          /*fresh=*/true);
    }
    std::atomic<std::size_t> retried{0};
    LoopWindow window;
    window.start_ms = now_ms();
    parallel_for_chunked(0, grid.n_units, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) {
        const SweepGrid::UnitKey key = grid.key(u);
        UnitResult out;
        {
          SpanScope s("exp.unit", static_cast<long>(u));
          out = exec->run_unit(u);
        }
        if (out.retried) retried.fetch_add(1, std::memory_order_relaxed);
        if (!journal) {
          assembler.add_computed(u, std::move(out));
          continue;
        }
        JournalRecord rec;
        rec.type = out.poisoned ? JournalRecord::Type::kPoisoned
                                : JournalRecord::Type::kUnit;
        rec.depth_index = static_cast<std::uint32_t>(key.depth_index);
        rec.block_begin = static_cast<std::uint32_t>(key.block_begin);
        rec.block_end = static_cast<std::uint32_t>(key.block_end);
        rec.outcomes = out.outcomes;
        rec.stats = out.stats;
        rec.error = out.error;
        assembler.add_computed(u, std::move(out));
        SpanScope s("exp.journal_append", static_cast<long>(u));
        journal->append(rec);
      }
    });
    window.end_ms = now_ms();
    windows.push_back(window);
    rep.results.push_back(assembler.finish(
        watch.seconds(), 0, retried.load(std::memory_order_relaxed)));
  }
  rep.wall_s = watch.seconds();
  rep.cpu_s = process_cpu_s() - cpu0;
  finish_rep(w, state_dir + "/csv", rep);
  return rep;
}

}  // namespace panelbench
