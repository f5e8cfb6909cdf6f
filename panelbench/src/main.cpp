// panel_bench: the figure-panel benchmark.
//
//   panel_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--scale default|tiny] [--bench-dir DIR] [--work-dir DIR]
//               [--corrupt-csv] [--write-reference]
//
// --trace 0 repeats the workload through its public entry points for S
// seconds and reports the end-to-end metrics; --trace 1 interleaves an
// untraced repetition, a traced one (spans around every unit loop call)
// and the layer probes, and reports the per-layer split. Either way the
// last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the full record (config block, gate failures, raw samples) is written
// to WORK_DIR/out/. The run exits 1 when the correctness gate fails.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/cli.h"
#include "common/stopwatch.h"
#include "exp/journal.h"
#include "noise/estimator.h"
#include "sim/batch.h"
#include "probes.h"
#include "report.h"
#include "trace.h"
#include "workload.h"

namespace panelbench {
namespace {

using namespace qfab;

constexpr std::uint64_t kDefaultSeed = 211209349;  // the figure benches'
/// Set-up takes milliseconds, so before every repetition it repeats until
/// it has accumulated enough time; spreading the samples over the run keeps
/// one slow phase of the host from setting the median.
constexpr int kMinSetupRepeats = 2;
constexpr int kMaxSetupRepeats = 200;
constexpr double kSetupSecondsPerRep = 0.3;
/// No repetition starts once the run could not finish inside this budget
/// (the run must end well within 180 s).
constexpr double kRunBudgetSeconds = 140.0;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 24.0;
  bool trace = false;
  Scale scale = Scale::kDefault;
  std::string bench_dir = "panelbench";
  std::string work_dir = ".bench_work";
  bool corrupt = false;
  bool write_ref = false;
};

struct Run {
  Options opt;
  Workload w;
  int threads = 1;  // threads that run units in process (pool + caller)
  std::string dir;    // WORK_DIR/<workload>, wiped per run
  std::string state;  // journals and fabric directories
  Gate gate;
  long attempted = 0;
  long poisoned = 0;
  std::ostringstream samples;  // raw per-repetition samples, for the record
  Stopwatch watch;

  bool more(std::size_t reps, double last_rep_s) const {
    if (reps == 0) return true;
    return watch.seconds() < opt.seconds &&
           watch.seconds() + 1.2 * last_rep_s < kRunBudgetSeconds;
  }
  /// The portable kernel tier rounds double-precision replays without FMA,
  /// so a few multinomial shot counts land differently from the AVX2 and
  /// AVX-512 tiers, which agree with each other byte for byte. Each family
  /// keeps its own reference.
  std::string reference_dir() const {
    const char* family =
        std::string(simd_mode_name()) == "scalar" ? "portable" : "fma";
    return opt.bench_dir + "/reference/" + family + "/" +
           scale_name(opt.scale) + "/" + w.name;
  }
};

std::string join(const std::vector<double>& v) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
  return "[" + out.str() + "]";
}

/// The checks on a run's first-repetition CSVs that hold at any seed, plus
/// the stored reference at the default seed.
void gate_csvs(Run& run, std::vector<std::string>& csv) {
  if (run.opt.corrupt) csv.front() = corrupt_csv(csv.front());
  for (std::size_t i = 0; i < csv.size(); ++i)
    check_csv(run.w.panels[i].name, csv[i], run.gate);
  if (run.opt.write_ref)
    write_reference(run.w, csv, run.reference_dir());
  else if (run.opt.seed == kDefaultSeed)
    check_reference(run.w, csv, run.reference_dir(), run.gate);
  if (run.w.fabric_workers > 0) {
    const RepResult ref = in_process_rep(run.w, run.dir + "/in_process");
    run.gate.expect(ref.csv == csv,
                    "fabric CSV differs from in-process run_sweep_durable");
  }
}

Metrics run_end_to_end(Run& run) {
  const double points = static_cast<double>(run.w.points());
  std::vector<double> setup, pps, cpu_per_kpoint;
  std::vector<std::string> first_csv;
  double last = 0.0;
  for (std::size_t rep = 0; run.more(rep, last); ++rep) {
    double setup_total = 0.0;
    for (int k = 0; k < kMinSetupRepeats ||
                    (setup_total < kSetupSecondsPerRep && k < kMaxSetupRepeats);
         ++k) {
      setup.push_back(setup_once(run.w));
      setup_total += setup.back();
    }
    const RepResult r = run_rep(run.w, run.state);
    last = r.wall_s + setup_total;
    pps.push_back(points / r.wall_s);
    cpu_per_kpoint.push_back(r.cpu_s / points * 1000.0);
    run.attempted += static_cast<long>(r.units);
    run.poisoned += static_cast<long>(r.poisoned);
    if (rep == 0)
      first_csv = r.csv;
    else
      run.gate.expect(r.csv == first_csv, "repetition " +
                                              std::to_string(rep) +
                                              " CSV differs from the first");
  }
  gate_csvs(run, first_csv);

  run.samples << "\"setup_s\": " << join(setup)
              << ", \"points_per_s\": " << join(pps)
              << ", \"cpu_s_per_kpoint\": " << join(cpu_per_kpoint);
  Metrics m;
  m.add("points_per_s", median(pps), "1/s");
  m.add("cpu_s_per_kpoint", median(cpu_per_kpoint), "s");
  m.add("setup_s", median(setup), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

/// Thread-busy share and idle-tail wall of the traced unit loops.
void loop_utilisation(const std::vector<Span>& all,
                      const std::vector<LoopWindow>& windows, int threads,
                      double& util, double& idle_tail_ms) {
  double busy = 0.0, capacity = 0.0;
  idle_tail_ms = 0.0;
  for (const LoopWindow& win : windows) {
    std::vector<std::pair<double, int>> edges;
    for (const Span& s : all) {
      if (std::string("exp.unit") != s.name || s.start_ms < win.start_ms ||
          s.end_ms > win.end_ms)
        continue;
      busy += s.ms();
      edges.emplace_back(s.start_ms, 1);
      edges.emplace_back(s.end_ms, -1);
    }
    capacity += (win.end_ms - win.start_ms) * threads;
    std::sort(edges.begin(), edges.end());
    int running = 0;
    double t = win.start_ms;
    for (const auto& [at, step] : edges) {
      if (running < threads) idle_tail_ms += at - t;
      t = at;
      running += step;
    }
    idle_tail_ms += win.end_ms - t;
  }
  util = capacity > 0.0 ? busy / capacity : 0.0;
}

/// Shard records of one fabric directory: per-shard unit counts and the
/// read_journal time of each shard (spans named exp.journal_read).
std::vector<long> read_shards(const std::string& dir) {
  std::vector<long> per_shard;
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir + "/shards"))
    if (e.path().extension() == ".journal") names.push_back(e.path().string());
  std::sort(names.begin(), names.end());
  for (const std::string& path : names) {
    SpanScope s("exp.journal_read");
    const JournalContents c = read_journal(path);
    long units = 0;
    for (const JournalRecord& rec : c.records)
      if (rec.type != JournalRecord::Type::kTimeout) ++units;
    per_shard.push_back(units);
  }
  return per_shard;
}

Metrics run_traced(Run& run) {
  const double points = static_cast<double>(run.w.points());
  std::vector<double> pps_untraced, pps_traced;
  std::vector<LoopWindow> windows;
  std::vector<std::string> first_csv;
  ProbeTotals probe;
  SharedEstimateStats stats;
  long units = 0, retried = 0, poisoned = 0, fallbacks = 0;
  double journal_bytes = 0.0;
  long steals = 0, respawns = 0, kills = 0, shard_records = 0,
       fabric_units = 0;
  double imbalance = 0.0;
  const std::string traced_state = run.dir + "/traced";

  // A fabric forks its workers. Run every fabric repetition, with its shard
  // reads and a resume, before this process starts a thread (the pool
  // starts with the first in-process loop), so no worker is forked from a
  // multi-threaded parent. They take the first third of the run.
  for (std::size_t k = 0;
       run.w.fabric_workers > 0 &&
       (k == 0 || run.watch.seconds() < run.opt.seconds / 3.0);
       ++k) {
    const RepResult fabric = run_rep(run.w, run.state);
    run.attempted += static_cast<long>(fabric.units);
    run.poisoned += static_cast<long>(fabric.poisoned);
    if (k == 0) first_csv = fabric.csv;
    set_tracing(true);
    for (std::size_t i = 0; i < fabric.fabric.size(); ++i) {
      const FabricReport& f = fabric.fabric[i];
      steals += f.lease_steals;
      respawns += f.respawns;
      kills += f.kills;
      const std::vector<long> per_shard =
          read_shards(fabric_dir(run.state, run.w.panels[i]));
      long sum = 0, lo = -1, hi = 0;
      for (long n : per_shard) {
        sum += n;
        hi = std::max(hi, n);
        lo = lo < 0 ? n : std::min(lo, n);
      }
      shard_records += sum;
      fabric_units += static_cast<long>(fabric.results[i].units_total);
      imbalance = std::max(
          imbalance, static_cast<double>(hi) / static_cast<double>(
                                                   std::max(lo, 1L)));
    }
    const RepResult resumed = resume_rep(run.w, run.state);
    run.gate.expect(resumed.csv == fabric.csv,
                    "resumed CSV differs from the fresh run's");
    set_tracing(false);
  }

  std::size_t iters = 0;
  double last = 0.0;
  for (; run.more(iters, last); ++iters) {
    const double t0 = run.watch.seconds();
    RepResult plain, traced;
    long fb_delta = 0;
    // The untraced side runs in process like the traced loop: for a fabric
    // workload that is run_sweep_durable of the same panels, journaled like
    // the fabric's shards.
    const auto untraced_rep = [&] {
      plain = run.w.fabric_workers > 0
                  ? in_process_rep(run.w, run.dir + "/in_process")
                  : run_rep(run.w, run.state);
    };
    const auto traced_rep = [&] {
      set_tracing(true);
      const long fb0 = precision_fallback_count();
      traced = run_traced_rep(run.w, traced_state, windows);
      fb_delta = precision_fallback_count() - fb0;
      set_tracing(false);
    };
    // Alternate which side goes first; the first iteration traces first,
    // so a single-iteration run charges the process's first-repetition
    // warm-up to the traced side rather than hiding overhead.
    if (iters % 2 == 0) {
      traced_rep();
      untraced_rep();
    } else {
      untraced_rep();
      traced_rep();
    }
    pps_untraced.push_back(points / plain.wall_s);
    pps_traced.push_back(points / traced.wall_s);
    run.attempted += static_cast<long>(plain.units + traced.units);
    run.poisoned += static_cast<long>(plain.poisoned + traced.poisoned);
    if (first_csv.empty()) first_csv = plain.csv;
    run.gate.expect(traced.csv == plain.csv,
                    "traced CSV differs from the untraced CSV");

    set_tracing(true);
    if (run.w.journaled || run.w.fabric_workers > 0) {
      if (run.w.fabric_workers == 0) {
        const RepResult resumed = resume_rep(run.w, traced_state);
        run.gate.expect(resumed.csv == plain.csv,
                        "resumed CSV differs from the fresh run's");
      }
      for (const Panel& p : run.w.panels) {
        const std::string path = journal_path(traced_state, p);
        SpanScope s("exp.journal_read");
        (void)read_journal(path);
        if (iters == 0)
          journal_bytes +=
              static_cast<double>(std::filesystem::file_size(path));
      }
    }
    const ProbeTotals t = probe_workload(run.w);
    if (iters == 0) {
      probe = t;
      fallbacks = fb_delta;
      units = static_cast<long>(traced.units);
      retried = static_cast<long>(traced.retried);
      poisoned = static_cast<long>(traced.poisoned);
      for (const SweepResult& r : traced.results) stats.merge(r.shared_stats);
      if (t.fallback_columns != stats.fallback_columns)
        std::cerr << "note: the fallback probe repeated " << t.fallback_columns
                  << " ESS fallbacks, the sweep ran " << stats.fallback_columns
                  << "\n";
    }
    set_tracing(false);
    last = run.watch.seconds() - t0;
  }
  gate_csvs(run, first_csv);

  const std::vector<Span> all = spans();
  const double n_iters = static_cast<double>(iters);
  Metrics m;
  m.add_calls("transpile.ms", span_ms(all, "transpile"));
  m.add("transpile.gates", static_cast<double>(probe.gates), "count");
  m.add_calls("sim.plan_compile_ms", span_ms(all, "sim.plan_compile"));
  m.add("sim.plan_ops", static_cast<double>(probe.plan_ops), "count");
  m.add("sim.gates_per_op",
        static_cast<double>(probe.gates) / static_cast<double>(probe.plan_ops),
        "ratio");
  m.add_calls("noise.clean_run_ms", span_ms(all, "noise.clean_run"));
  m.add_calls("noise.sample_ms", span_ms(all, "noise.sample"));
  m.add("noise.events_per_traj",
        static_cast<double>(probe.events) /
            static_cast<double>(std::max(probe.trajectories, 1L)),
        "ratio");
  m.add_calls("noise.estimator_ms", span_ms(all, "noise.estimator"));
  m.add("noise.dedup_ratio",
        static_cast<double>(stats.unique_trajectories) /
            static_cast<double>(std::max(stats.proposal_trajectories, 1L)),
        "ratio");
  m.add("noise.ess_fallback_share",
        static_cast<double>(stats.fallback_columns) /
            static_cast<double>(std::max(stats.rate_columns, 1L)),
        "share");
  m.add("noise.precision_fallbacks", static_cast<double>(fallbacks), "count");
  const std::vector<double> replay = span_ms(all, "noise.replay");
  double replay_ms = 0.0;
  for (double v : replay) replay_ms += v;
  m.add_calls("noise.replay_ms", replay);
  m.add("noise.replay_lanes", static_cast<double>(probe.replay_lanes),
        "count");
  m.add("noise.replay_ms_per_lane",
        replay_ms / (n_iters * static_cast<double>(
                                   std::max(probe.replay_lanes, 1L))),
        "ms");
  m.add("noise.replay_gb_computed", probe.replay_bytes / 1e9, "GB");
  m.add("noise.replay_gbps_computed",
        replay_ms > 0.0 ? n_iters * probe.replay_bytes / 1e9 /
                              (replay_ms / 1e3)
                        : 0.0,
        "GB/s");
  m.add_calls("noise.fallback_ms", span_ms(all, "noise.fallback"));
  m.add_calls("sim.marginals_ms", span_ms(all, "sim.marginals"));
  m.add_calls("noise.shots_ms", span_ms(all, "noise.shots"));

  const std::vector<double> unit = span_ms(all, "exp.unit");
  double util = 0.0, idle_tail = 0.0;
  loop_utilisation(all, windows, run.threads, util, idle_tail);
  m.add("exp.units", static_cast<double>(units), "count");
  m.add_calls("exp.unit_ms", unit, "_p50");
  m.add("exp.unit_ms_max",
        unit.empty() ? 0.0 : *std::max_element(unit.begin(), unit.end()),
        "ms");
  m.add("exp.thread_util", util, "share");
  m.add("exp.idle_tail_ms", idle_tail / n_iters, "ms");
  m.add("exp.units_retried", static_cast<double>(retried), "count");
  m.add("exp.units_poisoned", static_cast<double>(poisoned), "count");
  m.add_calls("exp.journal_append_ms", span_ms(all, "exp.journal_append"),
              "_p50");
  m.add("exp.journal_bytes_per_unit",
        journal_bytes / static_cast<double>(std::max(units, 1L)), "bytes");
  m.add_calls("exp.journal_read_ms", span_ms(all, "exp.journal_read"));
  m.add_calls("exp.resume_ms", span_ms(all, "exp.resume"));
  m.add("exp.fabric_lease_steals", static_cast<double>(steals), "count");
  m.add("exp.fabric_respawns", static_cast<double>(respawns), "count");
  m.add("exp.fabric_kills", static_cast<double>(kills), "count");
  m.add("exp.fabric_dup_records",
        fabric_units > 0 ? static_cast<double>(shard_records) /
                                   static_cast<double>(fabric_units) -
                               1.0
                         : 0.0,
        "ratio");
  m.add("exp.fabric_worker_imbalance", imbalance, "ratio");

  // Layer split of the traced repetitions' thread-busy time: set-up,
  // units, journal I/O. Units split by the probes; what the probe spans do
  // not cover of the unit time stays "unaccounted".
  const double setup = span_total_ms(all, "exp.setup");
  const double journal = span_total_ms(all, "exp.journal_append") +
                         span_total_ms(all, "exp.journal_open");
  const double units_ms = span_total_ms(all, "exp.unit");
  const double clean = span_total_ms(all, "noise.clean_run");
  const double estimator = span_total_ms(all, "noise.estimator");
  const double sample = span_total_ms(all, "noise.sample");
  const double load = span_total_ms(all, "noise.lane_load");
  const double marginals = span_total_ms(all, "sim.marginals");
  const double fallback = span_total_ms(all, "noise.fallback");
  const double shots = span_total_ms(all, "noise.shots");
  const double unaccounted = units_ms - clean - estimator - shots;
  const double busy = setup + journal + units_ms;
  const double pu = median(pps_untraced), pt = median(pps_traced);
  m.add("trace.points_per_s_untraced", pu, "1/s");
  m.add("trace.points_per_s_traced", pt, "1/s");
  m.add("trace.overhead_share", pu > 0.0 ? 1.0 - pt / pu : 0.0, "share");
  m.add("trace.unaccounted_share",
        units_ms > 0.0 ? unaccounted / units_ms : 0.0, "share");
  const auto share = [&](const char* name, double ms) {
    m.add(name, busy > 0.0 ? ms / busy : 0.0, "share");
  };
  share("split.setup", setup);
  share("split.journal", journal);
  share("split.clean_run", clean);
  share("split.sample", sample);
  share("split.lane_load", load);
  share("split.replay", replay_ms);
  share("split.marginals", marginals);
  share("split.fallback", fallback);
  share("split.estimator_other",
        estimator - sample - load - replay_ms - marginals - fallback);
  share("split.shots", shots);
  share("split.unaccounted", unaccounted);

  run.samples << "\"points_per_s_untraced\": " << join(pps_untraced)
              << ", \"points_per_s_traced\": " << join(pps_traced)
              << ", \"probe_unit_self_ms\": "
              << span_self_total_ms(all, "probe.unit");
  return m;
}

bool parse(int argc, char** argv, Options& opt) {
  const CliFlags flags(argc, argv);
  opt.workload = flags.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<long>(kDefaultSeed)));
  opt.seconds = flags.get_double("seconds", opt.seconds);
  opt.trace = flags.get_int("trace", 0) != 0;
  const std::string scale = flags.get_string("scale", "default");
  opt.bench_dir = flags.get_string("bench-dir", opt.bench_dir);
  opt.work_dir = flags.get_string("work-dir", opt.work_dir);
  opt.corrupt = flags.get_bool("corrupt-csv", false);
  opt.write_ref = flags.get_bool("write-reference", false);
  if (!flags.validate()) return false;
  if (scale != "default" && scale != "tiny") {
    std::cerr << "--scale must be default or tiny\n";
    return false;
  }
  opt.scale = scale == "tiny" ? Scale::kTiny : Scale::kDefault;
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    std::cerr << "--workload must be one of qfa8_fig1, qfm4_fig2, "
                 "qfa4_fabric\n";
    return false;
  }
  return true;
}

int run_main(int argc, char** argv) {
  Run run;
  if (!parse(argc, argv, run.opt)) return 2;
  if (!std::filesystem::exists(run.opt.bench_dir + "/reference")) {
    std::cerr << "benchmark directory " << run.opt.bench_dir
              << " has no reference/ tree\n";
    return 2;
  }
  run.w = make_workload(run.opt.workload, run.opt.scale, run.opt.seed);
  // At most four threads run units in one process. parallel_for_chunked's
  // caller works alongside the pool, so the pool gets one thread fewer. A
  // fabric splits the four across its workers, which inherit the pinned
  // pool size (their claim loops run one unit at a time).
  const int cap = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  const int pool = run.w.fabric_workers > 0
                       ? std::max(1, cap / run.w.fabric_workers)
                       : std::max(1, cap - 1);
  run.threads = pool > 1 ? pool + 1 : 1;
  setenv("QFAB_THREADS", std::to_string(pool).c_str(), 1);

  run.dir = run.opt.work_dir + "/" + run.w.name;
  run.state = run.dir + "/state";
  std::filesystem::remove_all(run.dir);
  std::filesystem::create_directories(run.state);
  const std::string out_dir = run.opt.work_dir + "/out";
  std::filesystem::create_directories(out_dir);

  const std::string config = config_json(run.w, run.threads, run.state);
  std::cout << "config: " << config << std::endl;
  const Metrics metrics = run.opt.trace ? run_traced(run) : run_end_to_end(run);

  const bool correct = run.gate.ok();
  const long failed = correct ? run.poisoned : run.attempted;
  for (const std::string& f : run.gate.failures())
    std::cerr << "correctness gate: " << f << '\n';
  const std::string line =
      result_line(correct, run.attempted, failed, metrics);

  const std::string stem = out_dir + "/" + run.w.name + "-" +
                           scale_name(run.opt.scale) + "-seed" +
                           std::to_string(run.opt.seed) + "-trace" +
                           (run.opt.trace ? "1" : "0");
  if (run.opt.trace) write_spans_csv(stem + "-spans.csv");
  std::ofstream record(stem + ".json");
  record << "{\"config\": " << config << ", \"gate_failures\": [";
  for (std::size_t i = 0; i < run.gate.failures().size(); ++i)
    record << (i ? ", " : "") << '"' << run.gate.failures()[i] << '"';
  record << "], \"failed_unit_share\": "
         << static_cast<double>(failed) /
                static_cast<double>(std::max(run.attempted, 1L))
         << ", \"samples\": {" << run.samples.str()
         << "}, \"result\": " << line << "}\n";

  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace panelbench

int main(int argc, char** argv) {
  try {
    return panelbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "panel_bench: " << e.what() << '\n';
    return 2;
  }
}
