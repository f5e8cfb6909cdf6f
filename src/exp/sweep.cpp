#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/parallel.h"
#include "common/shutdown.h"
#include "common/stopwatch.h"
#include "exp/journal.h"

namespace qfab {

namespace {

/// Deterministic per-(instance, depth, rate) RNG, independent of execution
/// order and thread scheduling. This is what makes checkpoint/resume exact:
/// a unit computed after a restart draws the same streams it would have
/// drawn in the uninterrupted run.
Pcg64 point_rng(std::uint64_t seed, std::size_t instance, std::size_t depth_i,
                std::size_t rate_i) {
  const std::uint64_t salt = (static_cast<std::uint64_t>(instance) << 32) ^
                             (static_cast<std::uint64_t>(depth_i) << 16) ^
                             static_cast<std::uint64_t>(rate_i);
  Pcg64 root(seed, 0x5eedULL);
  return root.split(salt);
}

NoiseModel noise_at(const SweepConfig& config, double rate_percent) {
  NoiseModel noise;
  (config.vary_2q ? noise.p2q : noise.p1q) = rate_percent / 100.0;
  noise.noisy_rz = config.run.noisy_rz;
  noise.noisy_id = config.run.noisy_id;
  return noise;
}

/// Immutable per-sweep state shared by every work unit (circuits and fused
/// plans are compiled once per depth), plus the lazily compiled scalar
/// non-fused plans that health-sentinel retries fall back to.
struct SweepContext {
  SweepContext(const SweepConfig& config_in,
               const std::vector<ArithInstance>& instances_in)
      : config(config_in), instances(instances_in) {}

  const SweepConfig& config;
  const std::vector<ArithInstance>& instances;
  std::vector<double> rates;
  std::vector<std::size_t> cluster;  // positive-rate column indices
  bool use_shared = false;
  std::vector<QuantumCircuit> circuits;
  std::vector<std::shared_ptr<const FusedPlan>> plans;

  std::mutex nonfused_mu;
  std::vector<std::shared_ptr<const FusedPlan>> nonfused;

  /// Compile everything the work units share. Separate from the
  /// constructor so the context can bind its references first.
  void prepare() {
    rates = config.expanded_rates();
    // The positive-rate columns form one shared-trajectory cluster per
    // (instance, depth): sampled once from the proposal rate and reweighted
    // per column. Zero-rate columns (the noise-free cluster) stay on the
    // per-rate path, which short-circuits to the ideal marginal anyway.
    for (std::size_t r = 0; r < rates.size(); ++r)
      if (rates[r] > 0.0) cluster.push_back(r);
    use_shared = config.run.shared_trajectories && !config.run.per_shot &&
                 !cluster.empty();
    // Transpile and compile the execution plan once per depth (cheap next
    // to simulation, but shared by every instance and trajectory).
    circuits.reserve(config.depths.size());
    plans.reserve(config.depths.size());
    for (int depth : config.depths) {
      CircuitSpec spec = config.base;
      spec.depth = depth;
      circuits.push_back(build_transpiled_circuit(spec));
      plans.push_back(std::make_shared<const FusedPlan>(circuits.back()));
    }
    nonfused.assign(config.depths.size(), nullptr);
  }

  /// Per-gate (fusion disabled) plan for depth index `d`, compiled on first
  /// use: retries deliberately avoid the fused kernels in case the fault
  /// lives there.
  std::shared_ptr<const FusedPlan> nonfused_plan(std::size_t d) {
    const std::lock_guard<std::mutex> lock(nonfused_mu);
    if (!nonfused[d]) {
      FusionOptions opt;
      opt.enable = false;
      nonfused[d] = std::make_shared<const FusedPlan>(circuits[d], opt);
    }
    return nonfused[d];
  }
};

/// Evaluate one instance on the scalar reference engine (InstanceContext):
/// all non-shared rate columns per-rate, then the shared cluster. Runs the
/// single-instance units of per-shot mode and, per member, the
/// health-sentinel retries.
void evaluate_member_scalar(SweepContext& sc, std::size_t i, std::size_t d,
                            std::shared_ptr<const FusedPlan> plan,
                            UnitResult& out, std::size_t m) {
  const RunOptions& run = sc.config.run;
  CircuitSpec spec = sc.config.base;
  spec.depth = sc.config.depths[d];
  // One ideal run (with checkpoints) serves every rate cluster.
  const InstanceContext context(sc.circuits[d], spec, sc.instances[i], run,
                                std::move(plan));
  for (std::size_t r = 0; r < sc.rates.size(); ++r) {
    if (sc.use_shared && sc.rates[r] > 0.0) continue;
    Pcg64 rng = point_rng(sc.config.seed, i, d, r);
    out.outcomes[r][m] =
        context.evaluate(noise_at(sc.config, sc.rates[r]), run, rng);
  }
  if (sc.use_shared) {
    std::vector<NoiseModel> noises;
    std::vector<Pcg64> rngs;
    noises.reserve(sc.cluster.size());
    rngs.reserve(sc.cluster.size());
    for (std::size_t r : sc.cluster) {
      noises.push_back(noise_at(sc.config, sc.rates[r]));
      rngs.push_back(point_rng(sc.config.seed, i, d, r));
    }
    const std::vector<InstanceOutcome> results =
        context.evaluate_rates(noises, run, rngs, &out.stats);
    for (std::size_t c = 0; c < sc.cluster.size(); ++c)
      out.outcomes[sc.cluster[c]][m] = results[c];
  }
}

/// Production path: the whole instance block [i0, i1) shares each ideal
/// run (one fused-plan pass for the group) and every rate cluster's
/// trajectories replay pooled across the block. The shared positive-rate
/// cluster is one call; every other column (the noise-free one, and all
/// columns of a per-rate sweep) is a single-rate cluster, which the shared
/// estimator evaluates as the pooled per-rate estimator. Every point draws
/// from point_rng(seed, i, d, r), so results do not depend on the grouping.
void run_unit_batched(SweepContext& sc, std::size_t d, std::size_t i0,
                      std::size_t i1, UnitResult& out) {
  const RunOptions& run = sc.config.run;
  const std::vector<ArithInstance> group(sc.instances.begin() + i0,
                                         sc.instances.begin() + i1);
  CircuitSpec spec = sc.config.base;
  spec.depth = sc.config.depths[d];
  const InstanceBatch batch(sc.circuits[d], spec, group, run, sc.plans[d]);
  auto evaluate_cluster = [&](const std::vector<std::size_t>& columns,
                              SharedEstimateStats* stats) {
    std::vector<NoiseModel> noises;
    std::vector<std::vector<Pcg64>> rngs(columns.size());
    noises.reserve(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      noises.push_back(noise_at(sc.config, sc.rates[columns[c]]));
      rngs[c].reserve(group.size());
      for (std::size_t m = 0; m < group.size(); ++m)
        rngs[c].push_back(point_rng(sc.config.seed, i0 + m, d, columns[c]));
    }
    const std::vector<std::vector<InstanceOutcome>> results =
        batch.evaluate_all_rates(noises, run, rngs, stats);
    for (std::size_t c = 0; c < columns.size(); ++c)
      for (std::size_t m = 0; m < group.size(); ++m)
        out.outcomes[columns[c]][m] = results[c][m];
  };
  for (std::size_t r = 0; r < sc.rates.size(); ++r)
    if (!(sc.use_shared && sc.rates[r] > 0.0)) evaluate_cluster({r}, nullptr);
  if (sc.use_shared) evaluate_cluster(sc.cluster, &out.stats);
}

/// Run one work unit: instance block [i0, i1) at depth index d, all rate
/// columns. When a numerical health sentinel trips, retry every member once
/// on the scalar non-fused path (the most conservative engine in the repo);
/// members that fail again are recorded as poisoned (outcomes stay
/// success=false) instead of crashing the sweep.
UnitResult compute_unit(SweepContext& sc, std::size_t d, std::size_t i0,
                        std::size_t i1) {
  const std::size_t members = i1 - i0;
  UnitResult out;
  out.outcomes.assign(sc.rates.size(), std::vector<InstanceOutcome>(members));
  try {
    if (sc.config.run.per_shot)
      evaluate_member_scalar(sc, i0, d, sc.plans[d], out, 0);
    else
      run_unit_batched(sc, d, i0, i1, out);
    return out;
  } catch (const NumericalHealthError& err) {
    std::cerr << "\n[qfab] numerical health sentinel tripped (depth "
              << depth_label(sc.config.depths[d]) << ", instances [" << i0
              << "," << i1 << ")): " << err.what()
              << "; retrying on the scalar non-fused path\n";
  }
  out = UnitResult{};
  out.outcomes.assign(sc.rates.size(), std::vector<InstanceOutcome>(members));
  out.retried = true;
  const std::shared_ptr<const FusedPlan> plan = sc.nonfused_plan(d);
  for (std::size_t m = 0; m < members; ++m) {
    try {
      evaluate_member_scalar(sc, i0 + m, d, plan, out, m);
    } catch (const NumericalHealthError& err) {
      out.poisoned = true;
      std::ostringstream desc;
      desc << "instance " << (i0 + m) << " at depth "
           << depth_label(sc.config.depths[d])
           << " failed the scalar non-fused retry: " << err.what();
      if (!out.error.empty()) out.error += "; ";
      out.error += desc.str();
      for (std::size_t r = 0; r < sc.rates.size(); ++r)
        out.outcomes[r][m] = InstanceOutcome{};
    }
  }
  return out;
}

/// Sweep progress, drain display, and the soft-deadline watchdog, all on
/// one watcher thread owned by run_sweep_durable (no worker-side stderr
/// writes): workers bump an atomic member counter and register in-flight
/// units; the watcher rewrites a count/percent/ETA line at a fixed cadence
/// and journals a timeout marker for units past the deadline. The thread is
/// joined on every exit path — finish() is called from the destructor too,
/// so a worker exception cannot leak a detached watcher past the sweep's
/// locals.
class SweepMonitor {
 public:
  SweepMonitor(bool progress, std::size_t total_members, double deadline,
               JournalWriter* journal)
      : progress_(progress && total_members > 0),
        total_(total_members),
        deadline_(deadline),
        journal_(journal) {
    if (progress_ || deadline_ > 0.0)
      watcher_ = std::thread([this] { watch(); });
  }
  ~SweepMonitor() { finish(); }

  void add(std::size_t n) { done_.fetch_add(n, std::memory_order_relaxed); }

  void unit_started(std::size_t unit, std::size_t depth_index, std::size_t i0,
                    std::size_t i1) {
    if (deadline_ <= 0.0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    inflight_[unit] = InFlight{watch_.seconds(), depth_index, i0, i1, false};
  }
  void unit_finished(std::size_t unit) {
    if (deadline_ <= 0.0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(unit);
  }

  /// Stop and join the watcher, then print the final line (idempotent,
  /// never throws: runs from the destructor during unwinding too).
  void finish() noexcept {
    try {
      if (watcher_.joinable()) {
        {
          const std::lock_guard<std::mutex> lock(mu_);
          stop_ = true;
        }
        cv_.notify_all();
        watcher_.join();
      }
      if (progress_ && !final_printed_) {
        final_printed_ = true;
        print();
        std::cerr << '\n';
      }
    } catch (...) {
      // stderr reporting is best-effort; never propagate out of a dtor.
    }
  }

 private:
  struct InFlight {
    double start = 0.0;
    std::size_t depth_index = 0;
    std::size_t i0 = 0;
    std::size_t i1 = 0;
    bool flagged = false;
  };

  void watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(500),
                         [this] { return stop_; })) {
      if (progress_) print();
      if (deadline_ > 0.0) check_deadlines();
    }
  }

  void print() const {
    const std::size_t done = done_.load(std::memory_order_relaxed);
    const double elapsed = watch_.seconds();
    std::ostringstream line;
    line << "\r  sweep " << done << '/' << total_ << " ("
         << 100 * done / total_ << "%)";
    if (done > 0 && done < total_) {
      const double eta = elapsed * static_cast<double>(total_ - done) /
                         static_cast<double>(done);
      line << " eta ~" << fmt_double(eta, 0) << "s";
    }
    if (shutdown_requested()) line << " [draining]";
    line << "    ";
    std::cerr << line.str() << std::flush;
  }

  // Called with mu_ held. Each overdue unit is flagged and journaled once;
  // it keeps running (simulation work is not preemptible) and its eventual
  // completion record supersedes the marker.
  void check_deadlines() {
    const double now = watch_.seconds();
    for (auto& entry : inflight_) {
      InFlight& f = entry.second;
      if (f.flagged || now - f.start <= deadline_) continue;
      f.flagged = true;
      std::cerr << "\n[qfab] work unit (depth_index=" << f.depth_index
                << ", instances [" << f.i0 << "," << f.i1
                << ")) exceeded the soft deadline of "
                << fmt_double(deadline_, 0)
                << "s; journaling a timeout marker\n";
      if (journal_ == nullptr) continue;
      JournalRecord rec;
      rec.type = JournalRecord::Type::kTimeout;
      rec.depth_index = static_cast<std::uint32_t>(f.depth_index);
      rec.block_begin = static_cast<std::uint32_t>(f.i0);
      rec.block_end = static_cast<std::uint32_t>(f.i1);
      try {
        journal_->append(rec);
      } catch (...) {
        // The marker is advisory; never fail the sweep over it.
      }
    }
  }

  const bool progress_;
  const std::size_t total_;
  const double deadline_;
  JournalWriter* const journal_;
  std::atomic<std::size_t> done_{0};
  Stopwatch watch_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::size_t, InFlight> inflight_;
  bool stop_ = false;
  bool final_printed_ = false;
  std::thread watcher_;
};

}  // namespace

std::vector<double> SweepConfig::expanded_rates() const {
  std::vector<double> rates = rates_percent;
  if (include_noise_free) rates.insert(rates.begin(), 0.0);
  return rates;
}

const SweepPoint& SweepResult::at(int depth, double rate_percent) const {
  for (const SweepPoint& p : points)
    if (p.depth == depth && std::abs(p.rate_percent - rate_percent) < 1e-12)
      return p;
  QFAB_CHECK_MSG(false, "no sweep point for depth " << depth << " rate "
                                                    << rate_percent);
  return points.front();
}

SweepGrid::SweepGrid(const SweepConfig& config, std::size_t n_instances_in) {
  n_depths = config.depths.size();
  n_rates = config.expanded_rates().size();
  n_instances = n_instances_in;
  const int lanes = std::clamp(config.run.batch_lanes, 1,
                               BatchedStateVector::kMaxLanes);
  block = config.run.per_shot ? 1 : static_cast<std::size_t>(lanes);
  n_groups = (n_instances + block - 1) / block;
  n_units = n_groups * n_depths;
}

SweepGrid::UnitKey SweepGrid::key(std::size_t u) const {
  QFAB_CHECK(u < n_units);
  UnitKey k;
  k.depth_index = u % n_depths;
  k.block_begin = (u / n_depths) * block;
  k.block_end = std::min(k.block_begin + block, n_instances);
  return k;
}

std::size_t SweepGrid::unit_of(std::size_t depth_index,
                               std::size_t block_begin,
                               std::size_t block_end) const {
  if (depth_index >= n_depths || block_begin >= n_instances ||
      block_begin % block != 0 ||
      block_end != std::min(block_begin + block, n_instances))
    return npos;
  return (block_begin / block) * n_depths + depth_index;
}

struct SweepExecution::Impl {
  Impl(const SweepConfig& config_in, std::vector<ArithInstance> instances_in)
      : config(config_in),
        instances(std::move(instances_in)),
        grid(config, instances.size()),
        sc(config, instances) {
    QFAB_CHECK(!config.depths.empty());
    QFAB_CHECK(!instances.empty());
    sc.prepare();
  }

  const SweepConfig config;
  const std::vector<ArithInstance> instances;
  const SweepGrid grid;
  SweepContext sc;
};

SweepExecution::SweepExecution(const SweepConfig& config,
                               std::vector<ArithInstance> instances)
    : impl_(std::make_unique<Impl>(config, std::move(instances))) {}

SweepExecution::~SweepExecution() = default;

const SweepConfig& SweepExecution::config() const { return impl_->config; }

const std::vector<ArithInstance>& SweepExecution::instances() const {
  return impl_->instances;
}

const SweepGrid& SweepExecution::grid() const { return impl_->grid; }

UnitResult SweepExecution::run_unit(std::size_t u) {
  const SweepGrid::UnitKey k = impl_->grid.key(u);
  return compute_unit(impl_->sc, k.depth_index, k.block_begin, k.block_end);
}

SweepAssembler::SweepAssembler(const SweepConfig& config,
                               const SweepGrid& grid)
    : config_(config),
      grid_(grid),
      rates_(config.expanded_rates()),
      outcomes_(grid.n_depths,
                std::vector<std::vector<InstanceOutcome>>(
                    grid.n_rates,
                    std::vector<InstanceOutcome>(grid.n_instances))),
      unit_stats_(grid.n_units),
      unit_error_(grid.n_units),
      unit_done_(grid.n_units, 0) {}

std::size_t SweepAssembler::members_of(std::size_t u) const {
  const SweepGrid::UnitKey k = grid_.key(u);
  return k.block_end - k.block_begin;
}

SweepAssembler::Add SweepAssembler::add_record(
    std::size_t depth_index, std::size_t block_begin, std::size_t block_end,
    const std::vector<std::vector<InstanceOutcome>>& outcomes,
    const SharedEstimateStats& stats, const std::string& error) {
  const std::size_t u = grid_.unit_of(depth_index, block_begin, block_end);
  if (u == SweepGrid::npos) return Add::kMisfit;
  const std::size_t members = block_end - block_begin;
  const bool shaped =
      outcomes.size() == grid_.n_rates &&
      std::all_of(outcomes.begin(), outcomes.end(),
                  [&](const std::vector<InstanceOutcome>& row) {
                    return row.size() == members;
                  });
  if (!shaped) return Add::kMisfit;
  if (unit_done_[u]) return Add::kDuplicate;
  for (std::size_t r = 0; r < grid_.n_rates; ++r)
    for (std::size_t m = 0; m < members; ++m)
      outcomes_[depth_index][r][block_begin + m] = outcomes[r][m];
  unit_stats_[u] = stats;
  unit_error_[u] = error;
  unit_done_[u] = 1;
  return Add::kAdded;
}

void SweepAssembler::add_computed(std::size_t u, UnitResult&& out) {
  const SweepGrid::UnitKey k = grid_.key(u);
  const std::size_t members = k.block_end - k.block_begin;
  QFAB_CHECK(!unit_done_[u]);
  QFAB_CHECK(out.outcomes.size() == grid_.n_rates);
  for (std::size_t r = 0; r < grid_.n_rates; ++r) {
    QFAB_CHECK(out.outcomes[r].size() == members);
    for (std::size_t m = 0; m < members; ++m)
      outcomes_[k.depth_index][r][k.block_begin + m] = out.outcomes[r][m];
  }
  unit_stats_[u] = out.stats;
  unit_error_[u] = std::move(out.error);
  unit_done_[u] = 1;
}

std::size_t SweepAssembler::units_done() const {
  return static_cast<std::size_t>(
      std::count(unit_done_.begin(), unit_done_.end(), char(1)));
}

SweepResult SweepAssembler::finish(double seconds,
                                   std::size_t units_restored,
                                   std::size_t units_retried) const {
  SweepResult result;
  result.config = config_;
  result.config.instances = static_cast<int>(grid_.n_instances);
  result.units_total = grid_.n_units;
  result.units_done = units_done();
  result.units_restored = units_restored;
  result.units_retried = units_retried;
  result.complete = result.units_done == grid_.n_units;
  for (std::size_t u = 0; u < grid_.n_units; ++u)
    if (unit_done_[u] && !unit_error_[u].empty())
      result.unit_errors.push_back(unit_error_[u]);
  if (result.complete) {
    // Deterministic stats aggregation: merge in unit order so the float
    // sums are identical run-to-run (and across interrupt/resume or any
    // worker sharding), not dependent on execution scheduling.
    for (std::size_t u = 0; u < grid_.n_units; ++u)
      result.shared_stats.merge(unit_stats_[u]);
    for (std::size_t d = 0; d < grid_.n_depths; ++d)
      for (std::size_t r = 0; r < grid_.n_rates; ++r) {
        SweepPoint point;
        point.depth = config_.depths[d];
        point.rate_percent = rates_[r];
        point.stats = aggregate_outcomes(outcomes_[d][r]);
        result.points.push_back(point);
      }
  }
  result.seconds = seconds;
  return result;
}

SweepResult run_sweep(const SweepConfig& config,
                      const std::vector<ArithInstance>& instances) {
  return run_sweep_durable(config, instances, DurableOptions{});
}

SweepResult run_sweep_durable(const SweepConfig& config,
                              const std::vector<ArithInstance>& instances,
                              const DurableOptions& durable) {
  QFAB_CHECK(!config.depths.empty());
  QFAB_CHECK(!instances.empty());
  Stopwatch watch;

  SweepExecution exec(config, instances);
  const SweepGrid& grid = exec.grid();
  SweepAssembler assembler(config, grid);
  std::size_t restored = 0;
  std::size_t restored_members = 0;

  std::unique_ptr<JournalWriter> journal;
  if (!durable.journal_path.empty()) {
    const std::uint64_t fp = sweep_fingerprint(config, instances);
    bool fresh = true;
    if (durable.resume) {
      const JournalContents contents = read_journal(durable.journal_path);
      if (contents.header_ok) {
        QFAB_CHECK_MSG(
            contents.fingerprint == fp,
            "journal " << durable.journal_path
                       << " was written by a different sweep configuration "
                          "(fingerprint mismatch); refusing to resume");
        if (contents.dropped_tail) {
          std::cerr << "[qfab] " << durable.journal_path << ": "
                    << contents.note << "; dropped the damaged tail, kept "
                    << contents.records.size() << " record(s)\n";
          rewrite_journal(durable.journal_path, contents);
        }
        for (const JournalRecord& rec : contents.records) {
          if (rec.type == JournalRecord::Type::kTimeout) continue;
          const std::string err =
              rec.type == JournalRecord::Type::kPoisoned ? rec.error : "";
          const SweepAssembler::Add added = assembler.add_record(
              rec.depth_index, rec.block_begin, rec.block_end, rec.outcomes,
              rec.stats, err);
          if (added == SweepAssembler::Add::kMisfit) {
            // Should be unreachable behind the fingerprint check; skipping
            // (instead of trusting bad indices) keeps resume safe anyway.
            std::cerr << "[qfab] " << durable.journal_path
                      << ": skipped a record that does not fit the sweep "
                         "grid\n";
            continue;
          }
          if (added == SweepAssembler::Add::kAdded) {
            ++restored;
            restored_members +=
                static_cast<std::size_t>(rec.block_end - rec.block_begin);
          }
        }
        fresh = false;
      } else if (!contents.note.empty()) {
        std::cerr << "[qfab] " << durable.journal_path << ": "
                  << contents.note << "; starting a fresh journal\n";
      }
    }
    journal =
        std::make_unique<JournalWriter>(durable.journal_path, fp, fresh);
  }

  std::vector<std::size_t> pending;
  pending.reserve(grid.n_units);
  for (std::size_t u = 0; u < grid.n_units; ++u)
    if (!assembler.done(u)) pending.push_back(u);

  SweepMonitor monitor(config.progress, grid.n_instances * grid.n_depths,
                       durable.unit_deadline_seconds, journal.get());
  monitor.add(restored_members);
  std::atomic<std::size_t> retried{0};

  parallel_for_chunked(0, pending.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      // Drain: stop claiming new units; units already running elsewhere
      // finish and journal normally.
      if (shutdown_requested()) return;
      const std::size_t u = pending[k];
      const SweepGrid::UnitKey key = grid.key(u);
      monitor.unit_started(u, key.depth_index, key.block_begin,
                           key.block_end);
      UnitResult out = exec.run_unit(u);
      monitor.unit_finished(u);
      if (out.retried) retried.fetch_add(1, std::memory_order_relaxed);
      const std::size_t members = key.block_end - key.block_begin;
      if (journal) {
        JournalRecord rec;
        rec.type = out.poisoned ? JournalRecord::Type::kPoisoned
                                : JournalRecord::Type::kUnit;
        rec.depth_index = static_cast<std::uint32_t>(key.depth_index);
        rec.block_begin = static_cast<std::uint32_t>(key.block_begin);
        rec.block_end = static_cast<std::uint32_t>(key.block_end);
        rec.outcomes = out.outcomes;  // copy: assembler still needs them
        rec.stats = out.stats;
        rec.error = out.error;
        assembler.add_computed(u, std::move(out));
        journal->append(rec);
      } else {
        assembler.add_computed(u, std::move(out));
      }
      monitor.add(members);
    }
  });
  monitor.finish();

  return assembler.finish(watch.seconds(), restored,
                          retried.load(std::memory_order_relaxed));
}

std::string depth_label(int depth) {
  return depth == kFullDepth ? "full" : std::to_string(depth);
}

TextTable sweep_table(const SweepResult& result) {
  std::vector<std::string> headers = {
      result.config.vary_2q ? "P2q_err%" : "P1q_err%"};
  for (int d : result.config.depths) headers.push_back("d=" + depth_label(d));
  TextTable table(std::move(headers));

  for (double rate : result.config.expanded_rates()) {
    std::vector<std::string> row;
    row.push_back(rate == 0.0 ? "noise-free" : fmt_double(rate, 2));
    for (int d : result.config.depths) {
      const PointStats& s = result.at(d, rate).stats;
      row.push_back(fmt_percent(s.success_rate, 1) + "% [-" +
                    std::to_string(s.lower_flips) + "/+" +
                    std::to_string(s.upper_flips) + "]");
    }
    table.add_row(std::move(row));
  }
  return table;
}

TextTable sweep_csv_table(const SweepResult& result) {
  TextTable table({"depth", "rate_percent", "success_rate", "sigma",
                   "lower_flips", "upper_flips", "instances"});
  for (const SweepPoint& p : result.points)
    table.add_row({depth_label(p.depth), fmt_double(p.rate_percent, 3),
                   fmt_double(p.stats.success_rate, 6),
                   fmt_double(p.stats.sigma, 3),
                   std::to_string(p.stats.lower_flips),
                   std::to_string(p.stats.upper_flips),
                   std::to_string(p.stats.instances)});
  return table;
}

void print_sweep(std::ostream& os, const SweepResult& result,
                 const std::string& caption) {
  os << caption << '\n';
  os << "  instances=" << result.config.instances
     << " shots=" << result.config.run.shots << " traj="
     << result.config.run.error_trajectories
     << (result.config.run.per_shot
             ? " mode=per-shot"
             : (result.config.run.shared_trajectories ? " mode=shared"
                                                      : " mode=stratified"))
     << " seed=" << result.config.seed << " ("
     << fmt_double(result.seconds, 1) << " s)\n";
  if (result.units_restored > 0)
    os << "  resumed: " << result.units_restored << '/' << result.units_total
       << " work units restored from the checkpoint journal\n";
  for (const std::string& err : result.unit_errors)
    os << "  WARNING poisoned unit: " << err << '\n';
  os << "  cells: success% [-lower/+upper error-bar instance flips]\n";
  sweep_table(result).print(os);
  os << '\n';
}

}  // namespace qfab
