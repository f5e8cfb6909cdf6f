#include "probes.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/parallel.h"
#include "exp/experiment.h"
#include "noise/estimator.h"
#include "noise/trajectory.h"
#include "trace.h"

namespace panelbench {

using namespace qfab;

namespace {

/// The sweep's per-(instance, depth, rate) stream (exp/sweep.cpp
/// point_rng), so a probe draws exactly the trajectories its unit drew.
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

/// One member's proposal trajectories after dedup on (events, fired sites),
/// the estimator's key.
struct MemberTrajectories {
  std::vector<std::vector<ErrorEvent>> events;
  std::vector<std::vector<std::uint32_t>> fired;
  std::vector<int> multiplicity;
};

MemberTrajectories sample_member(const ErrorLocations& proposal, int T,
                                 Pcg64 rng, ProbeTotals& counts) {
  MemberTrajectories uniq;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  std::vector<std::uint32_t> fired;
  for (int t = 0; t < T; ++t) {
    std::vector<ErrorEvent> events = proposal.sample_at_least_one(rng, &fired);
    ++counts.trajectories;
    counts.events += static_cast<long>(events.size());
    std::uint64_t key = hash_events(events);
    for (std::uint32_t f : fired) key = (key ^ f) * 0x100000001b3ULL;
    std::vector<std::size_t>& bucket = buckets[key];
    const auto seen = std::find_if(bucket.begin(), bucket.end(), [&](auto u) {
      return uniq.events[u] == events && uniq.fired[u] == fired;
    });
    if (seen != bucket.end()) {
      ++uniq.multiplicity[*seen];
      continue;
    }
    bucket.push_back(uniq.events.size());
    uniq.events.push_back(std::move(events));
    uniq.fired.push_back(fired);
    uniq.multiplicity.push_back(1);
  }
  return uniq;
}

/// Effective sample size of `uniq` reweighted from `proposal` to `target`
/// by per-site log odds, with multiplicities: the estimator's ESS guard.
double reweighted_ess(const MemberTrajectories& uniq,
                      const ErrorLocations& proposal,
                      const ErrorLocations& target) {
  std::vector<double> ell(uniq.events.size(), 0.0);
  for (std::size_t u = 0; u < ell.size(); ++u)
    for (std::uint32_t f : uniq.fired[u])
      ell[u] += target.location_log_odds(f) - proposal.location_log_odds(f);
  const double top = *std::max_element(ell.begin(), ell.end());
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t u = 0; u < ell.size(); ++u) {
    const double e = std::exp(ell[u] - top);
    sum += uniq.multiplicity[u] * e;
    sum_sq += uniq.multiplicity[u] * e * e;
  }
  return sum * sum / sum_sq;
}

/// Replay every member's unique trajectories the way the shared estimator
/// groups them: pooled, stably sorted by first-error site, lanes-at-a-time
/// from the batched checkpoints.
template <typename Real>
void replay_probe(const BatchedCleanRun& clean,
                  const std::vector<MemberTrajectories>& members,
                  const std::vector<int>& outq, ProbeTotals& counts) {
  struct Traj {
    std::size_t site, member, u;
  };
  std::vector<Traj> pool;
  for (std::size_t m = 0; m < members.size(); ++m)
    for (std::size_t u = 0; u < members[m].events.size(); ++u)
      pool.push_back(Traj{members[m].events[u].front().gate_index, m, u});
  std::stable_sort(pool.begin(), pool.end(), [](const Traj& a, const Traj& b) {
    return a.site < b.site;
  });

  const FusedPlan& plan = clean.plan();
  const std::size_t L = static_cast<std::size_t>(clean.lanes());
  const int qubits = plan.circuit().num_qubits();
  const double amp_bytes =
      2.0 * sizeof(Real) * static_cast<double>(u64{1} << qubits);
  BatchedStateVectorT<Real> bsv(qubits, 1);
  std::vector<std::vector<double>> margs;
  std::vector<double> acc;
  for (std::size_t lo = 0; lo < pool.size(); lo += L) {
    const std::size_t lanes = std::min(L, pool.size() - lo);
    std::vector<int> lane_map(lanes);
    std::vector<std::vector<ErrorEvent>> lane_events(lanes);
    for (std::size_t j = 0; j < lanes; ++j) {
      lane_map[j] = static_cast<int>(pool[lo + j].member);
      lane_events[j] = members[pool[lo + j].member].events[pool[lo + j].u];
    }
    const std::size_t g0 = pool[lo].site + 1;
    {
      SpanScope s("noise.lane_load");
      clean.load_states_at(g0, lane_map, bsv);
    }
    {
      SpanScope s("noise.replay");
      run_trajectories_batched(plan, bsv, g0, lane_events);
    }
    {
      SpanScope s("sim.marginals");
      bsv.all_lane_marginal_probabilities(outq, margs, acc);
    }
    const std::size_t ops_left =
        g0 >= plan.gate_count() ? 0 : plan.op_count() - plan.op_of_gate(g0);
    counts.replay_lanes += static_cast<long>(lanes);
    counts.replay_bytes +=
        static_cast<double>(ops_left) * static_cast<double>(lanes) * amp_bytes;
  }
}

void probe_unit(const Panel& p, const std::vector<ArithInstance>& inst,
                const SweepGrid& grid, std::size_t u,
                const QuantumCircuit& circuit,
                const std::shared_ptr<const FusedPlan>& plan,
                ProbeTotals& counts) {
  const SweepConfig& cfg = p.config;
  const SweepGrid::UnitKey k = grid.key(u);
  const std::size_t d = k.depth_index;
  SpanScope unit_span("probe.unit", static_cast<long>(u));
  CircuitSpec spec = cfg.base;
  spec.depth = cfg.depths[d];
  const std::vector<int> outq = output_qubits(spec);
  std::vector<StateVector> initials;
  for (std::size_t i = k.block_begin; i < k.block_end; ++i)
    initials.push_back(make_initial_state(spec, inst[i]));
  const std::size_t members = initials.size();

  std::unique_ptr<BatchedCleanRun> clean;
  {
    SpanScope s("noise.clean_run");
    clean = std::make_unique<BatchedCleanRun>(plan, initials,
                                              cfg.run.checkpoint_interval);
  }

  const std::vector<double> rates = cfg.expanded_rates();
  std::vector<std::size_t> cluster;
  for (std::size_t r = 0; r < rates.size(); ++r)
    if (rates[r] > 0.0) cluster.push_back(r);
  if (cluster.empty()) return;
  std::vector<ErrorLocations> errors;
  std::vector<std::vector<Pcg64>> rngs(cluster.size());
  for (std::size_t c = 0; c < cluster.size(); ++c) {
    errors.emplace_back(circuit, noise_at(cfg, rates[cluster[c]]));
    for (std::size_t m = 0; m < members; ++m)
      rngs[c].push_back(point_rng(cfg.seed, k.block_begin + m, d, cluster[c]));
  }
  SharedEstimatorOptions opt;
  opt.error_trajectories = cfg.run.error_trajectories;
  opt.min_ess_fraction = cfg.run.shared_min_ess;
  opt.precision = resolve_precision(cfg.run, plan->gate_count());
  opt.float_drift_budget = cfg.run.float_drift_budget;

  std::vector<std::vector<Pcg64>> est_rngs = rngs;
  std::vector<std::vector<std::vector<double>>> channels;
  {
    SpanScope s("noise.estimator");
    channels = estimate_channel_marginals_shared(*clean, errors, outq, opt,
                                                 est_rngs);
  }

  // The proposal is the column with the most expected events, first wins.
  std::size_t proposal = 0;
  for (std::size_t c = 1; c < errors.size(); ++c)
    if (errors[c].expected_events() > errors[proposal].expected_events())
      proposal = c;
  std::vector<MemberTrajectories> uniq;
  {
    SpanScope s("noise.sample");
    for (std::size_t m = 0; m < members; ++m)
      uniq.push_back(sample_member(errors[proposal],
                                   cfg.run.error_trajectories,
                                   rngs[proposal][m], counts));
  }
  if (opt.precision == Precision::kFloat32)
    replay_probe<float>(*clean, uniq, outq, counts);
  else
    replay_probe<double>(*clean, uniq, outq, counts);

  // Columns whose reweighted ESS trips the guard are re-estimated per rate
  // from their own untouched streams, inside the estimator span; repeat
  // those estimates so their replays get a span of their own.
  const EstimatorOptions eopt{opt.error_trajectories, opt.precision,
                              opt.float_drift_budget};
  const double min_ess =
      opt.min_ess_fraction * static_cast<double>(opt.error_trajectories);
  for (std::size_t c = 0; c < cluster.size(); ++c) {
    if (c == proposal || cluster.size() < 2) continue;
    for (std::size_t m = 0; m < members; ++m) {
      if (reweighted_ess(uniq[m], errors[proposal], errors[c]) >= min_ess)
        continue;
      SpanScope s("noise.fallback");
      Pcg64 rng = rngs[c][m];
      (void)estimate_channel_marginal_batched(
          *clean, static_cast<int>(m), errors[c], outq, eopt,
          std::min(clean->lanes(), BatchedStateVector::kMaxLanes), rng);
      ++counts.fallback_columns;
    }
  }

  // Shot counts come from each column's stream after the estimator used it,
  // as in the sweep.
  for (std::size_t c = 0; c < cluster.size(); ++c)
    for (std::size_t m = 0; m < members; ++m) {
      SpanScope s("noise.shots");
      (void)sample_shot_counts(channels[c][m], cfg.run.shots, est_rngs[c][m]);
    }
}

}  // namespace

ProbeTotals probe_workload(const Workload& w) {
  ProbeTotals totals;
  std::mutex mu;
  for (std::size_t pi = 0; pi < w.panels.size(); ++pi) {
    const Panel& p = w.panels[pi];
    std::vector<QuantumCircuit> circuits;
    std::vector<std::shared_ptr<const FusedPlan>> plans;
    for (int depth : p.config.depths) {
      CircuitSpec spec = p.config.base;
      spec.depth = depth;
      {
        SpanScope s("transpile");
        circuits.push_back(build_transpiled_circuit(spec));
      }
      {
        SpanScope s("sim.plan_compile");
        plans.push_back(std::make_shared<const FusedPlan>(circuits.back()));
      }
      if (pi == 0) {
        totals.gates += static_cast<long>(plans.back()->gate_count());
        totals.plan_ops += static_cast<long>(plans.back()->op_count());
      }
    }
    const std::vector<ArithInstance>& inst = w.rows[p.row].instances;
    const SweepGrid grid(p.config, inst.size());
    parallel_for_chunked(0, grid.n_units, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) {
        const std::size_t d = grid.key(u).depth_index;
        ProbeTotals counts;
        probe_unit(p, inst, grid, u, circuits[d], plans[d], counts);
        const std::lock_guard<std::mutex> lock(mu);
        totals.trajectories += counts.trajectories;
        totals.events += counts.events;
        totals.replay_lanes += counts.replay_lanes;
        totals.replay_bytes += counts.replay_bytes;
        totals.fallback_columns += counts.fallback_columns;
      }
    });
  }
  return totals;
}

}  // namespace panelbench
