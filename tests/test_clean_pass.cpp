// The streamed clean pass: a work unit that plans every rate cluster, runs
// its replay groups as one forward BatchedCleanPass reaches their boundary
// and then finishes each cluster must reproduce the stored-checkpoint
// entry points bit for bit on the same streams, whether its groups run on
// the unit's thread alone or fan out to the pool, and the pass must refuse
// to go backwards or to load away from its live boundary.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/instances.h"
#include "noise/estimator.h"

namespace qfab {
namespace {

constexpr std::size_t kInterval = 16;

CircuitSpec qfa_spec(int n = 4) {
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = n;
  return spec;
}

NoiseModel depol(double p) {
  NoiseModel nm;
  nm.p1q = nm.p2q = p;
  return nm;
}

/// `lanes` distinct superposition operand states of the QFA n=4 circuit.
std::vector<StateVector> member_states(const CircuitSpec& spec, int lanes) {
  Pcg64 rng(2024, 3);
  const std::vector<ArithInstance> group =
      generate_instances(lanes, spec.n, spec.n, OperandOrders{2, 2}, rng);
  std::vector<StateVector> states;
  for (const ArithInstance& inst : group)
    states.push_back(make_initial_state(spec, inst));
  return states;
}

/// Per-(rate, member) streams of one cluster: distinct and deterministic.
std::vector<std::vector<Pcg64>> cluster_streams(std::size_t rates, int lanes,
                                                std::uint64_t salt) {
  std::vector<std::vector<Pcg64>> rngs(rates);
  for (std::size_t r = 0; r < rates; ++r)
    for (int m = 0; m < lanes; ++m)
      rngs[r].emplace_back(0x5eed + salt, 16 * r + static_cast<std::uint64_t>(m));
  return rngs;
}

void expect_same_stats(const SharedEstimateStats& a,
                       const SharedEstimateStats& b) {
  EXPECT_EQ(a.proposal_trajectories, b.proposal_trajectories);
  EXPECT_EQ(a.unique_trajectories, b.unique_trajectories);
  EXPECT_EQ(a.fallback_trajectories, b.fallback_trajectories);
  EXPECT_EQ(a.rate_columns, b.rate_columns);
  EXPECT_EQ(a.fallback_columns, b.fallback_columns);
  EXPECT_EQ(a.ess_fraction_min, b.ess_fraction_min);
  EXPECT_EQ(a.ess_fraction_sum, b.ess_fraction_sum);
  EXPECT_EQ(a.ess_fraction_count, b.ess_fraction_count);
}

struct UnitCase {
  int lanes;
  Precision precision;
  double min_ess_fraction;
  double drift_budget;
  bool shared;  // false: every column is its own single-rate cluster
  // QFA operand width. n = 4 (8 qubits) stays on the unit's thread; n = 7
  // (14 qubits) at 4 lanes or more fans its groups out to the pool.
  int n = 4;
};

/// The unit's clusters as rate lists: the noise-free column alone, then
/// the positive rates as one shared cluster or one cluster each.
std::vector<std::vector<double>> unit_clusters(bool shared) {
  const std::vector<double> positive{0.002, 0.006, 0.015};
  std::vector<std::vector<double>> clusters{{0.0}};
  if (shared) {
    clusters.push_back(positive);
  } else {
    for (double p : positive) clusters.push_back({p});
  }
  return clusters;
}

/// Streamed unit vs the stored entry points, on copies of one stream set.
/// Returns the streamed shared cluster's stats for case-specific checks.
SharedEstimateStats check_unit(const UnitCase& uc) {
  const CircuitSpec spec = qfa_spec(uc.n);
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const auto plan = std::make_shared<const FusedPlan>(qc);
  const std::vector<StateVector> initials = member_states(spec, uc.lanes);
  const std::vector<int> outq = output_qubits(spec);
  SharedEstimatorOptions opt;
  opt.error_trajectories = 6;
  opt.min_ess_fraction = uc.min_ess_fraction;
  opt.precision = uc.precision;
  opt.float_drift_budget = uc.drift_budget;
  const EstimatorOptions eopt{opt.error_trajectories, opt.precision,
                              opt.float_drift_budget};

  const std::vector<std::vector<double>> rates = unit_clusters(uc.shared);
  std::vector<std::vector<ErrorLocations>> errors(rates.size());
  std::vector<std::vector<std::vector<Pcg64>>> streams;
  for (std::size_t c = 0; c < rates.size(); ++c) {
    for (double p : rates[c]) errors[c].emplace_back(qc, depol(p));
    streams.push_back(cluster_streams(rates[c].size(), uc.lanes, c));
  }

  // Streamed: one pass for the whole unit.
  std::vector<std::vector<std::vector<Pcg64>>> streamed_rngs = streams;
  std::vector<SharedEstimateStats> streamed_stats(rates.size());
  std::vector<RateCluster> clusters(rates.size());
  for (std::size_t c = 0; c < rates.size(); ++c)
    clusters[c] = RateCluster{errors[c], &streamed_rngs[c], &streamed_stats[c]};
  BatchedCleanPass pass(plan, initials, kInterval);
  EXPECT_GT(pass.boundaries().size(), 4u);
  const long fallbacks_before = precision_fallback_count();
  const long helped_before = replay_groups_helped();
  const std::vector<ClusterChannels> streamed =
      estimate_unit_clusters(pass, clusters, outq, opt);
  const long streamed_fallbacks = precision_fallback_count() - fallbacks_before;
  EXPECT_TRUE(pass.finished());
  // Units of the n = 4 circuit are below the fan-out floor.
  if (uc.n == 4) {
    EXPECT_EQ(replay_groups_helped(), helped_before);
  }

  // Stored: one BatchedCleanRun queried by each cluster's entry point.
  const BatchedCleanRun clean(plan, initials, kInterval);
  const long stored_before = precision_fallback_count();
  for (std::size_t c = 0; c < rates.size(); ++c) {
    SCOPED_TRACE("cluster " + std::to_string(c));
    std::vector<std::vector<Pcg64>> rngs = streams[c];
    SharedEstimateStats stats;
    const ClusterChannels stored = estimate_channel_marginals_shared(
        clean, errors[c], outq, opt, rngs, &stats);
    EXPECT_EQ(streamed[c], stored);
    expect_same_stats(streamed_stats[c], stats);
    for (std::size_t r = 0; r < rngs.size(); ++r)
      for (std::size_t m = 0; m < rngs[r].size(); ++m)
        EXPECT_EQ(streamed_rngs[c][r][m](), rngs[r][m]());
    if (rates[c].size() == 1) {
      // A single-rate cluster is the pooled per-rate entry point.
      std::vector<Pcg64> per_rate = streams[c][0];
      EXPECT_EQ(streamed[c][0],
                estimate_channel_marginals_batched(clean, errors[c][0], outq,
                                                   eopt, per_rate));
    }
  }
  // The noise-free column is each member's ideal marginal.
  for (int m = 0; m < uc.lanes; ++m)
    EXPECT_EQ(streamed[0][0][static_cast<std::size_t>(m)],
              clean.lane_ideal_marginal(m, outq));
  // The pass's final states are the stored run's.
  for (int m = 0; m < uc.lanes; ++m)
    EXPECT_EQ(pass.lane_ideal_marginal(m, outq),
              clean.lane_ideal_marginal(m, outq));
  EXPECT_EQ(streamed_fallbacks, precision_fallback_count() - stored_before);
  return streamed_stats.back();
}

class StreamedUnit : public ::testing::TestWithParam<int> {};

TEST_P(StreamedUnit, SharedUnitMatchesStoredEntryPoints) {
  for (Precision precision : {Precision::kDouble, Precision::kFloat32}) {
    SCOPED_TRACE(precision == Precision::kDouble ? "double" : "float32");
    const SharedEstimateStats stats =
        check_unit({GetParam(), precision, 0.25, 1e-3, true});
    EXPECT_EQ(stats.rate_columns, 3 * GetParam());
  }
}

TEST_P(StreamedUnit, ForcedEssFallbackMatchesStoredEntryPoints) {
  for (Precision precision : {Precision::kDouble, Precision::kFloat32}) {
    SCOPED_TRACE(precision == Precision::kDouble ? "double" : "float32");
    const SharedEstimateStats stats =
        check_unit({GetParam(), precision, 1.0, 1e-3, true});
    EXPECT_GT(stats.fallback_columns, 0);
  }
}

TEST_P(StreamedUnit, ForcedFloatReReplayMatchesStoredEntryPoints) {
  const long before = precision_fallback_count();
  check_unit({GetParam(), Precision::kFloat32, 0.25, 0.0, true});
  EXPECT_GT(precision_fallback_count(), before);
}

TEST_P(StreamedUnit, PerRateUnitMatchesStoredEntryPoints) {
  for (Precision precision : {Precision::kDouble, Precision::kFloat32}) {
    SCOPED_TRACE(precision == Precision::kDouble ? "double" : "float32");
    check_unit({GetParam(), precision, 0.25, 1e-3, false});
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, StreamedUnit, ::testing::Values(1, 3, 8));

// Units above the fan-out floor: their groups replay on idle pool threads
// (ctest pins QFAB_THREADS=4 so single-core hosts have a pool too) and must
// still match the serial stored-run entry points bit for bit, including a
// float32 group's double redo from its held boundary and the single-lane
// kLane loads of ESS fallbacks.
class FannedOutUnit : public ::testing::Test {
 protected:
  void SetUp() override { reset_replay_groups_helped(); }
  void TearDown() override { EXPECT_GT(replay_groups_helped(), 0); }

  static constexpr int kLanes = 4;
  static constexpr int kN = 7;
};

TEST_F(FannedOutUnit, DoubleMatchesStoredEntryPoints) {
  check_unit({kLanes, Precision::kDouble, 0.25, 1e-3, true, kN});
}

TEST_F(FannedOutUnit, Float32MatchesStoredEntryPoints) {
  check_unit({kLanes, Precision::kFloat32, 0.25, 1e-3, true, kN});
}

TEST_F(FannedOutUnit, ForcedFloatReReplayMatchesStoredEntryPoints) {
  const long before = precision_fallback_count();
  check_unit({kLanes, Precision::kFloat32, 0.25, 0.0, true, kN});
  EXPECT_GT(precision_fallback_count(), before);
}

TEST_F(FannedOutUnit, ForcedEssFallbackMatchesStoredEntryPoints) {
  const SharedEstimateStats stats =
      check_unit({kLanes, Precision::kDouble, 1.0, 1e-3, true, kN});
  EXPECT_GT(stats.fallback_columns, 0);
}

TEST_F(FannedOutUnit, PerRateUnitMatchesStoredEntryPoints) {
  check_unit({kLanes, Precision::kDouble, 0.25, 1e-3, false, kN});
}

class CleanPassTest : public ::testing::Test {
 protected:
  CleanPassTest()
      : qc_(build_transpiled_circuit(qfa_spec())),
        plan_(std::make_shared<const FusedPlan>(qc_)),
        initials_(member_states(qfa_spec(), 3)) {}

  QuantumCircuit qc_;
  std::shared_ptr<const FusedPlan> plan_;
  std::vector<StateVector> initials_;
};

TEST_F(CleanPassTest, LoadsMatchStoredRunBitwise) {
  BatchedCleanPass pass(plan_, initials_, kInterval);
  const BatchedCleanRun clean(plan_, initials_, kInterval);
  const std::vector<int> lane_map{2, 0, 2, 1};
  BatchedStateVector live(1, 1), stored(1, 1);
  StateVector live_lane(1), stored_lane(1);
  for (std::size_t g = 0; g <= plan_->gate_count(); g += 7) {
    SCOPED_TRACE("gate " + std::to_string(g));
    EXPECT_EQ(pass.checkpoint_before(g), clean.checkpoint_before(g));
    pass.advance_to(pass.checkpoint_before(g));
    pass.load_states_at(g, lane_map, live);
    clean.load_states_at(g, lane_map, stored);
    ASSERT_EQ(live.lanes(), stored.lanes());
    const std::size_t n = live.dim() * static_cast<std::size_t>(live.lanes());
    EXPECT_EQ(std::vector<double>(live.re(), live.re() + n),
              std::vector<double>(stored.re(), stored.re() + n));
    EXPECT_EQ(std::vector<double>(live.im(), live.im() + n),
              std::vector<double>(stored.im(), stored.im() + n));
    for (int l = 0; l < live.lanes(); ++l)
      EXPECT_EQ(live.lane_pending_phase(l), stored.lane_pending_phase(l));
    // The in-place lane loads equal the allocating stored query.
    pass.lane_state_at(1, g, live_lane);
    clean.lane_state_at(1, g, stored_lane);
    const StateVector reference = clean.lane_state_at(1, g);
    EXPECT_EQ(live_lane.amplitudes(), reference.amplitudes());
    EXPECT_EQ(stored_lane.amplitudes(), reference.amplitudes());
  }
  pass.finish();
  EXPECT_TRUE(pass.finished());
  for (int l = 0; l < 3; ++l)
    EXPECT_EQ(pass.final_states().lane_state(l).amplitudes(),
              clean.lane_final_state(l).amplitudes());
}

TEST_F(CleanPassTest, OutOfOrderLoadFailsItsCheck) {
  BatchedCleanPass pass(plan_, initials_, kInterval);
  ASSERT_GT(pass.boundaries().size(), 4u);
  EXPECT_THROW((void)pass.final_states(), CheckError);
  const std::size_t late = pass.boundaries()[2] + 1;
  const std::size_t early = pass.boundaries()[1];
  const std::size_t ahead = pass.boundaries()[3];
  BatchedStateVector bsv(1, 1);
  StateVector sv(1);
  // Loads read the live boundary; they never move the pass.
  EXPECT_THROW(pass.load_states_at(late, {0, 1}, bsv), CheckError);
  EXPECT_EQ(pass.position(), 0u);
  pass.advance_to(pass.checkpoint_before(late));
  pass.load_states_at(late, {0, 1}, bsv);
  EXPECT_EQ(pass.position(), 2u);
  // A second group at the same boundary (a float32 re-replay) is fine.
  pass.load_states_at(late, {2}, bsv);
  pass.lane_state_at(0, late, sv);
  EXPECT_THROW(pass.load_states_at(early, {0}, bsv), CheckError);
  EXPECT_THROW(pass.lane_state_at(0, early, sv), CheckError);
  EXPECT_THROW(pass.load_states_at(ahead, {0}, bsv), CheckError);
  EXPECT_THROW(pass.lane_state_at(0, ahead, sv), CheckError);
  EXPECT_EQ(pass.position(), 2u);
  EXPECT_THROW(pass.advance_to(1), CheckError);
  pass.finish();
  EXPECT_THROW(pass.load_states_at(late, {0}, bsv), CheckError);
}

TEST_F(CleanPassTest, EstimateRejectsAnAdvancedPass) {
  BatchedCleanPass pass(plan_, initials_, kInterval);
  pass.advance_to(1);
  std::vector<std::vector<Pcg64>> rngs = cluster_streams(1, 3, 0);
  const std::vector<RateCluster> clusters{
      RateCluster{{ErrorLocations(qc_, depol(0.01))}, &rngs, nullptr}};
  EXPECT_THROW(estimate_unit_clusters(pass, clusters,
                                      output_qubits(qfa_spec()),
                                      SharedEstimatorOptions{}),
               CheckError);
}

}  // namespace
}  // namespace qfab
