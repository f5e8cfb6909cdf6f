// Layer probes: split a work unit into its layers by repeating the unit's
// pipeline through the layer entry points, on the same inputs and random
// streams, with a span around each call.
//
//   transpile          build_transpiled_circuit       per (panel, depth)
//   sim.plan_compile   FusedPlan                      per (panel, depth)
//   noise.clean_run    BatchedCleanRun                per unit
//   noise.estimator    estimate_channel_marginals_shared, per unit
//   noise.sample       ErrorLocations::sample_at_least_one + dedup, per unit
//   noise.lane_load    BatchedCleanRun::load_states_at, per replay group
//   noise.replay       run_trajectories_batched,      per replay group
//   sim.marginals      all_lane_marginal_probabilities, per replay group
//   noise.fallback     estimate_channel_marginal_batched, per column whose
//                      reweighted ESS trips the estimator's guard
//   noise.shots        sample_shot_counts,             per (rate, member)
//
// The estimator span covers its own sampling, replay, marginals and ESS
// fallbacks; the separate sample / lane_load / replay / marginals /
// fallback spans repeat those steps outside it (the same grouping and
// streams the estimator uses), so the estimator's remaining bookkeeping is
// its span minus theirs.
#pragma once

#include "workload.h"

namespace panelbench {

/// Deterministic work counts the probes observe.
struct ProbeTotals {
  long gates = 0;     // transpiled gates, summed over the workload's depths
  long plan_ops = 0;  // fused-plan ops, summed over the same depths
  long trajectories = 0;  // proposal trajectories sampled
  long events = 0;        // error events in them
  long replay_lanes = 0;  // lanes replayed (one per unique trajectory)
  /// Bytes the replays touch by construction: fused ops left after the
  /// resume gate × lanes × 2^qubits × amplitude bytes (computed, not
  /// measured traffic).
  double replay_bytes = 0.0;
  long fallback_columns = 0;  // ESS-guard re-estimates repeated
};

/// Probe every unit of every panel of `w` (operands must be generated).
/// Units run under parallel_for_chunked like the sweep's own loop.
ProbeTotals probe_workload(const Workload& w);

}  // namespace panelbench
