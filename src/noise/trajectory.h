// Pauli-trajectory machinery.
//
// A *trajectory* is one stochastic unraveling of the depolarizing channel:
// the ideal circuit with a sampled set of Pauli insertions (each directly
// after its gate, matching Qiskit Aer's gate-error composition). Averaging
// |ψ|² over trajectories reproduces the channel's output distribution.
//
// A trajectory only replays gates from its first error onward, resuming
// from a state of the ideal run: on the paper's circuits that halves the
// per-trajectory cost on average. Three ideal-run forms provide the resume
// states:
//
//  * CleanRun — the scalar reference: one instance, a checkpoint every
//    `checkpoint_interval` gates, queried in any order.
//  * BatchedCleanPass — the production form: a group of instances advanced
//    forward only, keeping one live batched state at its current op-snapped
//    boundary. A work unit plans every replay group first and runs them in
//    boundary order as the pass reaches them, so no checkpoint list exists.
//  * BatchedCleanRun — the same pass with every boundary state stored, for
//    callers that query out of order (tests, benches, the verify harness).
//
// All circuit replay (checkpoint construction, state_at, trajectory
// resumption) runs through a FusedPlan (sim/fusion.h): segments between
// boundaries and error-injection sites execute fused, and boundaries that
// land inside a fused op run the partial slice on its own (per-gate on the
// scalar path, a cached subrange plan on the batched group walk). The
// plan is shareable across clean runs of the same circuit (one compile per
// transpiled circuit, not per operand instance).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "noise/noise_model.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "sim/statevector.h"

namespace qfab {

/// One sampled Pauli insertion. For 1q gates pauli0 hits the gate's qubit;
/// for CX, pauli0 hits the target (qubits[0]) and pauli1 the control.
struct ErrorEvent {
  std::size_t gate_index = 0;  // error applied after this gate
  Pauli pauli0 = Pauli::kI;
  Pauli pauli1 = Pauli::kI;

  friend bool operator==(const ErrorEvent&, const ErrorEvent&) = default;
};

/// FNV-1a hash of an event list (gate sites and Pauli choices): the
/// trajectory-dedup key used by the shared-trajectory estimator. Confirm
/// collisions with element-wise equality before merging.
std::uint64_t hash_events(const std::vector<ErrorEvent>& events);

/// The ideal run of a (transpiled) circuit from a fixed initial state,
/// with checkpoints every `checkpoint_interval` gates.
class CleanRun {
 public:
  /// `plan` optionally shares a pre-compiled FusedPlan for `circuit`
  /// (must match it gate-for-gate); when null a plan is compiled here.
  CleanRun(const QuantumCircuit& circuit, StateVector initial,
           std::size_t checkpoint_interval = 64,
           std::shared_ptr<const FusedPlan> plan = nullptr);

  const QuantumCircuit& circuit() const { return plan_->circuit(); }
  const FusedPlan& plan() const { return *plan_; }
  /// State after the full circuit (global phase *not* applied — it never
  /// affects probabilities).
  const StateVector& final_state() const { return checkpoints_.back(); }
  /// Ideal output distribution of `qubits`.
  std::vector<double> ideal_marginal(const std::vector<int>& qubits) const;

  /// State after the first `gate_count` gates (copies the nearest
  /// checkpoint and replays the remainder).
  StateVector state_at(std::size_t gate_count) const;
  /// In-place form of state_at: assigns into `out` (redimensioning it,
  /// reusing its storage when sizes match) instead of constructing a
  /// fresh vector.
  void state_at(std::size_t gate_count, StateVector& out) const;

 private:
  std::shared_ptr<const FusedPlan> plan_;
  std::size_t interval_;
  std::vector<StateVector> checkpoints_;  // checkpoints_[k] = after k*interval
                                          // gates; last = final state
  std::size_t last_checkpoint_gates_ = 0;
};

/// Per-gate error-event probabilities of a circuit under a noise model,
/// with samplers for trajectory generation.
class ErrorLocations {
 public:
  ErrorLocations(const QuantumCircuit& circuit, const NoiseModel& noise);

  /// Π (1 - q_i): probability a shot sees no error anywhere.
  double clean_probability() const { return clean_prob_; }
  /// Number of gates with q_i > 0.
  std::size_t noisy_gate_count() const { return locations_.size(); }
  /// Expected number of error events per shot.
  double expected_events() const { return expected_events_; }

  /// Unconditional sample (may be empty), in gate order.
  std::vector<ErrorEvent> sample(Pcg64& rng) const;
  /// Sample conditioned on at least one event (exact sequential method).
  /// When `fired` is non-null it receives the index of the location behind
  /// each returned event (aligned with the result); the rng stream is
  /// consumed identically either way.
  std::vector<ErrorEvent> sample_at_least_one(
      Pcg64& rng, std::vector<std::uint32_t>* fired = nullptr) const;

  /// Number of error locations (noisy gate × slot entries).
  std::size_t location_count() const { return locations_.size(); }
  /// Event probability q_i of location i.
  double location_prob(std::size_t i) const { return locations_[i].prob; }
  /// log(q_i / (1 - q_i)): the per-site log odds. A trajectory sampled
  /// from a proposal location set reweights to a target set by
  /// exp(Σ_{i fired} [target odds_i − proposal odds_i]) up to a constant
  /// that cancels under self-normalization (see estimator.h).
  double location_log_odds(std::size_t i) const;

  /// Whether trajectories sampled from this location set can be
  /// importance-reweighted to `other` by per-site event probabilities
  /// alone: same gate sites, kinds, slots, and within-location Pauli
  /// distributions (the Pauli pick factors then cancel in the importance
  /// ratio), with every event probability positive on both sides.
  bool reweightable_to(const ErrorLocations& other) const;

 private:
  ErrorEvent make_event(std::size_t loc, Pcg64& rng) const;

  struct Location {
    std::size_t gate_index;
    double prob;
    enum class Kind {
      kDepol1q,   // uniform over {X, Y, Z} on the gate's qubit
      kDepol2q,   // uniform over the 15 non-identity Pauli pairs
      kWeighted,  // weighted 1q Pauli on gate qubit `slot` (thermal PTA)
    } kind;
    int slot;                  // kWeighted: 0 = target, 1 = control
    double wx, wy, wz;         // kWeighted: relative Pauli weights
  };
  std::vector<Location> locations_;
  std::vector<double> suffix_clean_;  // Π_{j>=i} (1 - q_j)
  double clean_prob_ = 1.0;
  double expected_events_ = 0.0;
};

/// Run one trajectory: replay `clean` from the first event, injecting all
/// events. Events must be sorted by gate_index. Returns the final state.
StateVector run_trajectory(const CleanRun& clean,
                           const std::vector<ErrorEvent>& events);

/// In-place form of run_trajectory: writes the trajectory's final state
/// into `out`, reusing its storage — the scalar estimator's per-trajectory
/// scratch path (no state-vector allocation per trajectory).
void run_trajectory(const CleanRun& clean,
                    const std::vector<ErrorEvent>& events, StateVector& out);

/// The ideal runs of one circuit from up to kMaxLanes *different* initial
/// states (a group of operand instances), advanced in lockstep through one
/// shared FusedPlan on the batched engine, forward only. The pass stops at
/// op-snapped boundaries at (or just past) every `checkpoint_interval`
/// gates and keeps only the live state at its current boundary: a replay
/// group resuming at gate g loads from boundary checkpoint_before(g), so a
/// work unit that runs its groups in boundary order needs one batched state
/// instead of a checkpoint list (estimate_unit_clusters in
/// noise/estimator.h). The pass only moves forward, and the loads read the
/// live state without moving it, so several threads may load from one
/// boundary at once while nobody advances the pass.
class BatchedCleanPass {
 public:
  BatchedCleanPass(std::shared_ptr<const FusedPlan> plan,
                   const std::vector<StateVector>& initials,
                   std::size_t checkpoint_interval = 64);

  int lanes() const { return state_.lanes(); }
  const FusedPlan& plan() const { return *plan_; }
  /// boundaries()[k] is the gate count of boundary k: 0 first, the
  /// circuit's gate count last.
  const std::vector<std::size_t>& boundaries() const { return boundaries_; }
  /// Index of the last boundary at or before `gate_count` gates.
  std::size_t checkpoint_before(std::size_t gate_count) const;
  /// Index of the boundary the live state is at.
  std::size_t position() const { return k_; }

  /// Advance the live state to boundary k (k >= position()) and return it.
  const BatchedStateVector& advance_to(std::size_t k);
  /// Group replay start states, as BatchedCleanRun::load_states_at: the
  /// live state, which must already be at checkpoint_before(gate_count), is
  /// copied lane-permuted into `out` and the remainder is replayed batched.
  template <typename Real>
  void load_states_at(std::size_t gate_count, const std::vector<int>& lane_map,
                      BatchedStateVectorT<Real>& out) const;
  /// One lane's state after `gate_count` gates, written into `out` in
  /// place: the lane is extracted from the live state, which must already
  /// be at checkpoint_before(gate_count), and the remainder is replayed on
  /// the scalar path (as BatchedCleanRun::lane_state_at).
  void lane_state_at(int lane, std::size_t gate_count, StateVector& out) const;

  /// Advance to the final boundary. Afterwards final_states() and
  /// lane_ideal_marginal() are readable.
  void finish();
  bool finished() const { return k_ + 1 == boundaries_.size(); }
  /// All lanes' final states (lane pending phases not folded in; norms are
  /// phase-invariant). Requires finished().
  const BatchedStateVector& final_states() const;
  /// Ideal output distribution of `qubits` for one lane. Requires
  /// finished().
  std::vector<double> lane_ideal_marginal(int lane,
                                          const std::vector<int>& qubits) const;

 private:
  /// checkpoint_before(gate_count), checked to be the live boundary.
  std::size_t live_boundary_for(std::size_t gate_count) const;

  std::shared_ptr<const FusedPlan> plan_;
  std::vector<std::size_t> boundaries_;
  BatchedStateVector state_;  // the lanes after boundaries_[k_] gates
  std::size_t k_ = 0;
};

/// The stored form of BatchedCleanPass: the constructor drives one pass and
/// keeps every boundary state, so queries may come in any order. Per-lane
/// queries extract a lane and (for state_at) replay the remainder on the
/// scalar path. Costs one batched state per boundary; the sweep streams
/// instead, and the tests, benches and verify harness use this form.
class BatchedCleanRun {
 public:
  BatchedCleanRun(std::shared_ptr<const FusedPlan> plan,
                  const std::vector<StateVector>& initials,
                  std::size_t checkpoint_interval = 64);

  int lanes() const { return checkpoints_.front().lanes(); }
  const FusedPlan& plan() const { return *plan_; }
  const QuantumCircuit& circuit() const { return plan_->circuit(); }

  /// Lane's state after the full circuit (lane pending phase folded in;
  /// circuit global phase NOT applied, mirroring CleanRun::final_state).
  StateVector lane_final_state(int lane) const;
  /// All lanes' final states, batched, without extraction (lane pending
  /// phases not folded in — norms are phase-invariant, which is what the
  /// health sentinels need this for).
  const BatchedStateVector& final_states() const { return checkpoints_.back(); }
  /// Ideal output distribution of `qubits` for one lane.
  std::vector<double> lane_ideal_marginal(int lane,
                                          const std::vector<int>& qubits) const;
  /// Index of the last checkpoint at or before `gate_count` gates.
  std::size_t checkpoint_before(std::size_t gate_count) const;
  /// Lane's state after the first `gate_count` gates (nearest batched
  /// checkpoint, lane extracted, remainder replayed scalar).
  StateVector lane_state_at(int lane, std::size_t gate_count) const;
  /// In-place form of lane_state_at: writes into `out`, reusing its
  /// storage.
  void lane_state_at(int lane, std::size_t gate_count, StateVector& out) const;
  /// Group replay start states: `out` lane j becomes member lane_map[j]'s
  /// state after `gate_count` gates — nearest checkpoint copied, remainder
  /// replayed batched (fused via subrange plans). Members may repeat, so
  /// one group can carry several trajectories of the same member. Reuses
  /// `out`'s storage across calls. The float32 replay tier passes a
  /// BatchedStateVectorF: checkpoints stay double (the ideal run is always
  /// reference precision) and amplitudes are rounded once here, then the
  /// checkpoint-to-site replay runs at the narrow precision.
  template <typename Real>
  void load_states_at(std::size_t gate_count, const std::vector<int>& lane_map,
                      BatchedStateVectorT<Real>& out) const;

 private:
  std::shared_ptr<const FusedPlan> plan_;
  /// boundaries_[k] is the gate count of checkpoints_[k] (the pass's
  /// boundaries); the last checkpoint is the final state.
  std::vector<std::size_t> boundaries_;
  std::vector<BatchedStateVector> checkpoints_;
};

/// Advance every lane of `bsv` — pre-loaded with its trajectory's state
/// after `start_gates` gates — through the rest of the plan, injecting
/// lane_events[l] into lane l at the exact gate sites. Each lane's events
/// must be sorted by gate_index with first site >= start_gates (site =
/// gate_index + 1). The circuit global phase is NOT applied (mirrors
/// run_trajectory). Instantiated for both replay precisions (see Precision
/// in sim/batch.h).
///
/// Execution is a fused tile walk (apply_batch_walk in sim/batch.h): the
/// shared gate segments and the per-lane Paulis between them flatten into
/// one step sequence, and every maximal run of tile-eligible steps takes a
/// single pass over the amplitude tiles — so the replay cost no longer
/// grows with the number of distinct injection sites (which is ~lanes ×
/// events/lane for a batched group). Op-interior sites decompose the host
/// op per lane: each lane's arithmetic is exactly the scalar
/// run_trajectory decomposition of its own trajectory, so a lane's replay
/// is bitwise independent of which trajectories share the batch, and
/// agreement with the per-split reference below is at re-association
/// level (<= 1e-12 double) rather than bitwise. Raw-plane comparisons
/// must fold each lane's pending phase (lane_pending_phase): fused tables
/// carry absolute phases in the amplitudes while sliced application
/// routes the same phase through the deferred accumulator.
template <typename Real>
void run_trajectories_batched(
    const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
    std::size_t start_gates,
    const std::vector<std::vector<ErrorEvent>>& lane_events);

/// The per-split reference driver: one apply_plan_range call per distinct
/// injection site, per-lane Paulis on the whole plane between calls. Same
/// contract; kept as the equivalence oracle of the per-lane schedule and
/// for the before/after bench comparison (states agree to re-association
/// rounding — it slices every lane at the merged schedule's sites, the
/// walk only at each lane's own). apply_plan_range runs on the same group
/// walk, so this driver does not check the walk's tiling; the scalar
/// FusedPlan::apply_range is the independent oracle for that. Its traffic
/// still scales with the merged schedule length (one walk per site),
/// which is the lane-scaling regression the walk driver removes.
template <typename Real>
void run_trajectories_batched_split(
    const FusedPlan& plan, BatchedStateVectorT<Real>& bsv,
    std::size_t start_gates,
    const std::vector<std::vector<ErrorEvent>>& lane_events);

extern template void run_trajectories_batched<double>(
    const FusedPlan&, BatchedStateVector&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);
extern template void run_trajectories_batched<float>(
    const FusedPlan&, BatchedStateVectorF&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);
extern template void run_trajectories_batched_split<double>(
    const FusedPlan&, BatchedStateVector&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);
extern template void run_trajectories_batched_split<float>(
    const FusedPlan&, BatchedStateVectorF&, std::size_t,
    const std::vector<std::vector<ErrorEvent>>&);

}  // namespace qfab
