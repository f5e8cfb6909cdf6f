// The differential engine matrix.
//
// Every case runs through each way this repo can produce an output
// distribution:
//
//   statevector    gate-by-gate reference kernels (norm checked per gate)
//   transpiled     transpile_to_basis(circuit) on the same reference path
//                  (the transpiler is unitary-preserving, so the
//                  distribution must survive decomposition + peephole)
//   fused          FusedPlan::apply (cost-gated fusion + cache blocking)
//   fused-split    FusedPlan::apply_range around the case's split site,
//                  second half through a lazily compiled subrange_plan —
//                  the trajectory machinery's mid-op split protocol
//   batched        BatchedStateVector at the case's lane count, split at
//                  the same site, with an X·X identity probe on one lane
//                  exercising per-lane divergence
//   density        exact DensityMatrix evolution (trace and purity checked)
//
// plus a noisy leg: the depolarizing channel applied exactly by the
// density matrix versus the scalar reference estimator (CleanRun) and the
// production estimators on a BatchedCleanRun — pooled, single-lane,
// float32 and shared-trajectory — compared to the scalar estimate at
// replay-rounding tolerance, the scalar estimate and the reweighted
// shared column vs exact at a statistical tolerance.
//
// All pure engines must agree pairwise on the full distribution and on a
// qubit-subset marginal to `tol`; every engine's invariants (norm per
// segment, probability simplex, trace) are checked as it runs.
#pragma once

#include <string>
#include <vector>

#include "verify/generator.h"

namespace qfab::verify {

struct EngineOptions {
  /// Pairwise agreement + invariant tolerance for exact (pure) engines and
  /// for scalar-vs-batched estimator agreement.
  double tol = 1e-10;
  /// Total-variation tolerance for the stratified estimator vs the exact
  /// depolarizing channel (statistical, not exact).
  double channel_tol = 0.12;
  /// Trajectories per estimator leg.
  int error_trajectories = 96;
  /// Agreement tolerance for the float32 legs: the batched float32 engine
  /// vs the double reference, and the float32-replay estimator vs the
  /// scalar double estimator. Float32 amplitudes round at ~1.2e-7 per op
  /// and the drift compounds like a random walk over the case's gates, so
  /// probabilities of the generator's circuits (<= a few hundred gates)
  /// land within ~1e-5 of double; 1e-4 leaves an order of magnitude of
  /// headroom while staying far below any real kernel defect.
  double f32_tol = 1e-4;
  /// Disable the noisy leg (the shrinker does: the injected-fault search
  /// is an exact-engine property, and the noisy leg dominates runtime).
  bool check_noisy = true;
};

struct EngineResult {
  std::string name;
  std::vector<double> probabilities;  // full output distribution
  std::vector<double> marginal;       // distribution of marginal_qubits(n)
  std::string violation;              // first invariant breakage, "" = clean
};

/// The deterministic qubit subset every engine's marginal is compared on:
/// every other qubit (non-empty for n >= 1).
std::vector<int> marginal_qubits(int num_qubits);

/// Run the case through every exact engine. Results are in a fixed order;
/// each carries any invariant violation it hit.
std::vector<EngineResult> run_exact_engines(const VerifyCase& c,
                                            const EngineOptions& opt);

/// Run the noisy leg (exact channel vs estimators, double and float32
/// replay). Returns "" or the first violation.
std::string check_noisy_channel(const VerifyCase& c, const EngineOptions& opt);

/// Float32 engine leg: the batched float32 engine through the same
/// split + identity-probe protocol as the double batched leg, compared to
/// the per-gate double reference at opt.f32_tol (see its doc for the
/// tolerance rationale). Runs the fused kernels at whatever SIMD level is
/// active, so an injected kernel fault (set_batch_fault_injection) is
/// caught on the float32 tier too. Returns "" or a violation.
std::string check_float32_leg(const VerifyCase& c, const EngineOptions& opt);

/// Full verdict for one case: "" when every engine agrees and every
/// invariant holds, else a one-line failure description.
std::string check_case(const VerifyCase& c, const EngineOptions& opt);

}  // namespace qfab::verify
