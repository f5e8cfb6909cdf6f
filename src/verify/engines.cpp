#include "verify/engines.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "noise/densitymatrix.h"
#include "noise/estimator.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "sim/invariants.h"
#include "transpile/transpile.h"
#include "verify/compare.h"

namespace qfab::verify {

namespace {

std::vector<int> all_qubits(int n) {
  std::vector<int> q(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] = i;
  return q;
}

EngineResult finish_pure(std::string name, const StateVector& sv,
                         const std::vector<int>& marg, double tol,
                         std::string violation) {
  EngineResult r;
  r.name = std::move(name);
  r.probabilities = sv.probabilities();
  r.marginal = sv.marginal_probabilities(marg);
  r.violation = std::move(violation);
  if (r.violation.empty()) r.violation = check_norm(sv, tol);
  if (r.violation.empty())
    r.violation = check_probability_simplex(r.probabilities, tol);
  if (r.violation.empty())
    r.violation = check_probability_simplex(r.marginal, tol);
  return r;
}

}  // namespace

std::vector<int> marginal_qubits(int num_qubits) {
  std::vector<int> q;
  for (int i = 0; i < num_qubits; i += 2) q.push_back(i);
  return q;
}

std::vector<EngineResult> run_exact_engines(const VerifyCase& c,
                                            const EngineOptions& opt) {
  const QuantumCircuit& qc = c.circuit;
  const int n = qc.num_qubits();
  const std::size_t gates = qc.gates().size();
  const std::size_t split = std::min(c.split_gate, gates);
  const std::vector<int> marg = marginal_qubits(n);
  std::vector<EngineResult> results;

  // Reference: per-gate kernels, norm preserved after every gate.
  {
    StateVector sv(n);
    std::string violation;
    for (const Gate& g : qc.gates()) {
      sv.apply_gate(g);
      violation = check_norm(sv, opt.tol);
      if (!violation.empty()) break;
    }
    results.push_back(
        finish_pure("statevector", sv, marg, opt.tol, std::move(violation)));
  }

  // The transpiler must preserve the distribution exactly (it preserves
  // the unitary, global phase included).
  {
    StateVector sv(n);
    sv.apply_circuit(transpile_to_basis(qc));
    results.push_back(finish_pure("transpiled", sv, marg, opt.tol, {}));
  }

  // Fused execution plan, whole circuit.
  const FusedPlan plan(qc);
  {
    StateVector sv(n);
    plan.apply(sv);
    results.push_back(finish_pure("fused", sv, marg, opt.tol, {}));
  }

  // Split execution: first half through apply_range (falls back per-gate
  // around a mid-op boundary), second half through the lazily compiled
  // subrange plan — the exact protocol trajectory replay uses.
  {
    StateVector sv(n);
    plan.apply_range(sv, 0, split);
    std::string violation = check_norm(sv, opt.tol);
    const FusedPlan& tail = plan.subrange_plan(split, gates);
    tail.apply_range(sv, 0, tail.gate_count());
    results.push_back(
        finish_pure("fused-split", sv, marg, opt.tol, std::move(violation)));
  }

  // Batched engine at the case's lane count, same split. All lanes start
  // |0...0>, so they must stay identical; one lane takes an X·X identity
  // probe mid-circuit to exercise per-lane divergence bookkeeping.
  {
    BatchedStateVector bsv(n, c.lanes);
    apply_plan_range(plan, bsv, 0, split);
    std::string violation = check_lane_norms(bsv, opt.tol);
    const int probe_lane = c.lanes - 1;
    bsv.apply_pauli(probe_lane, Pauli::kX, 0);
    bsv.apply_pauli(probe_lane, Pauli::kX, 0);
    apply_plan_range(plan, bsv, split, gates);
    if (violation.empty()) violation = check_lane_norms(bsv, opt.tol);

    EngineResult r;
    r.name = "batched";
    r.probabilities = bsv.lane_probabilities(0);
    const auto lane_margs = bsv.all_lane_marginal_probabilities(marg);
    r.marginal = lane_margs.front();
    if (violation.empty()) {
      for (int l = 1; l < c.lanes && violation.empty(); ++l) {
        const double d =
            std::max(max_abs_diff(r.probabilities, bsv.lane_probabilities(l)),
                     max_abs_diff(r.marginal,
                                  lane_margs[static_cast<std::size_t>(l)]));
        if (d > opt.tol) {
          std::ostringstream os;
          os << "lane " << l << " diverged from lane 0 by " << d
             << " on identical inputs (tol " << opt.tol << ")";
          violation = os.str();
        }
      }
    }
    if (violation.empty())
      violation = check_probability_simplex(r.probabilities, opt.tol);
    r.violation = std::move(violation);
    results.push_back(std::move(r));
  }

  // Exact density matrix: ρ = |ψ><ψ| evolved as a 2^{2n} buffer; trace and
  // purity are the segment invariants on this engine.
  {
    DensityMatrix dm(n);
    dm.apply_circuit(qc);
    EngineResult r;
    r.name = "density";
    r.probabilities = dm.probabilities();
    r.marginal = dm.marginal_probabilities(marg);
    std::ostringstream os;
    if (std::abs(dm.trace() - 1.0) > opt.tol) {
      os << "trace " << dm.trace() << " drifted from 1";
      r.violation = os.str();
    } else if (std::abs(dm.purity() - 1.0) > opt.tol) {
      os << "purity " << dm.purity() << " drifted from 1 on a pure state";
      r.violation = os.str();
    } else {
      r.violation = check_probability_simplex(r.probabilities, opt.tol);
    }
    results.push_back(std::move(r));
  }

  return results;
}

std::string check_float32_leg(const VerifyCase& c, const EngineOptions& opt) {
  const QuantumCircuit& qc = c.circuit;
  const int n = qc.num_qubits();
  const std::size_t gates = qc.gates().size();
  const std::size_t split = std::min(c.split_gate, gates);
  const std::vector<int> marg = marginal_qubits(n);

  StateVector ref(n);
  ref.apply_circuit(qc);

  const FusedPlan plan(qc);
  BatchedStateVectorF bsf(n, c.lanes);
  apply_plan_range(plan, bsf, 0, split);
  std::string violation = check_lane_norms(bsf, opt.f32_tol);
  if (!violation.empty()) return "batched-f32: " + violation;
  const int probe_lane = c.lanes - 1;
  bsf.apply_pauli(probe_lane, Pauli::kX, 0);
  bsf.apply_pauli(probe_lane, Pauli::kX, 0);
  apply_plan_range(plan, bsf, split, gates);
  violation = check_lane_norms(bsf, opt.f32_tol);
  if (!violation.empty()) return "batched-f32: " + violation;

  const std::vector<double> probs = bsf.lane_probabilities(0);
  const auto lane_margs = bsf.all_lane_marginal_probabilities(marg);
  const double d_full = max_abs_diff(probs, ref.probabilities());
  const double d_marg =
      max_abs_diff(lane_margs.front(), ref.marginal_probabilities(marg));
  if (std::max(d_full, d_marg) > opt.f32_tol) {
    std::ostringstream os;
    os << "batched-f32 vs statevector: max |dp| = " << std::max(d_full, d_marg)
       << " (f32 tol " << opt.f32_tol << ")";
    return os.str();
  }
  for (int l = 1; l < c.lanes; ++l) {
    const double d =
        std::max(max_abs_diff(probs, bsf.lane_probabilities(l)),
                 max_abs_diff(lane_margs.front(),
                              lane_margs[static_cast<std::size_t>(l)]));
    // Identical inputs through identical float32 arithmetic: lanes must
    // agree bitwise, so any nonzero divergence is a lane-indexing defect.
    if (d > 0.0) {
      std::ostringstream os;
      os << "batched-f32 lane " << l << " diverged from lane 0 by " << d
         << " on identical inputs";
      return os.str();
    }
  }
  return {};
}

std::string check_noisy_channel(const VerifyCase& c,
                                const EngineOptions& opt) {
  const int n = c.circuit.num_qubits();
  const QuantumCircuit tqc = transpile_to_basis(c.circuit);
  const std::size_t tgates = tqc.gates().size();
  if (tgates == 0) return {};

  // Keep the expected error-event count O(1) so the trajectory average
  // converges to the exact channel within channel_tol at the configured
  // trajectory budget (the rate still scales every gate's error).
  NoiseModel noise;
  noise.p1q = noise.p2q =
      std::min(c.depolarizing_p, 2.0 / static_cast<double>(tgates));

  DensityMatrix dm(n);
  dm.apply_noisy_circuit(tqc, noise);
  const std::vector<double> exact = dm.probabilities();
  if (std::abs(dm.trace() - 1.0) > opt.tol)
    return "noisy density: trace " + std::to_string(dm.trace()) +
           " drifted from 1";
  std::string violation = check_probability_simplex(exact, opt.tol);
  if (!violation.empty()) return "noisy density: " + violation;

  // Scalar reference vs the production batched estimators: a
  // BatchedCleanRun of max(2, lanes) members, all in the case's initial
  // state and all drawing the scalar estimator's stream. Identical rng
  // streams, so every member must agree with the scalar estimate to replay
  // rounding — a far tighter differential than either is to the exact
  // channel.
  const auto plan = std::make_shared<const FusedPlan>(tqc);
  const CleanRun clean(tqc, StateVector(n), 64, plan);
  const std::size_t members = static_cast<std::size_t>(std::max(2, c.lanes));
  const BatchedCleanRun bclean(
      plan, std::vector<StateVector>(members, StateVector(n)), 64);
  const ErrorLocations errors(tqc, noise);
  const std::vector<int> outputs = all_qubits(n);
  EstimatorOptions eopt;
  eopt.error_trajectories = opt.error_trajectories;
  const std::uint64_t stream = 0xd1ffe7e47ULL ^ c.root_seed;
  const std::vector<Pcg64> member_rngs(members, Pcg64(stream, c.index));

  Pcg64 rng_scalar(stream, c.index);
  const std::vector<double> est_scalar =
      estimate_channel_marginal(clean, errors, outputs, eopt, rng_scalar);
  violation = check_probability_simplex(est_scalar, opt.tol);
  if (!violation.empty()) return "estimator(scalar): " + violation;

  // "" when every estimate in `est` is a distribution within `tol` of the
  // scalar estimate, else the first one that is not, described.
  auto stray = [&](const std::vector<std::vector<double>>& est, double tol,
                   const std::string& what) -> std::string {
    for (std::size_t m = 0; m < est.size(); ++m) {
      const std::string bad = check_probability_simplex(est[m], opt.tol);
      if (!bad.empty()) return "estimator(" + what + "): " + bad;
      const double d = max_abs_diff(est_scalar, est[m]);
      if (d > tol) {
        std::ostringstream os;
        os << "estimator scalar vs " << what << " member " << m
           << ": max |dp| = " << d << " (tol " << tol << ")";
        return os.str();
      }
    }
    return {};
  };

  // Every member through the pooled estimator, and one member through the
  // single-lane estimator the shared estimator's ESS fallback uses.
  std::vector<Pcg64> rngs = member_rngs;
  violation = stray(
      estimate_channel_marginals_batched(bclean, errors, outputs, eopt, rngs),
      opt.tol, "batched");
  if (!violation.empty()) return violation;
  Pcg64 rng_lane(stream, c.index);
  violation = stray({estimate_channel_marginal_batched(
                        bclean, static_cast<int>(members) - 1, errors, outputs,
                        eopt, static_cast<int>(members), rng_lane)},
                    opt.tol, "batched lane");
  if (!violation.empty()) return violation;
  // Float32 replay leg: identical rng streams (events are pre-sampled, so
  // the narrow tier consumes them exactly like the double tier), compared
  // to the scalar double estimate at the float32 drift tolerance.
  EstimatorOptions fopt = eopt;
  fopt.precision = Precision::kFloat32;
  rngs = member_rngs;
  violation = stray(
      estimate_channel_marginals_batched(bclean, errors, outputs, fopt, rngs),
      opt.f32_tol, "float32");
  if (!violation.empty()) return violation;

  const double tv = total_variation(est_scalar, exact);
  if (tv > opt.channel_tol) {
    std::ostringstream os;
    os << "estimator vs exact channel: total variation " << tv << " (tol "
       << opt.channel_tol << ", " << eopt.error_trajectories
       << " trajectories)";
    return os.str();
  }

  // Shared-trajectory cluster estimator over {rate/2, rate}: the proposal
  // column samples the same stream the stratified estimators consumed, so
  // it must match them to replay rounding; the reweighted half-rate column
  // must stay within a (variance-inflated) statistical TV tolerance of its
  // own exact channel. An ESS fallback on the half-rate column is fine —
  // it reproduces the per-rate estimator, which meets the same bound.
  NoiseModel half = noise;
  half.p1q *= 0.5;
  half.p2q *= 0.5;
  std::vector<ErrorLocations> cluster;
  cluster.emplace_back(tqc, half);
  cluster.emplace_back(tqc, noise);  // proposal (largest expected events)
  SharedEstimatorOptions sopt;
  sopt.error_trajectories = opt.error_trajectories;
  std::vector<std::vector<Pcg64>> cluster_rngs{
      std::vector<Pcg64>(members, Pcg64(stream ^ 0x51a7edULL, c.index)),
      member_rngs};  // the proposal draws the stratified estimators' stream
  const std::vector<std::vector<std::vector<double>>> shared =
      estimate_channel_marginals_shared(bclean, cluster, outputs, sopt,
                                        cluster_rngs);
  violation = stray(shared[1], opt.tol, "shared-trajectory proposal column");
  if (!violation.empty()) return violation;
  DensityMatrix dm_half(n);
  dm_half.apply_noisy_circuit(tqc, half);
  const std::vector<double> exact_half = dm_half.probabilities();
  for (const std::vector<double>& column : shared[0]) {
    violation = check_probability_simplex(column, opt.tol);
    if (!violation.empty())
      return "estimator(shared half-rate): " + violation;
    const double tv_half = total_variation(column, exact_half);
    if (tv_half > 1.5 * opt.channel_tol) {
      std::ostringstream os;
      os << "shared-trajectory half-rate column vs exact channel: total "
            "variation "
         << tv_half << " (tol " << 1.5 * opt.channel_tol << ", "
         << sopt.error_trajectories << " trajectories)";
      return os.str();
    }
  }
  return {};
}

std::string check_case(const VerifyCase& c, const EngineOptions& opt) {
  const std::vector<EngineResult> exact = run_exact_engines(c, opt);
  std::string failure = compare_engine_results(exact, opt.tol);
  if (!failure.empty()) return failure;
  failure = check_float32_leg(c, opt);
  if (!failure.empty()) return failure;
  if (opt.check_noisy) return check_noisy_channel(c, opt);
  return {};
}

}  // namespace qfab::verify
