// Micro-benchmarks (google-benchmark): state-vector gate kernels, QFT
// scaling, transpilation, trajectory machinery, and the batched SIMD
// kernel tiers — the cost model behind the figure benches' default scale.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "exp/experiment.h"
#include "noise/estimator.h"
#include "qfb/adder.h"
#include "qfb/qft.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "transpile/transpile.h"

namespace {

using namespace qfab;

void BM_Gate1q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv(n);
  const Gate g = make_gate1(GateKind::kSX, n / 2);
  for (auto _ : state) {
    sv.apply_gate(g);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pow2(n)));
}
BENCHMARK(BM_Gate1q)->Arg(10)->Arg(16)->Arg(20);

void BM_GateRz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv(n);
  const Gate g = make_gate1(GateKind::kRZ, n / 2, 0.3);
  for (auto _ : state) {
    sv.apply_gate(g);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pow2(n)));
}
BENCHMARK(BM_GateRz)->Arg(16)->Arg(20);

void BM_GateCx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv(n);
  const Gate g = make_gate2(GateKind::kCX, 1, n - 2);
  for (auto _ : state) {
    sv.apply_gate(g);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pow2(n)));
}
BENCHMARK(BM_GateCx)->Arg(16)->Arg(20);

void BM_QftCircuit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = transpile_to_basis(make_qft(n));
  StateVector sv(n);
  for (auto _ : state) {
    sv.apply_circuit(qc);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetLabel(std::to_string(qc.gates().size()) + " basis gates");
}
BENCHMARK(BM_QftCircuit)->Arg(8)->Arg(12)->Arg(16);

void BM_TranspileQfa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = make_qfa(n, n, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpile_to_basis(qc).gates().size());
  }
}
BENCHMARK(BM_TranspileQfa)->Arg(4)->Arg(8);

void BM_QfaCleanRun(benchmark::State& state) {
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const ArithInstance inst{QInt::classical(spec.n, 3),
                           QInt::classical(spec.n, 5)};
  for (auto _ : state) {
    const CleanRun clean(qc, make_initial_state(spec, inst), 64);
    benchmark::DoNotOptimize(clean.final_state().amplitudes().data());
  }
  state.SetLabel(std::to_string(qc.gates().size()) + " gates");
}
BENCHMARK(BM_QfaCleanRun)->Arg(4)->Arg(8);

void BM_QfmCleanRun(benchmark::State& state) {
  CircuitSpec spec;
  spec.op = Operation::kMultiply;
  spec.n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const ArithInstance inst{QInt::classical(spec.n, 3),
                           QInt::classical(spec.n, 5)};
  for (auto _ : state) {
    const CleanRun clean(qc, make_initial_state(spec, inst), 64);
    benchmark::DoNotOptimize(clean.final_state().amplitudes().data());
  }
  state.SetLabel(std::to_string(qc.gates().size()) + " gates");
}
BENCHMARK(BM_QfmCleanRun)->Arg(3)->Arg(4);

void BM_ErrorTrajectory(benchmark::State& state) {
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 8;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const ArithInstance inst{QInt::classical(8, 100), QInt::classical(8, 55)};
  const CleanRun clean(qc, make_initial_state(spec, inst), 64);
  NoiseModel nm;
  nm.p2q = 0.01;
  const ErrorLocations locs(qc, nm);
  Pcg64 rng(1);
  for (auto _ : state) {
    const auto events = locs.sample_at_least_one(rng);
    benchmark::DoNotOptimize(
        run_trajectory(clean, events).amplitudes().data());
  }
}
BENCHMARK(BM_ErrorTrajectory);

void BM_MarginalProbabilities(benchmark::State& state) {
  StateVector sv(16);
  sv.apply_gate(make_gate1(GateKind::kH, 0));
  std::vector<int> qubits;
  for (int i = 8; i < 16; ++i) qubits.push_back(i);
  for (auto _ : state)
    benchmark::DoNotOptimize(sv.marginal_probabilities(qubits).data());
}
BENCHMARK(BM_MarginalProbabilities);

// ---------------------------------------------------------------------------
// Batched SIMD kernel tiers: one row per (kernel, SIMD level, precision).
// Each row reports amplitude-lane updates per second (items/sec) and the
// effective plane traffic (bytes/sec; 2 planes x read+write per update), so
// kernel tiers are comparable as bandwidth figures. Rows are registered for
// every dispatch level the host resolves — forcing QFAB_SIMD in the
// environment restricts them to that level (the rows' names carry the
// resolved level either way).

template <typename Real>
void bm_batched_plan(benchmark::State& state, SimdMode mode,
                     std::shared_ptr<const FusedPlan> plan, int n, int lanes) {
  set_simd_mode(mode);
  BatchedStateVectorT<Real> bsv(n, lanes);
  for (auto _ : state) {
    apply_plan(*plan, bsv);
    benchmark::DoNotOptimize(bsv.re());
  }
  const double updates = static_cast<double>(state.iterations()) *
                         static_cast<double>(plan->gate_count()) *
                         static_cast<double>(pow2(n)) *
                         static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(updates * 4.0 * sizeof(Real)));
  set_simd_mode(SimdMode::kAuto);
}

/// The kernel tiers worth a row each: a 1q matrix stream (b_matrix1), a 1q
/// diagonal stream (b_diag1), a 2q stream (b_matrix2), and the fused AQFT
/// mix the sweeps actually run.
QuantumCircuit kernel_circuit(const std::string& kernel, int n, int gates) {
  QuantumCircuit qc(n);
  for (int i = 0; i < gates; ++i) {
    const int q = i % n;
    if (kernel == "matrix1")
      qc.append(make_gate1(GateKind::kSX, q));
    else if (kernel == "diag1")
      qc.append(make_gate1(GateKind::kRZ, q, 0.3));
    else
      qc.append(make_gate2(GateKind::kCX, q, (q + 1) % n));
  }
  return qc;
}

/// Dispatch levels to register: every distinct resolved level, or just the
/// forced one when QFAB_SIMD is set.
std::vector<SimdMode> batched_bench_modes() {
  if (std::getenv("QFAB_SIMD") != nullptr) return {SimdMode::kAuto};
  std::vector<SimdMode> modes;
  std::vector<std::string> seen;
  for (SimdMode m : {SimdMode::kScalar, SimdMode::kAvx2}) {
    set_simd_mode(m);
    const std::string level = simd_mode_name();
    if (std::find(seen.begin(), seen.end(), level) == seen.end()) {
      seen.push_back(level);
      modes.push_back(m);
    }
  }
  set_simd_mode(SimdMode::kAuto);
  return modes;
}

/// One transpiled QFA n=8 diagonal op replayed through apply_batch_walk as
/// op-span steps over the last `span` lanes. Span 1 (a single-lane walk
/// slice) and span = lanes (a shared segment) are the two shapes behind
/// 84% of the diagonal-kernel calls in a Fig. 1 run (59% and 25%). The
/// walk repeats the step kWalkSteps times, so each tile takes them all
/// while cache-resident, as in a trajectory walk, and the row measures the
/// kernel rather than a memory stream. Items are amplitude-lane updates of
/// the spanned lanes.
template <typename Real>
void bm_diag_walk(benchmark::State& state, SimdMode mode,
                  std::shared_ptr<const FusedPlan> plan, std::size_t op,
                  int lanes, int span) {
  set_simd_mode(mode);
  const int n = plan->circuit().num_qubits();
  BatchedStateVectorT<Real> bsv(n, lanes);
  // Uniform superposition: repeated phases keep every amplitude's modulus.
  bsv.broadcast(StateVector::from_amplitudes(std::vector<cplx>(
      pow2(n), cplx{1.0 / std::sqrt(static_cast<double>(pow2(n))), 0.0})));
  constexpr int kWalkSteps = 16;
  const std::vector<BatchWalkStep> steps(
      kWalkSteps,
      BatchWalkStep::op_span_step(plan.get(), op, lanes - span, span));
  for (auto _ : state) {
    apply_batch_walk(*plan, bsv, steps.data(), steps.size());
    benchmark::DoNotOptimize(bsv.re());
    benchmark::ClobberMemory();
  }
  const double updates = static_cast<double>(state.iterations()) *
                         static_cast<double>(kWalkSteps) *
                         static_cast<double>(pow2(n)) *
                         static_cast<double>(span);
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
  std::string label = "qubits";
  for (int q : plan->ops()[op].qubits) label += " " + std::to_string(q);
  state.SetLabel(label);
  set_simd_mode(SimdMode::kAuto);
}

/// The diagonal op bm_diag_walk replays: the plan's first two-shift-run
/// phase table keyed down to qubit 0, so every row carries its own phase
/// (the costliest single-lane shape in the Fig. 1 census).
std::size_t qfa8_diag_op(const FusedPlan& plan) {
  for (std::size_t i = 0; i < plan.op_count(); ++i) {
    const FusedOp& op = plan.ops()[i];
    if (op.kind == FusedOp::Kind::kDiagonal && op.shifts.size() == 2 &&
        op.shifts[0].shift == 0)
      return i;
  }
  QFAB_CHECK_MSG(false, "QFA n=8 plan has no two-run diagonal op at qubit 0");
  return 0;
}

int register_batched_benches() {
  const int n = 12;
  const int lanes = 8;
  const int gates = 64;
  for (SimdMode mode : batched_bench_modes()) {
    set_simd_mode(mode);
    const std::string level = simd_mode_name();
    std::vector<std::pair<std::string, std::shared_ptr<const FusedPlan>>>
        plans;
    // Per-kernel streams run unfused so every gate hits its own kernel.
    FusionOptions unfused;
    unfused.enable = false;
    for (const char* kernel : {"matrix1", "diag1", "matrix2"})
      plans.emplace_back(kernel, std::make_shared<const FusedPlan>(
                                     kernel_circuit(kernel, n, gates),
                                     unfused));
    plans.emplace_back("aqft_fused", std::make_shared<const FusedPlan>(
                                         transpile_to_basis(make_qft(n))));
    CircuitSpec qfa8;
    qfa8.op = Operation::kAdd;
    qfa8.n = 8;
    auto walk_plan =
        std::make_shared<const FusedPlan>(build_transpiled_circuit(qfa8));
    const std::size_t diag_op = qfa8_diag_op(*walk_plan);
    for (int span : {1, lanes}) {
      const std::string base = "BM_Batched/qfa8_diag_walk/" + level +
                               "/lanes:" + std::to_string(lanes) +
                               "/span:" + std::to_string(span);
      benchmark::RegisterBenchmark(
          (base + "/f64").c_str(),
          [mode, walk_plan, diag_op, lanes, span](benchmark::State& s) {
            bm_diag_walk<double>(s, mode, walk_plan, diag_op, lanes, span);
          });
      benchmark::RegisterBenchmark(
          (base + "/f32").c_str(),
          [mode, walk_plan, diag_op, lanes, span](benchmark::State& s) {
            bm_diag_walk<float>(s, mode, walk_plan, diag_op, lanes, span);
          });
    }
    for (const auto& [kernel, plan] : plans) {
      const std::string base =
          "BM_Batched/" + kernel + "/" + level + "/lanes:" +
          std::to_string(lanes);
      benchmark::RegisterBenchmark(
          (base + "/f64").c_str(),
          [mode, plan, n, lanes](benchmark::State& s) {
            bm_batched_plan<double>(s, mode, plan, n, lanes);
          });
      benchmark::RegisterBenchmark(
          (base + "/f32").c_str(),
          [mode, plan, n, lanes](benchmark::State& s) {
            bm_batched_plan<float>(s, mode, plan, n, lanes);
          });
    }
  }
  set_simd_mode(SimdMode::kAuto);
  return 0;
}

const int kBatchedBenchesRegistered = register_batched_benches();

}  // namespace
