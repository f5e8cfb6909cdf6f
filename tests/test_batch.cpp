// Batched-engine validation: BatchedStateVector must match the scalar
// StateVector/FusedPlan path to <= 1e-12 on random circuits over every
// fused op kind — including mid-plan per-lane Pauli injections at every
// gate index, ragged lane counts, and every kernel table the host
// resolves (the suite is also re-run with QFAB_SIMD=scalar by the
// "scalar" CTest label). Float32 lanes are pinned against double to a
// bounded drift, and the precision-policy fallback must reproduce the
// double path bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/instances.h"
#include "exp/sweep.h"
#include "noise/estimator.h"
#include "sim/batch.h"
#include "sim/fusion.h"
#include "sim/invariants.h"

namespace qfab {
namespace {

constexpr double kTol = 1e-12;

std::vector<cplx> random_state(int n, Pcg64& rng) {
  std::vector<cplx> amps(pow2(n));
  double norm = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
    norm += std::norm(a);
  }
  const double s = 1.0 / std::sqrt(norm);
  for (cplx& a : amps) a *= s;
  return amps;
}

double state_distance(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::norm(a[i] - b[i]);
  return std::sqrt(d);
}

/// A random circuit drawing from every supported gate kind (fuses into
/// every op kind: kGate, kMatrix1, kMatrix2, kDiagonal).
QuantumCircuit random_circuit(int n, int gates, Pcg64& rng) {
  static const GateKind kKinds[] = {
      GateKind::kId, GateKind::kX,    GateKind::kY,  GateKind::kZ,
      GateKind::kH,  GateKind::kSX,   GateKind::kSXdg, GateKind::kRZ,
      GateKind::kRY, GateKind::kRX,   GateKind::kP,  GateKind::kU,
      GateKind::kCX, GateKind::kCZ,   GateKind::kCP, GateKind::kCH,
      GateKind::kSWAP, GateKind::kCCP, GateKind::kCCX};
  QuantumCircuit qc(n);
  for (int i = 0; i < gates; ++i) {
    const GateKind kind = kKinds[rng.uniform_int(std::size(kKinds))];
    const int arity = gate_arity(kind);
    int q[3];
    q[0] = static_cast<int>(rng.uniform_int(n));
    do q[1] = static_cast<int>(rng.uniform_int(n));
    while (q[1] == q[0]);
    do q[2] = static_cast<int>(rng.uniform_int(n));
    while (q[2] == q[0] || q[2] == q[1]);
    double p[3];
    for (double& v : p) v = (rng.uniform() - 0.5) * 2.0 * M_PI;
    if (arity == 1) {
      qc.append(make_gate1(kind, q[0], p[0], p[1], p[2]));
    } else if (arity == 2) {
      qc.append(make_gate2(kind, q[0], q[1], p[0]));
    } else {
      qc.append(make_gate3(kind, q[0], q[1], q[2], p[0]));
    }
  }
  return qc;
}

/// Run every kernel table the host resolves through `body` — forcing an
/// unsupported level degrades to the next one down, so duplicates are
/// skipped by resolved name (restores auto-detection after).
template <typename Body>
void for_each_simd_mode(const Body& body) {
  std::vector<std::string> seen;
  for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    set_simd_mode(mode);
    const std::string level = simd_mode_name();
    if (std::find(seen.begin(), seen.end(), level) != seen.end()) continue;
    seen.push_back(level);
    body(simd_mode_name());
  }
  set_simd_mode(SimdMode::kAuto);
}

TEST(SimdDispatch, ResolvesToConcreteMode) {
  set_simd_mode(SimdMode::kScalar);
  EXPECT_EQ(simd_mode(), SimdMode::kScalar);
  EXPECT_STREQ(simd_mode_name(), "scalar");
  set_simd_mode(SimdMode::kAuto);
  EXPECT_NE(simd_mode(), SimdMode::kAuto);  // always resolved
}

TEST(BatchedStateVector, LaneRoundTripAndInitialState) {
  Pcg64 rng(20260805, 10);
  BatchedStateVector bsv(4, 3);
  // Default lanes are |0...0>.
  const auto zero = bsv.lane_state(1).amplitudes();
  EXPECT_NEAR(std::abs(zero[0] - cplx{1.0, 0.0}), 0.0, kTol);

  std::vector<StateVector> states;
  for (int l = 0; l < 3; ++l) {
    states.push_back(StateVector::from_amplitudes(random_state(4, rng)));
    bsv.set_lane(l, states.back());
  }
  for (int l = 0; l < 3; ++l) {
    EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                             states[static_cast<std::size_t>(l)].amplitudes()),
              kTol);
    EXPECT_NEAR(bsv.lane_norm(l), 1.0, 1e-12);
  }
}

TEST(BatchedStateVector, PerLanePauliTouchesOnlyItsLane) {
  Pcg64 rng(20260805, 11);
  const int n = 3, L = 4;
  std::vector<StateVector> states;
  BatchedStateVector bsv(n, L);
  for (int l = 0; l < L; ++l) {
    states.push_back(StateVector::from_amplitudes(random_state(n, rng)));
    bsv.set_lane(l, states.back());
  }
  bsv.apply_pauli(2, Pauli::kY, 1);
  states[2].apply_pauli(Pauli::kY, 1);
  for (int l = 0; l < L; ++l)
    EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                             states[static_cast<std::size_t>(l)].amplitudes()),
              kTol)
        << "lane " << l;
}

TEST(BatchedStateVector, AllLaneMarginalsBitwiseMatchPerLane) {
  Pcg64 rng(20260805, 17);
  const int n = 5, lanes = 6;
  BatchedStateVector bsv(n, lanes);
  for (int l = 0; l < lanes; ++l)
    bsv.set_lane(l, StateVector::from_amplitudes(random_state(n, rng)));
  // Contiguous, scattered, and single-qubit subsets: both key paths.
  const std::vector<std::vector<int>> qubit_sets = {{1, 2, 3}, {0, 2, 4}, {4}};
  for (const auto& qs : qubit_sets) {
    const auto all = bsv.all_lane_marginal_probabilities(qs);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const auto ref = bsv.lane_marginal_probabilities(l, qs);
      ASSERT_EQ(all[static_cast<std::size_t>(l)].size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(all[static_cast<std::size_t>(l)][i], ref[i])
            << "lane " << l << " bin " << i;
    }
  }
}

TEST(BatchedStateVector, AssignPermutedCopiesMappedLanes) {
  Pcg64 rng(20260805, 18);
  const int n = 4;
  BatchedStateVector src(n, 3);
  for (int l = 0; l < 3; ++l)
    src.set_lane(l, StateVector::from_amplitudes(random_state(n, rng)));
  src.apply_lane_global_phase(1, 0.7);  // pending phase must follow its lane
  BatchedStateVector dst(1, 1);  // wrong shape on purpose: assign resizes
  const std::vector<int> map = {1, 1, 2, 0, 1};
  dst.assign_permuted(src, map);
  ASSERT_EQ(dst.lanes(), 5);
  ASSERT_EQ(dst.num_qubits(), n);
  for (std::size_t j = 0; j < map.size(); ++j)
    EXPECT_LT(state_distance(dst.lane_state(static_cast<int>(j)).amplitudes(),
                             src.lane_state(map[j]).amplitudes()),
              kTol)
        << "dst lane " << j;
}

TEST(BatchedEngine, MatchesScalarOnRandomCircuits) {
  // All op kinds, several lane counts (including non-power-of-two "ragged"
  // widths), both kernel tables.
  for_each_simd_mode([](const char* mode) {
    Pcg64 rng(20260805, 12);
    for (int lanes : {1, 3, 4, 8}) {
      for (int trial = 0; trial < 10; ++trial) {
        const int n = 3 + static_cast<int>(rng.uniform_int(3));  // 3..5
        const QuantumCircuit qc = random_circuit(n, 40, rng);
        const FusedPlan plan(qc);

        BatchedStateVector bsv(n, lanes);
        std::vector<StateVector> refs;
        for (int l = 0; l < lanes; ++l) {
          const auto init = random_state(n, rng);
          bsv.set_lane(l, StateVector::from_amplitudes(init));
          refs.push_back(StateVector::from_amplitudes(init));
          plan.apply(refs.back());
        }
        apply_plan(plan, bsv);
        for (int l = 0; l < lanes; ++l)
          EXPECT_LT(
              state_distance(bsv.lane_state(l).amplitudes(),
                             refs[static_cast<std::size_t>(l)].amplitudes()),
              kTol)
              << mode << " lanes=" << lanes << " trial=" << trial
              << " lane=" << l;
      }
    }
  });
}

TEST(BatchedEngine, MatchesScalarWithSmallTiles) {
  // tile_bits below the qubit count exercises the batched multi-tile path
  // (whose effective tile also shrinks by log2(lanes)): at every lane count
  // here the walk's tile is 2^4 rows, so ops on qubits 4 and 5 pair
  // XOR-sibling tiles. The scalar FusedPlan is the independent oracle of
  // that tiling, for whole plans in both precisions and for a range split
  // at a random gate index.
  for_each_simd_mode([](const char* mode) {
    Pcg64 rng(20260805, 13);
    FusionOptions options;
    options.tile_bits = 3;
    for (const int lanes : {1, 5, 16}) {
      for (int trial = 0; trial < 5; ++trial) {
        const QuantumCircuit qc = random_circuit(6, 60, rng);
        const FusedPlan plan(qc, options);
        const std::size_t split = rng.uniform_int(plan.gate_count() + 1);
        BatchedStateVector bsv(6, lanes);
        BatchedStateVectorF bsf(6, lanes);
        BatchedStateVector split_bsv(6, lanes);
        std::vector<StateVector> refs, split_refs;
        for (int l = 0; l < lanes; ++l) {
          const StateVector init =
              StateVector::from_amplitudes(random_state(6, rng));
          bsv.set_lane(l, init);
          bsf.set_lane(l, init);
          split_bsv.set_lane(l, init);
          refs.push_back(init);
          plan.apply(refs.back());
          split_refs.push_back(init);
          plan.apply_range(split_refs.back(), 0, split);
          plan.apply_range(split_refs.back(), split, plan.gate_count());
        }
        apply_plan(plan, bsv);
        apply_plan(plan, bsf);
        apply_plan_range(plan, split_bsv, 0, split);
        apply_plan_range(plan, split_bsv, split, plan.gate_count());
        StateVector float_lane(6);
        for (int l = 0; l < lanes; ++l) {
          const std::vector<cplx>& ref =
              refs[static_cast<std::size_t>(l)].amplitudes();
          EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(), ref), kTol)
              << mode << " lanes=" << lanes << " trial=" << trial
              << " lane=" << l;
          // In-place extraction: a float lane's norm may sit outside the
          // StateVector construction tolerance.
          bsf.lane_state(l, float_lane);
          EXPECT_LT(state_distance(float_lane.amplitudes(), ref), 1e-5)
              << mode << " float32 lanes=" << lanes << " trial=" << trial
              << " lane=" << l;
          EXPECT_LT(
              state_distance(split_bsv.lane_state(l).amplitudes(),
                             split_refs[static_cast<std::size_t>(l)]
                                 .amplitudes()),
              kTol)
              << mode << " split=" << split << " lanes=" << lanes
              << " trial=" << trial << " lane=" << l;
        }
      }
    }
  });
}

/// One fused phase op over `qubits`: a P on every qubit and a CP on every
/// adjacent pair, so the fuser merges them into a single diagonal table
/// whose every entry depends on every qubit. A lone qubit compiles to a
/// lone P gate (the per-gate phase-on-bit kernel), or with `rz` set to an
/// RZ·P chain that fuses into a one-qubit phase table.
QuantumCircuit phase_ladder(int n, const std::vector<int>& qubits, bool rz,
                            Pcg64& rng) {
  QuantumCircuit qc(n);
  if (rz) qc.append(make_gate1(GateKind::kRZ, qubits[0], 0.3));
  for (int q : qubits)
    qc.append(make_gate1(GateKind::kP, q, (rng.uniform() + 0.1) * 2.0));
  for (std::size_t k = 1; k < qubits.size(); ++k)
    qc.append(make_gate2(GateKind::kCP, qubits[k - 1], qubits[k],
                         (rng.uniform() + 0.1) * 2.0));
  return qc;
}

/// Replay op 0 of `plan` as one apply_batch_walk op-span step over lanes
/// [begin, begin + count) of an L-lane vector and check the three span
/// contracts: every spanned lane is bitwise the op run on that lane alone
/// (a 1-lane vector, whose tile height differs), every other lane is
/// bitwise untouched, and the spanned lanes match the scalar StateVector
/// to `tol`.
template <typename Real>
void check_diag_span(const FusedPlan& plan, int L, int begin, int count,
                     double tol, Pcg64& rng, const std::string& what) {
  const int n = plan.circuit().num_qubits();
  const u64 dim = pow2(n);
  const u64 ul = static_cast<u64>(L);
  BatchedStateVectorT<Real> bsv(n, L);
  std::vector<StateVector> inits;
  for (int l = 0; l < L; ++l) {
    inits.push_back(StateVector::from_amplitudes(random_state(n, rng)));
    bsv.set_lane(l, inits.back());
  }
  const std::vector<Real> re0(bsv.re(), bsv.re() + dim * ul);
  const std::vector<Real> im0(bsv.im(), bsv.im() + dim * ul);
  const BatchWalkStep step =
      count == L ? BatchWalkStep::op_step(&plan, 0)
                 : BatchWalkStep::op_span_step(&plan, 0, begin, count);
  apply_batch_walk(plan, bsv, &step, 1);

  for (int l = 0; l < L; ++l) {
    const u64 col = static_cast<u64>(l);
    const bool spanned = l >= begin && l < begin + count;
    std::vector<Real> want_re(dim), want_im(dim);
    if (spanned) {
      BatchedStateVectorT<Real> solo(n, 1);
      solo.set_lane(0, inits[static_cast<std::size_t>(l)]);
      const BatchWalkStep whole = BatchWalkStep::op_step(&plan, 0);
      apply_batch_walk(plan, solo, &whole, 1);
      want_re.assign(solo.re(), solo.re() + dim);
      want_im.assign(solo.im(), solo.im() + dim);
    } else {
      for (u64 i = 0; i < dim; ++i) {
        want_re[i] = re0[i * ul + col];
        want_im[i] = im0[i * ul + col];
      }
    }
    u64 mismatches = 0;
    for (u64 i = 0; i < dim; ++i)
      if (std::memcmp(&bsv.re()[i * ul + col], &want_re[i], sizeof(Real)) ||
          std::memcmp(&bsv.im()[i * ul + col], &want_im[i], sizeof(Real)))
        ++mismatches;
    EXPECT_EQ(mismatches, 0u)
        << what << " lane=" << l << (spanned ? " (spanned)" : " (outside)");
    if (!spanned) continue;
    // Phase ops with qubits leave the pending phase alone, so the raw
    // planes are the state itself.
    ASSERT_EQ(bsv.lane_pending_phase(l), 0.0) << what;
    StateVector ref = inits[static_cast<std::size_t>(l)];
    plan.apply_range(ref, 0, plan.gate_count());
    double dev = 0.0;
    for (u64 i = 0; i < dim; ++i) {
      const cplx got{static_cast<double>(bsv.re()[i * ul + col]),
                     static_cast<double>(bsv.im()[i * ul + col])};
      dev = std::max(dev, std::abs(got - ref.amplitudes()[i]));
    }
    EXPECT_LT(dev, tol) << what << " lane=" << l;
  }
}

TEST(BatchedWalk, DiagonalRunsAndLaneSpansAcrossTileHeight) {
  // tile_bits = 2 clamps every (lanes, precision) to 16-row tiles, so on
  // 10 qubits each phase op's lowest qubit sits below (run < tile), at
  // (run == tile) or above (one phase per tile) the tile height: for the
  // phase-on-bit and one-qubit-table kernels, and for b_diag with one, two
  // and three shift runs. Ops keyed down to qubit 0 take b_diag's
  // per-row path, once with a lowest run that crosses the tile height
  // (as QFA's {0..7, 14, 15} crosses the 512-row float tile). Spans cover
  // the single-lane, partial and full-width shapes the trajectory walk
  // issues.
  FusionOptions options;
  options.tile_bits = 2;
  const int n = 10;
  struct Case {
    std::vector<int> qubits;
    bool rz;
    FusedOp::Kind kind;
    std::size_t shift_runs;
  };
  std::vector<Case> cases;
  for (int q : {2, 4, 7}) {
    cases.push_back({{q}, false, FusedOp::Kind::kGate, 0});
    cases.push_back({{q}, true, FusedOp::Kind::kDiagonal, 0});
  }
  for (const auto& [qs, runs] : std::vector<std::pair<std::vector<int>, int>>{
           {{1, 2, 3}, 1}, {{4, 5}, 1}, {{6, 7, 8}, 1},
           {{0, 1, 5, 6}, 2}, {{0, 1, 2, 3, 4, 5, 7}, 2}, {{4, 6}, 2},
           {{6, 8, 9}, 2},
           {{0, 2, 4}, 3}, {{1, 3, 5}, 3}, {{4, 6, 8}, 3}, {{5, 7, 9}, 3}})
    cases.push_back({qs, false, FusedOp::Kind::kDiagonal,
                     static_cast<std::size_t>(runs)});

  for_each_simd_mode([&](const char* mode) {
    Pcg64 rng(20261017, 31);
    for (const Case& c : cases) {
      const FusedPlan plan(phase_ladder(n, c.qubits, c.rz, rng), options);
      ASSERT_EQ(plan.op_count(), 1u);
      const FusedOp& op = plan.ops()[0];
      ASSERT_EQ(op.kind, c.kind);
      if (c.kind == FusedOp::Kind::kDiagonal) {
        ASSERT_EQ(op.qubits, c.qubits);
        ASSERT_EQ(op.shifts.size(), c.shift_runs);
      }
      for (int L : {1, 3, 8}) {
        // (begin, count): single lanes at both edges, a partial span, all.
        std::vector<std::pair<int, int>> spans = {{0, 1}, {L - 1, 1}};
        if (L > 2) spans.push_back({1, L - 2});
        spans.push_back({0, L});
        for (const auto& [begin, count] : spans) {
          std::string what = std::string(mode) + " qubits=";
          for (int q : c.qubits) what += std::to_string(q) + ",";
          what += (c.rz ? " rz" : "") + std::string(" L=") +
                  std::to_string(L) + " span=[" + std::to_string(begin) +
                  "+" + std::to_string(count) + ")";
          check_diag_span<double>(plan, L, begin, count, 1e-12, rng,
                                  what + " double");
          check_diag_span<float>(plan, L, begin, count, 1e-5, rng,
                                 what + " float32");
        }
      }
    }
  });
}

TEST(BatchedEngine, PerLaneInjectionAtEveryGateIndex) {
  // The divergence protocol: shared segments batched, per-lane Paulis at
  // the split, batched execution resumes — checked at every gate index,
  // with each lane getting a different Pauli on a different qubit.
  Pcg64 rng(20260805, 14);
  const int n = 4, lanes = 4;
  const QuantumCircuit qc = random_circuit(n, 30, rng);
  const std::size_t total = qc.gates().size();
  const FusedPlan plan(qc);
  std::vector<std::vector<cplx>> inits;
  for (int l = 0; l < lanes; ++l) inits.push_back(random_state(n, rng));

  for (std::size_t s = 0; s <= total; ++s) {
    Pauli p[lanes];
    int q[lanes];
    for (int l = 0; l < lanes; ++l) {
      p[l] = static_cast<Pauli>(1 + rng.uniform_int(3));
      q[l] = static_cast<int>(rng.uniform_int(n));
    }

    BatchedStateVector bsv(n, lanes);
    for (int l = 0; l < lanes; ++l)
      bsv.set_lane(l, StateVector::from_amplitudes(inits[l]));
    apply_plan_range(plan, bsv, 0, s);
    for (int l = 0; l < lanes; ++l) bsv.apply_pauli(l, p[l], q[l]);
    apply_plan_range(plan, bsv, s, total);

    for (int l = 0; l < lanes; ++l) {
      StateVector ref = StateVector::from_amplitudes(inits[l]);
      plan.apply_range(ref, 0, s);
      ref.apply_pauli(p[l], q[l]);
      plan.apply_range(ref, s, total);
      EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                               ref.amplitudes()),
                kTol)
          << "split " << s << " lane " << l;
    }
  }
}

TEST(BatchedEngine, SplitsInsideTranspiledQfaOpsMatchScalar) {
  // Transpiled QFA fuses long diagonal gate runs into single ops; a split
  // inside one now executes through a cached subrange plan
  // (FusedPlan::subrange_plan) instead of gate-at-a-time. Pin the batched
  // split execution against the scalar apply_range at strided split points.
  for_each_simd_mode([](const char* mode) {
    CircuitSpec spec;
    spec.op = Operation::kAdd;
    spec.n = 3;
    const QuantumCircuit qc = build_transpiled_circuit(spec);
    const FusedPlan plan(qc);
    const std::size_t total = qc.gates().size();
    Pcg64 rng(20260805, 19);
    const auto init = random_state(qc.num_qubits(), rng);
    StateVector ref = StateVector::from_amplitudes(init);
    plan.apply_range(ref, 0, total);
    for (std::size_t s = 0; s <= total; s += 3) {
      BatchedStateVector bsv(qc.num_qubits(), 2);
      for (int l = 0; l < 2; ++l)
        bsv.set_lane(l, StateVector::from_amplitudes(init));
      apply_plan_range(plan, bsv, 0, s);
      apply_plan_range(plan, bsv, s, total);
      for (int l = 0; l < 2; ++l)
        EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                                 ref.amplitudes()),
                  kTol)
            << mode << " split " << s << " lane " << l;
    }
  });
}

TEST(BatchedTrajectories, MatchScalarRunTrajectory) {
  // Hand-crafted per-lane event lists (0-3 events each, arity-respecting
  // Paulis) through run_trajectories_batched vs the scalar run_trajectory.
  Pcg64 rng(20260805, 15);
  const int n = 4, lanes = 5;
  const QuantumCircuit qc = random_circuit(n, 40, rng);
  const std::size_t total = qc.gates().size();
  const FusedPlan* raw_plan = nullptr;
  const StateVector init = StateVector::from_amplitudes(random_state(n, rng));
  const CleanRun clean(qc, init, 8);
  raw_plan = &clean.plan();

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<ErrorEvent>> lane_events(lanes);
    std::size_t min_site = total;
    for (int l = 0; l < lanes; ++l) {
      const int n_events = static_cast<int>(rng.uniform_int(4));  // 0..3
      std::vector<std::size_t> sites;
      for (int e = 0; e < n_events; ++e) sites.push_back(rng.uniform_int(total));
      std::sort(sites.begin(), sites.end());
      for (std::size_t site : sites) {
        ErrorEvent ev;
        ev.gate_index = site;
        ev.pauli0 = static_cast<Pauli>(1 + rng.uniform_int(3));
        if (qc.gates()[site].arity() >= 2 && rng.bernoulli(0.5))
          ev.pauli1 = static_cast<Pauli>(1 + rng.uniform_int(3));
        lane_events[static_cast<std::size_t>(l)].push_back(ev);
      }
      if (!sites.empty()) min_site = std::min(min_site, sites.front() + 1);
    }
    const std::size_t g0 = min_site == total ? 0 : min_site;

    BatchedStateVector bsv(n, lanes);
    bsv.broadcast(clean.state_at(g0));
    run_trajectories_batched(*raw_plan, bsv, g0, lane_events);

    for (int l = 0; l < lanes; ++l) {
      const StateVector ref =
          run_trajectory(clean, lane_events[static_cast<std::size_t>(l)]);
      EXPECT_LT(state_distance(bsv.lane_state(l).amplitudes(),
                               ref.amplitudes()),
                kTol)
          << "trial " << trial << " lane " << l;
    }
  }
}

TEST(BatchedCleanRunTest, LaneQueriesMatchScalarCleanRuns) {
  // A batched group of clean runs must agree lane-for-lane with
  // independently computed scalar CleanRuns, at every checkpoint boundary
  // and in between.
  Pcg64 rng(20260805, 16);
  const int n = 4, lanes = 3;
  const QuantumCircuit qc = random_circuit(n, 50, rng);
  const auto plan = std::make_shared<const FusedPlan>(qc);

  std::vector<StateVector> initials;
  std::vector<CleanRun> scalar_runs;
  for (int l = 0; l < lanes; ++l) {
    initials.push_back(StateVector::from_amplitudes(random_state(n, rng)));
    scalar_runs.emplace_back(qc, initials.back(), 16, plan);
  }
  const BatchedCleanRun batched(plan, initials, 16);
  ASSERT_EQ(batched.lanes(), lanes);

  for (int l = 0; l < lanes; ++l) {
    EXPECT_LT(
        state_distance(batched.lane_final_state(l).amplitudes(),
                       scalar_runs[static_cast<std::size_t>(l)].final_state()
                           .amplitudes()),
        kTol);
    for (std::size_t g = 0; g <= qc.gates().size(); g += 7)
      EXPECT_LT(state_distance(
                    batched.lane_state_at(l, g).amplitudes(),
                    scalar_runs[static_cast<std::size_t>(l)].state_at(g)
                        .amplitudes()),
                kTol)
          << "lane " << l << " g " << g;
  }

  // load_states_at: batched resume states match the scalar replays
  // lane-for-lane, including permuted-with-repeats lane maps loaded into
  // reused storage.
  BatchedStateVector reuse(n, 1);
  const std::vector<int> map = {2, 0, 0, 1};
  for (std::size_t g = 0; g <= qc.gates().size(); g += 11) {
    batched.load_states_at(g, map, reuse);
    ASSERT_EQ(reuse.lanes(), static_cast<int>(map.size()));
    for (std::size_t j = 0; j < map.size(); ++j)
      EXPECT_LT(
          state_distance(reuse.lane_state(static_cast<int>(j)).amplitudes(),
                         scalar_runs[static_cast<std::size_t>(map[j])]
                             .state_at(g)
                             .amplitudes()),
          kTol)
          << "load_states_at lane " << j << " g " << g;
  }
}

TEST(BatchedEstimator, MatchesScalarEstimatorAndIsPackingIndependent) {
  // The single-lane batched estimator on the second member of a
  // BatchedCleanRun group vs the scalar reference on its own CleanRun.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  Pcg64 inst_rng(5, 1);
  std::vector<StateVector> initials;
  for (const ArithInstance& inst :
       generate_instances(2, 3, 3, OperandOrders{}, inst_rng))
    initials.push_back(make_initial_state(spec, inst));
  const BatchedCleanRun group(std::make_shared<const FusedPlan>(qc), initials,
                              32);
  const CleanRun clean(qc, initials[1], 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  Pcg64 rng_scalar(77, 3);
  const auto scalar = estimate_channel_marginal(clean, errors, out_q, est,
                                                rng_scalar);
  for (int max_lanes : {1, 4, 8}) {
    Pcg64 rng_batched(77, 3);
    const auto batched = estimate_channel_marginal_batched(
        group, 1, errors, out_q, est, max_lanes, rng_batched);
    ASSERT_EQ(batched.size(), scalar.size());
    // Same pre-sampled trajectories, same accumulation order: agreement to
    // simulation rounding regardless of how lanes were packed.
    for (std::size_t i = 0; i < scalar.size(); ++i)
      EXPECT_NEAR(batched[i], scalar[i], 1e-9) << "max_lanes=" << max_lanes;
    // And the consumed rng stream is identical to the scalar estimator's.
    Pcg64 rng_ref(77, 3);
    (void)estimate_channel_marginal(clean, errors, out_q, est, rng_ref);
    EXPECT_EQ(rng_batched(), rng_ref());
  }
}

TEST(BatchedEstimator, MultiMemberMatchesPerMemberEstimates) {
  // estimate_channel_marginals_batched pools all members' trajectories
  // into cross-member groups; each member's estimate must still match the
  // per-member batched estimator (same event samples, same accumulation
  // order) to simulation rounding, and consume the same rng stream.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  const auto plan = std::make_shared<const FusedPlan>(qc);
  Pcg64 inst_rng(6, 2);
  const auto insts = generate_instances(3, 3, 3, OperandOrders{}, inst_rng);
  std::vector<StateVector> initials;
  for (const ArithInstance& inst : insts)
    initials.push_back(make_initial_state(spec, inst));
  const BatchedCleanRun clean(plan, initials, 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  std::vector<Pcg64> rngs;
  for (std::size_t m = 0; m < insts.size(); ++m)
    rngs.push_back(Pcg64(88, 4).split(m));
  const auto all =
      estimate_channel_marginals_batched(clean, errors, out_q, est, rngs);
  ASSERT_EQ(all.size(), insts.size());
  for (std::size_t m = 0; m < insts.size(); ++m) {
    Pcg64 rng_ref = Pcg64(88, 4).split(m);
    const auto ref = estimate_channel_marginal_batched(
        clean, static_cast<int>(m), errors, out_q, est, 8, rng_ref);
    ASSERT_EQ(all[m].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(all[m][i], ref[i], 1e-9) << "member " << m << " bin " << i;
    EXPECT_EQ(rngs[m](), rng_ref()) << "member " << m;
  }
}

/// The sweep's per-(instance, depth, rate) stream (exp/sweep.cpp
/// point_rng), so a reference evaluation draws exactly what the sweep drew.
Pcg64 sweep_point_rng(std::uint64_t seed, std::size_t instance,
                      std::size_t depth_i, std::size_t rate_i) {
  const std::uint64_t salt = (static_cast<std::uint64_t>(instance) << 32) ^
                             (static_cast<std::uint64_t>(depth_i) << 16) ^
                             static_cast<std::uint64_t>(rate_i);
  Pcg64 root(seed, 0x5eedULL);
  return root.split(salt);
}

TEST(BatchedSweep, RaggedGroupsMatchScalarSweep) {
  // run_sweep packs instances into lane groups; every packing — one lane,
  // n_inst % lanes != 0 (5 % 2, 5 % 3) and lanes > n_inst (8 > 5) — must
  // reproduce, point for point and including the noise-free column, the
  // scalar reference engine (InstanceContext) run per instance on the same
  // per-point streams.
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 3;
  cfg.depths = {2, kFullDepth};
  cfg.rates_percent = {4.0};
  cfg.vary_2q = true;
  cfg.orders = {1, 1};
  cfg.instances = 5;
  cfg.run.shots = 128;
  cfg.run.error_trajectories = 6;
  cfg.include_noise_free = true;
  cfg.seed = 77;

  Pcg64 gen(cfg.seed);
  const auto insts = generate_instances(cfg.instances, 3, 3, cfg.orders, gen);

  // Reference: every column as a one-point cluster on InstanceContext.
  const std::vector<double> rates = cfg.expanded_rates();
  std::vector<SweepPoint> ref_points;
  for (std::size_t d = 0; d < cfg.depths.size(); ++d) {
    CircuitSpec spec = cfg.base;
    spec.depth = cfg.depths[d];
    const QuantumCircuit qc = build_transpiled_circuit(spec);
    for (std::size_t r = 0; r < rates.size(); ++r) {
      NoiseModel noise;  // exp/sweep.cpp noise_at
      noise.p2q = rates[r] / 100.0;
      noise.noisy_rz = cfg.run.noisy_rz;
      noise.noisy_id = cfg.run.noisy_id;
      std::vector<InstanceOutcome> outcomes;
      for (std::size_t i = 0; i < insts.size(); ++i) {
        const InstanceContext context(qc, spec, insts[i], cfg.run);
        std::vector<Pcg64> rngs{sweep_point_rng(cfg.seed, i, d, r)};
        outcomes.push_back(
            context.evaluate_rates({noise}, cfg.run, rngs).front());
      }
      ref_points.push_back(
          SweepPoint{cfg.depths[d], rates[r], aggregate_outcomes(outcomes)});
    }
  }
  ASSERT_EQ(ref_points.size(), 4u);  // 2 depths x (noise-free + 1 rate)

  for (int lanes : {1, 2, 3, 8}) {
    SweepConfig batched_cfg = cfg;
    batched_cfg.run.batch_lanes = lanes;
    const SweepResult got = run_sweep(batched_cfg, insts);
    ASSERT_EQ(got.points.size(), ref_points.size()) << "lanes=" << lanes;
    for (std::size_t i = 0; i < ref_points.size(); ++i) {
      const PointStats& a = ref_points[i].stats;
      const PointStats& b = got.points[i].stats;
      EXPECT_EQ(got.points[i].depth, ref_points[i].depth);
      EXPECT_EQ(got.points[i].rate_percent, ref_points[i].rate_percent);
      EXPECT_EQ(b.instances, a.instances) << "lanes=" << lanes << " pt " << i;
      EXPECT_EQ(b.successes, a.successes) << "lanes=" << lanes << " pt " << i;
      EXPECT_EQ(b.lower_flips, a.lower_flips)
          << "lanes=" << lanes << " pt " << i;
      EXPECT_EQ(b.upper_flips, a.upper_flips)
          << "lanes=" << lanes << " pt " << i;
      EXPECT_NEAR(b.success_rate, a.success_rate, 1e-12)
          << "lanes=" << lanes << " pt " << i;
      EXPECT_NEAR(b.sigma, a.sigma, 1e-9) << "lanes=" << lanes << " pt " << i;
    }
  }
}

TEST(BatchedSweep, SingleLaneSweepHonorsPrecision) {
  // batch_lanes = 1 runs the batched engine one lane wide, so a float32
  // request with a zero drift budget must trip the replay sentinel.
  SweepConfig cfg;
  cfg.base.op = Operation::kAdd;
  cfg.base.n = 3;
  cfg.depths = {kFullDepth};
  cfg.rates_percent = {4.0};
  cfg.vary_2q = true;
  cfg.instances = 2;
  cfg.run.shots = 64;
  cfg.run.error_trajectories = 4;
  cfg.run.batch_lanes = 1;
  cfg.run.precision = Precision::kFloat32;
  cfg.run.float_drift_budget = 0.0;
  cfg.seed = 78;
  Pcg64 gen(cfg.seed);
  const auto insts = generate_instances(cfg.instances, 3, 3, cfg.orders, gen);
  reset_precision_fallback_count();
  (void)run_sweep(cfg, insts);
  EXPECT_GT(precision_fallback_count(), 0);
}

/// Euclidean distance between one lane of each engine, straight off the
/// raw planes (usable across precisions, where the float lane's norm may
/// sit outside StateVector's construction tolerance). Fair as long as
/// both lanes carry the same pending phase — true when both engines ran
/// the same plan from the same inputs.
template <typename RealA, typename RealB>
double raw_lane_distance(const BatchedStateVectorT<RealA>& a,
                         const BatchedStateVectorT<RealB>& b, int lane) {
  double d = 0.0;
  for (u64 i = 0; i < a.dim(); ++i) {
    const std::size_t ia = i * static_cast<u64>(a.lanes()) + lane;
    const std::size_t ib = i * static_cast<u64>(b.lanes()) + lane;
    const double dr =
        static_cast<double>(a.re()[ia]) - static_cast<double>(b.re()[ib]);
    const double di =
        static_cast<double>(a.im()[ia]) - static_cast<double>(b.im()[ib]);
    d += dr * dr + di * di;
  }
  return std::sqrt(d);
}

TEST(Float32Engine, TracksDoubleWithinDriftBound) {
  // Float32 lanes through the same plan must stay within a random-walk
  // drift bound of the double engine (~eps_f32 * sqrt(gates) per
  // amplitude; 1e-4 leaves generous headroom at 60 gates) and keep their
  // norms, on every kernel table.
  for_each_simd_mode([](const char* mode) {
    Pcg64 rng(20260807, 21);
    for (int trial = 0; trial < 6; ++trial) {
      const int n = 4, lanes = 5;
      const QuantumCircuit qc = random_circuit(n, 60, rng);
      const FusedPlan plan(qc);
      BatchedStateVector bsv(n, lanes);
      BatchedStateVectorF bsf(n, lanes);
      for (int l = 0; l < lanes; ++l) {
        const StateVector init =
            StateVector::from_amplitudes(random_state(n, rng));
        bsv.set_lane(l, init);
        bsf.set_lane(l, init);
      }
      apply_plan(plan, bsv);
      apply_plan(plan, bsf);
      EXPECT_EQ(check_lane_norms(bsf, 1e-4), "") << mode;
      for (int l = 0; l < lanes; ++l) {
        EXPECT_NEAR(bsf.lane_norm(l), 1.0, 1e-4) << mode << " lane=" << l;
        EXPECT_LT(raw_lane_distance(bsf, bsv, l), 1e-4)
            << mode << " trial=" << trial << " lane=" << l;
      }
    }
  });
}

TEST(PrecisionPolicy, ResolvePrecisionHonorsBudget) {
  RunOptions run;
  // Explicit settings pass through untouched.
  EXPECT_EQ(resolve_precision(run, 1000), Precision::kDouble);
  run.precision = Precision::kFloat32;
  run.float_drift_budget = 0.0;
  EXPECT_EQ(resolve_precision(run, 1000), Precision::kFloat32);
  // kAuto: predicted random-walk drift vs the budget.
  run.precision = Precision::kAuto;
  run.float_drift_budget = 1e-3;
  EXPECT_EQ(resolve_precision(run, 100), Precision::kFloat32);
  run.float_drift_budget = 1e-9;
  EXPECT_EQ(resolve_precision(run, 100), Precision::kDouble);
}

TEST(PrecisionPolicy, Float32EstimatorTracksDoubleWithoutFallback) {
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  Pcg64 inst_rng(9, 1);
  const ArithInstance inst =
      generate_instances(1, 3, 3, OperandOrders{}, inst_rng)[0];
  const BatchedCleanRun clean(std::make_shared<const FusedPlan>(qc),
                              {make_initial_state(spec, inst)}, 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  Pcg64 rng_d(91, 3);
  const auto dbl =
      estimate_channel_marginal_batched(clean, 0, errors, out_q, est, 8, rng_d);

  est.precision = Precision::kFloat32;  // default 1e-3 budget: no trips
  reset_precision_fallback_count();
  Pcg64 rng_f(91, 3);
  const auto f32 =
      estimate_channel_marginal_batched(clean, 0, errors, out_q, est, 8, rng_f);
  EXPECT_EQ(precision_fallback_count(), 0);
  ASSERT_EQ(f32.size(), dbl.size());
  double dev = 0.0;
  for (std::size_t i = 0; i < dbl.size(); ++i)
    dev = std::max(dev, std::abs(f32[i] - dbl[i]));
  EXPECT_LT(dev, 1e-4);
  // Surviving float marginals are renormalized, so downstream simplex
  // checks still hold at double tolerances.
  EXPECT_EQ(check_probability_simplex(f32, 1e-9), "");
  // Events are pre-sampled identically in both precisions.
  EXPECT_EQ(rng_f(), rng_d());
}

TEST(PrecisionPolicy, TrippedBudgetFallsBackToDoubleBitForBit) {
  // A zero drift budget trips the sentinel on every float32 replay group;
  // the redo must reproduce the pure-double estimate bit for bit (the
  // events were pre-sampled, so the replay consumes no extra rng) and
  // count one fallback per replay group.
  CircuitSpec spec;
  spec.op = Operation::kAdd;
  spec.n = 3;
  const QuantumCircuit qc = build_transpiled_circuit(spec);
  Pcg64 inst_rng(9, 2);
  const ArithInstance inst =
      generate_instances(1, 3, 3, OperandOrders{}, inst_rng)[0];
  const BatchedCleanRun clean(std::make_shared<const FusedPlan>(qc),
                              {make_initial_state(spec, inst)}, 32);
  const ErrorLocations errors(qc, NoiseModel{.p1q = 0.002, .p2q = 0.004});
  const std::vector<int> out_q = output_qubits(spec);
  EstimatorOptions est;
  est.error_trajectories = 10;

  Pcg64 rng_d(92, 3);
  const auto dbl =
      estimate_channel_marginal_batched(clean, 0, errors, out_q, est, 8, rng_d);

  est.precision = Precision::kFloat32;
  est.float_drift_budget = 0.0;
  reset_precision_fallback_count();
  Pcg64 rng_f(92, 3);
  const auto fell =
      estimate_channel_marginal_batched(clean, 0, errors, out_q, est, 8, rng_f);
  EXPECT_GT(precision_fallback_count(), 0);
  ASSERT_EQ(fell.size(), dbl.size());
  for (std::size_t i = 0; i < dbl.size(); ++i)
    EXPECT_EQ(fell[i], dbl[i]) << "bin " << i;  // bitwise
  EXPECT_EQ(rng_f(), rng_d());
}

TEST(CdfSampler, MatchesLinearScanSemantics) {
  // Deterministic draw positions: with a known uniform stream the sampler
  // must land on the first index whose running sum exceeds u.
  const std::vector<double> probs = {0.0, 0.25, 0.0, 0.5, 0.25};
  CdfSampler sampler(probs);
  EXPECT_EQ(sampler.size(), probs.size());
  Pcg64 rng(123, 9);
  std::vector<int> counts(probs.size(), 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.draw(rng)];
  EXPECT_EQ(counts[0], 0);  // zero-probability bins never drawn
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1], 5000, 400);
  EXPECT_NEAR(counts[3], 10000, 500);
  EXPECT_NEAR(counts[4], 5000, 400);
}

}  // namespace
}  // namespace qfab
