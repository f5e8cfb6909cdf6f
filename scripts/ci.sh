#!/usr/bin/env bash
# Full CI pass: tier-1 tests + differential verification smoke, first in a
# plain release build, then under the two sanitizer presets
# (QFAB_SANITIZE=address -> ASan+UBSan, QFAB_SANITIZE=thread -> TSan).
# Sanitizer presets set QFAB_SIMD=scalar at run time (the build keeps every
# kernel table): the figure smokes then run the portable table, while the
# tests that walk the tiers through set_simd_mode() still check the AVX2
# tables under the instrumented build. The plain preset also checks the
# figure-panel CSVs of every kernel tier through panelbench.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
  local name="$1"
  shift
  local builddir="build-ci-${name}"
  echo "== ${name}: configure =="
  cmake -B "${builddir}" -S . "$@" >/dev/null
  echo "== ${name}: build =="
  cmake --build "${builddir}" -j "$(nproc)" >/dev/null
  echo "== ${name}: tier-1 tests =="
  (cd "${builddir}" && ctest --output-on-failure -j "$(nproc)")
  echo "== ${name}: verify smoke (ctest -L verify) =="
  (cd "${builddir}" && ctest -L verify --output-on-failure)
}

# Crash a bounded figure run mid-sweep with an injected fault, resume it
# from the checkpoint journal, and require the CSVs to match an
# uninterrupted reference run byte for byte (the durability contract;
# DESIGN.md §10). Exit 86 is the fault injector's distinctive crash code.
crash_resume_smoke() {
  local name="$1"
  local builddir="build-ci-${name}"
  local smokedir="${builddir}/crash_resume_smoke"
  local flags=(--instances 3 --traj 3 --shots 64 --depths 1,2
               --rates1q 0.4 --rates2q 1.0 --quiet)
  echo "== ${name}: crash-resume smoke =="
  rm -rf "${smokedir}"
  mkdir -p "${smokedir}"
  (
    cd "${smokedir}"
    ../bench/fig1_qfa_sweep "${flags[@]}" --csv ref >/dev/null
    set +e
    QFAB_FAULT=crash-after-unit=2 ../bench/fig1_qfa_sweep "${flags[@]}" \
      --csv ckpt --checkpoint ckpt >/dev/null 2>&1
    local crash_rc=$?
    set -e
    if [[ "${crash_rc}" -ne 86 ]]; then
      echo "crash-resume smoke: expected injected-crash exit 86, got ${crash_rc}" >&2
      exit 1
    fi
    ../bench/fig1_qfa_sweep "${flags[@]}" --csv ckpt --checkpoint ckpt \
      --resume >/dev/null
    for ref in ref_*.csv; do
      cmp "${ref}" "ckpt${ref#ref}"
    done
  )
  echo "== ${name}: crash-resume smoke: resumed CSVs match reference =="
}

# Multi-process fabric smoke: crash the only worker of a 1-worker fabric
# after its first journaled unit (respawn budget 0, so the run strands and
# exits resumable), then resume with 2 workers while wedging the first of
# them (hang-after-unit=0, so the coordinator must expire its lease,
# SIGKILL it, and reassign the unit). The merged CSV must match a
# single-process --workers=0 reference byte for byte (DESIGN.md §13).
fabric_smoke() {
  local name="$1"
  local builddir="build-ci-${name}"
  local smokedir="${builddir}/fabric_smoke"
  local flags=(--n 5 --instances 4 --shots 64 --traj 4 --depths 1,2
               --rates 0.5,1.0)
  echo "== ${name}: fabric crash+stall resume smoke =="
  rm -rf "${smokedir}"
  mkdir -p "${smokedir}"
  (
    cd "${smokedir}"
    ../tools/qfab_sweepd "${flags[@]}" --workers 0 --csv ref >/dev/null
    set +e
    QFAB_FAULT='crash-after-unit=1,fault-worker=0' ../tools/qfab_sweepd \
      "${flags[@]}" --workers 1 --max-respawns 0 --lease 0.5 --dir fab \
      --csv fab >/dev/null 2>&1
    local crash_rc=$?
    set -e
    if [[ "${crash_rc}" -ne 75 ]]; then
      echo "fabric smoke: expected stranded-fabric exit 75, got ${crash_rc}" >&2
      exit 1
    fi
    # Resumed worker ids continue above the dead shard's, so the first new
    # worker is id 1 — the one the hang directive targets.
    QFAB_FAULT='hang-after-unit=0,fault-worker=1' ../tools/qfab_sweepd \
      "${flags[@]}" --workers 2 --resume --lease 0.5 --dir fab \
      --csv fab >/dev/null 2>&1
    cmp ref.csv fab.csv
  )
  echo "== ${name}: fabric smoke: merged CSV matches single-process reference =="
}

# Bounded batched-throughput smoke against the checked-in baseline: rerun
# the batch={4,8,16} rows of bench_batch — the end-to-end sweep points AND
# the "<case>_replay" lane-scaling rows — and fail if any (case, simd,
# precision, batch) row's inst_per_sec drops more than 30% below
# results/BENCH_batch.json. The 30% band plus median-of-reps timing
# absorbs normal scheduler noise; the baseline is host-specific, so set
# QFAB_SKIP_PERF=1 on other machines.
perf_smoke() {
  local name="$1"
  local builddir="build-ci-${name}"
  if [[ "${QFAB_SKIP_PERF:-0}" == "1" ]]; then
    echo "== ${name}: perf smoke skipped (QFAB_SKIP_PERF=1) =="
    return
  fi
  if ! command -v python3 >/dev/null 2>&1; then
    echo "== ${name}: perf smoke skipped (no python3) =="
    return
  fi
  echo "== ${name}: batched perf smoke (bounded) =="
  "./${builddir}/bench/bench_batch" --instances 8 --reps 3 --batches 4,8,16 \
    --out "${builddir}/BENCH_batch_smoke.json" >/dev/null
  python3 - "${builddir}/BENCH_batch_smoke.json" results/BENCH_batch.json <<'PY'
import json, sys
smoke = json.load(open(sys.argv[1]))
ref = json.load(open(sys.argv[2]))
key = lambda r: (r["name"], r["simd"], r["precision"], r["batch"])
ref_rows = {key(r): r for r in ref["cases"]}
worst = None
for row in smoke["cases"]:
    base = ref_rows.get(key(row))
    if base is None:
        continue
    ratio = row["inst_per_sec"] / base["inst_per_sec"]
    if worst is None or ratio < worst[0]:
        worst = (ratio, key(row))
    if ratio < 0.7:
        sys.exit("perf regression: %s: %.1f inst/sec vs baseline %.1f"
                 " (%.0f%% drop)" % (key(row), row["inst_per_sec"],
                                     base["inst_per_sec"], 100 * (1 - ratio)))
if worst is None:
    sys.exit("perf smoke: no overlapping rows with the baseline")
print("perf smoke: worst ratio %.2fx at %s" % worst)
PY
}

# Figure CSVs across kernel tiers: panelbench's own self-test, then every
# workload at tiny scale under the portable and AVX2 tables (the default
# dispatch also runs inside the self-test). The
# benchmark's correctness gate compares each run's default-seed CSVs byte
# for byte against panelbench/reference/ (the `portable` family under
# QFAB_SIMD=scalar, the shared `fma` family otherwise), so a kernel change
# that moves one CSV byte on any tier fails here.
panel_tiers_smoke() {
  if ! command -v python3 >/dev/null 2>&1; then
    echo "== panelbench tier smoke skipped (no python3) =="
    return
  fi
  echo "== panelbench: self-test =="
  python3 panelbench/run.py --self-test
  local simd workload
  for simd in scalar avx2; do
    for workload in qfa8_fig1 qfm4_fig2 qfa4_fabric; do
      echo "== panelbench: ${workload} tiny, QFAB_SIMD=${simd} =="
      QFAB_SIMD="${simd}" python3 panelbench/run.py --workload "${workload}" \
        --scale tiny --trace 0 --seconds 0 | tail -n 1
    done
  done
}

run_preset plain
panel_tiers_smoke
echo "== plain: bench_sweep smoke (bounded) =="
./build-ci-plain/bench/bench_sweep --instances 4 --traj 6 --shots 256 \
  --reps 1 --out build-ci-plain/BENCH_sweep_smoke.json
perf_smoke plain
crash_resume_smoke plain
fabric_smoke plain
QFAB_SIMD=scalar run_preset asan -DQFAB_SANITIZE=address
QFAB_SIMD=scalar crash_resume_smoke asan
QFAB_SIMD=scalar fabric_smoke asan
QFAB_SIMD=scalar run_preset tsan -DQFAB_SANITIZE=thread
# The fabric suite (worker fork, heartbeat threads, lease supervision) is
# part of tier-1 above; re-run it alone under TSan so a data race in the
# fabric fails loudly with its own name.
echo "== tsan: fabric suite =="
(cd build-ci-tsan && ctest -R '^test_fabric' --output-on-failure)

echo "CI: all presets green"
