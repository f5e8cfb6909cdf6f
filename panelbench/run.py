#!/usr/bin/env python3
"""Figure-panel benchmark runner.

Builds the benchmark (panelbench/CMakeLists.txt, which compiles the qfab
libraries from ../src plus the panel_bench binary) into .bench_build/ at
the checkout root, then runs panel_bench from the checkout root:

    python3 panelbench/run.py --workload qfa8_fig1 --seed 211209349 \
        --seconds 24 --trace 0

panel_bench's last stdout line is the result object. Extra flags (--scale,
--corrupt-csv, --write-reference) pass through to it.

    python3 panelbench/run.py --self-test

runs the benchmark's own checks at tiny scale: every metric BENCHMARK.json
names is emitted with its unit, the exact-repeat counters repeat across
two runs at one seed, and a deliberately corrupted CSV trips the
correctness gate.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCH_TIMEOUT_S = 175

EXACT_REPEAT = [
    "transpile.gates",
    "sim.plan_ops",
    "noise.replay_lanes",
    "noise.dedup_ratio",
    "exp.units",
    "exp.journal_bytes_per_unit",
]


def log(msg):
    print("[panelbench] " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build panel_bench. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no qfab source tree at %s/src; nothing to build" % ROOT)
        sys.exit(2)
    top = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(top, "panelbench")
    tmp = os.path.join(top, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", build_dir, "--target", "panel_bench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        log("build failed")
        sys.exit(2)
    return os.path.join(build_dir, "panel_bench")


def bench_cmd(binary, args):
    return [binary, "--bench-dir", BENCH_DIR,
            "--work-dir", os.path.join(ROOT, ".bench_work")] + args


def run_bench(binary, args):
    """Run panel_bench, returning (exit code, stdout lines)."""
    proc = subprocess.run(bench_cmd(binary, args), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=BENCH_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        base = ["--workload", w, "--scale", "tiny", "--seconds", "0"]
        for trace in ("0", "1"):
            results = []
            for attempt in range(2 if trace == "1" else 1):
                code, lines = run_bench(binary, base + ["--trace", trace])
                res = result_of(lines)
                if code != 0 or res is None or not res["correct"]:
                    problems.append("%s trace %s: exit %d, result %s"
                                    % (w, trace, code, res))
                    continue
                results.append(res)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != expect[trace]:
                    problems.append("%s trace %s: metrics/units differ from "
                                    "BENCHMARK.json: missing %s, extra %s, "
                                    "unit mismatches %s" % (
                                        w, trace,
                                        sorted(set(expect[trace]) - set(got)),
                                        sorted(set(got) - set(expect[trace])),
                                        sorted(k for k in got
                                               if k in expect[trace]
                                               and got[k] != expect[trace][k])))
            if len(results) == 2:
                for name in EXACT_REPEAT:
                    a = results[0]["metrics"][name]["value"]
                    b = results[1]["metrics"][name]["value"]
                    if a != b:
                        problems.append("%s: %s differs across runs at one "
                                        "seed (%r vs %r)" % (w, name, a, b))
        code, lines = run_bench(binary, base + ["--trace", "0",
                                                 "--corrupt-csv"])
        res = result_of(lines)
        if code == 0 or res is None or res["correct"] or \
                res["failed"] != res["attempted"]:
            problems.append("%s: corrupted CSV did not trip the gate "
                            "(exit %d, result %s)" % (w, code, res))
    for p in problems:
        log("self-test FAILED: " + p)
    if not problems:
        log("self-test passed")
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        sys.exit(self_test(binary))
    try:
        proc = subprocess.run(bench_cmd(binary, args), cwd=ROOT,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("panel_bench exceeded %d s" % BENCH_TIMEOUT_S)
        sys.exit(3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
