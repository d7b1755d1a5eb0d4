#!/usr/bin/env python3
"""Build and run the switch benchmark (perfbench).

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload gateway --seed 1 --seconds 30 --trace 0

Every workload listed in BENCHMARK.json, end-to-end metrics (add --trace 1
for the per-layer run):

    python3 perfbench/run.py

Other modes:

    python3 perfbench/run.py --self-test          # the benchmark checks itself
    python3 perfbench/run.py --spread 10 --workload gateway   # run-to-run spread

The benchmark is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; the
exit code is non-zero when a correctness check failed, when the printed metric
set does not match BENCHMARK.json, or when the benchmark cannot be built.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"the switch sources are missing under {ROOT}/src; cannot build")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            try:
                p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step {' '.join(cmd)} failed: {e}")
                return None
            if p.returncode != 0:
                sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
                log(f"build step {' '.join(cmd)} exited {p.returncode}")
                return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def src_hash():
    """Digest of the sources the benchmark measures (checkouts need not be git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
                           check=False)
        return p.stdout.decode().strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, workload, seed, seconds, trace, fault="none", relay=True):
    """Runs one benchmark invocation; returns (exit code, result dict or None, stdout)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--fault", fault, "--out", out_dir,
           "--git-sha", git_sha(), "--src-hash", src_hash()]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        return 124, None, ""
    text = p.stdout.decode(errors="replace")
    sys.stderr.write(p.stderr.decode(errors="replace"))
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if relay:
        for ln in lines[:-1]:
            print(ln)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, result, text


def check_result(result, spec, trace):
    """Problems with a result line, against the contract and BENCHMARK.json."""
    if not isinstance(result, dict):
        return ["the last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = expected_metrics(spec, trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
    if not isinstance(result.get("attempted"), int) or result.get("attempted", 0) < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    return problems


def one_run(args, spec, binary):
    code, result, _ = run_binary(binary, args.workload, args.seed, args.seconds, args.trace,
                                 args.fault)
    problems = check_result(result, spec, args.trace)
    for problem in problems:
        log(problem)
    if result is not None:
        print(json.dumps(result))
    if code != 0 or problems or not result or not result.get("correct"):
        return 1
    return 0


def all_runs(args, spec, binary):
    status = 0
    for w in spec["workloads"]:
        print(f"== {w['name']}: {w['why']}")
        code, result, _ = run_binary(binary, w["name"], args.seed, args.seconds, args.trace,
                                     args.fault)
        problems = check_result(result, spec, args.trace)
        for problem in problems:
            log(f"{w['name']}: {problem}")
        ok = code == 0 and not problems and result and result.get("correct")
        print(f"== {w['name']}: {'ok' if ok else 'FAILED'}")
        status |= 0 if ok else 1
    return status


def spread(args, spec, binary):
    """Runs seeds 1..N and prints each metric's quartile spread over its median."""
    values = {}
    for seed in range(1, args.spread + 1):
        code, result, text = run_binary(binary, args.workload, seed, args.seconds, args.trace,
                                        relay=False)
        if code != 0 or not result or not result.get("correct"):
            for ln in text.splitlines():
                if ln.startswith("# FAIL"):
                    log(ln)
            log(f"seed {seed} failed (exit {code})")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        sp = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.4f} {bounds.get(name)}")
    return 0


def self_test(spec, binary):
    """The benchmark's own checks: planted faults trip the gate, printed metric
    names match BENCHMARK.json, and two seeds give different inputs but the same
    metric set."""
    failures = []
    wl = spec["workloads"][0]["name"]
    for fault in ("verdict", "withhold"):
        code, result, _ = run_binary(binary, wl, 1, 2, False, fault, relay=False)
        if code == 0 or not result or result.get("correct") is not False:
            failures.append(f"planted fault '{fault}' did not trip the checks (exit {code})")
        else:
            print(f"self-test: planted fault '{fault}' caught (exit {code}, "
                  f"failed={result.get('failed')})")
    fingerprints = {}
    names = {}
    for seed in (1, 2):
        code, result, text = run_binary(binary, wl, seed, 2, False, relay=False)
        problems = check_result(result, spec, False)
        if code != 0 or problems:
            failures.append(f"seed {seed}: exit {code}, {problems}")
            continue
        fingerprints[seed] = [ln for ln in text.splitlines() if ln.startswith("# inputs")]
        names[seed] = sorted(result["metrics"])
    if len(fingerprints) == 2:
        if fingerprints[1] == fingerprints[2]:
            failures.append("seeds 1 and 2 produced identical inputs")
        if names[1] != names[2]:
            failures.append("seeds 1 and 2 produced different metric sets")
        print("self-test: seeds 1 and 2 give different inputs and the same metric set")
    for w in spec["workloads"]:
        code, result, _ = run_binary(binary, w["name"], 1, 2, True, relay=False)
        problems = check_result(result, spec, True)
        if code != 0 or problems:
            failures.append(f"traced {w['name']}: exit {code}, {problems}")
        else:
            print(f"self-test: traced {w['name']} prints exactly the per-layer metric set")
    for f in failures:
        log(f"self-test FAILED: {f}")
    print("self-test: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("none", "verdict", "withhold"), default="none")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--spread", type=int, default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    t0 = time.time()
    binary = build()
    if binary is None:
        return 2
    log(f"build ready in {time.time() - t0:.1f} s")
    if args.self_test:
        return self_test(spec, binary)
    if args.spread:
        if not args.workload:
            log("--spread needs --workload")
            return 2
        return spread(args, spec, binary)
    if args.workload:
        return one_run(args, spec, binary)
    return all_runs(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())
