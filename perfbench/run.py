#!/usr/bin/env python3
"""Repo benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
reuse that build. Stdout is JSON lines: provenance, notes and the workload's
own figures, then, as the last line, the result object whose metrics are
exactly the end-to-end set (--trace 0) or the per-layer set (--trace 1)
that BENCHMARK.json declares. Exit status is 0 only when every operation
passed its correctness checks.

--trace 1 first runs the untraced binary on the same workload and seed,
then the traced one, and reports the difference in the workload's headline
(work_per_s) as the tracing overhead.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Per-invocation wall budget; a run must finish within 180 s.
DEADLINE_S = 160.0
WORKLOADS = ("paper-mc", "real-crypto", "stream-replay", "mesh")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def declared(benchmark, trace):
    """{name: unit} of the metric set a run must emit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def validate(result, expected):
    """Problems with a result object, as a list of strings (empty = valid)."""
    problems = []
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return [f"result keys must be exactly {sorted(keys)}"]
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            problems.append(f"{k} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append(f"missing metrics: {', '.join(missing)}")
    if extra:
        problems.append(f"undeclared metrics: {', '.join(extra)}")
    for name, m in metrics.items():
        if name not in expected:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: needs exactly value and unit")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                not math.isfinite(v):
            problems.append(f"{name}: value is not a finite number")
        elif v == 0:
            problems.append(f"{name}: value is 0")
        if m["unit"] != expected[name]:
            problems.append(
                f"{name}: unit {m['unit']!r}, declared {expected[name]!r}")
    return problems


def jobs():
    """Fixed worker count: 4, or fewer on a smaller host; never 0."""
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no program sources (src/CMakeLists.txt) in this directory")
        return False
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    with open(cache) as f:
        for line in f:
            if (line.startswith("PAAI_SANITIZE") and
                    line.strip().split("=", 1)[1]) or "-fsanitize" in line:
                log("refusing to benchmark a sanitizer build")
                return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(jobs()), "--target",
           "paai_perfbench", "paai_perfbench_traced"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def run_binary(name, args, deadline):
    """Runs a benchmark binary; returns (exit code, note lines, result)."""
    scratch = os.path.join(BUILD_DIR, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, name)] + args + [
        "--jobs", str(jobs()), "--scratch-dir", scratch]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left to run {name}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        raise TimeoutError(f"{name} ran past the deadline")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or "metrics" not in result:
        return proc.returncode, lines, None
    notes = lines[:-1]
    return proc.returncode, notes, result


def headline(notes):
    for line in notes:
        note = json.loads(line).get("note")
        if note and "work_per_s" in note:
            return note["work_per_s"]
    return None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile("BENCHMARK.json"):
        log("run from the checkout root (BENCHMARK.json not found)")
        return 2
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    if not build():
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    attempted = failed = 0
    try:
        if args.trace:
            code, notes, plain = run_binary("paai_perfbench", common,
                                            deadline)
            if plain is None:
                log(f"untraced run printed no result (exit {code})")
                return 1
            attempted += plain["attempted"]
            failed += plain["failed"]
            untraced = headline(notes)
            traces = os.path.join(BUILD_DIR, "traces")
            os.makedirs(traces, exist_ok=True)
            code, notes, result = run_binary(
                "paai_perfbench_traced",
                common + ["--trace-out",
                          os.path.join(traces, f"{args.workload}.tsv")],
                deadline)
            traced = headline(notes)
            if untraced and traced:
                notes.append(json.dumps({"note": {
                    "tracing_overhead": {
                        "workload": args.workload,
                        "metric": "work_per_s",
                        "untraced": untraced,
                        "traced": traced,
                        "overhead_pct": 100.0 * (untraced - traced) / untraced,
                    }}}))
        else:
            code, notes, result = run_binary("paai_perfbench", common,
                                             deadline)
    except TimeoutError as e:
        log(str(e))
        return 1
    if result is None:
        log(f"benchmark binary printed no result (exit {code})")
        return 1

    problems = validate(result, declared(benchmark, args.trace))
    for p in problems:
        log(p)
    if problems:
        return 1
    result["attempted"] += attempted
    result["failed"] += failed
    result["correct"] = bool(result["correct"]) and result["failed"] == 0 \
        and code == 0
    for line in notes:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
