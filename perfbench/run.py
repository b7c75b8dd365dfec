#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one
workload and prints every metric by name with its unit.

Run from the repository root:

  python3 perfbench/run.py --workload sim-fig11 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics; every other measurement is printed above that line. The traced
run also writes its spans to .bench_build/spans/. The exit status is 0
only when every correctness check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
PROCESSES = 4  # processes per untraced run


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark and the tint libraries it links."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no program sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ):
        # Build output goes to stderr: stdout carries only the report.
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=850)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark binary; returns (exit status, report or None)."""
    SPANS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(SPANS / f"{workload}-seed{seed}.tsv")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 1, None
    return proc.returncode, json.loads(lines[-1])


def run_untraced(workload, seed, seconds):
    """Splits an untraced run over PROCESSES processes on the same inputs
    and reports each metric's median over them.

    Host speed on a shared machine differs more from one process to the
    next than within one, so a median over processes is steadier than one
    long process. Returns (worst exit status, merged report or None).
    """
    runs = []
    for _ in range(PROCESSES):
        status, report = run_workload(workload, seed, seconds / PROCESSES, 0)
        if report is None:
            return status, None
        runs.append((status, report))
    first = runs[0][1]
    merged = {
        "correct": all(r["correct"] for _, r in runs),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "failures": [f for _, r in runs for f in r["failures"]],
        "context": dict(first["context"], processes=PROCESSES),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"]
                                              for _, r in runs),
                   "unit": m["unit"]}
            for name, m in first["metrics"].items()},
    }
    return max(status for status, _ in runs), merged


def gated_metrics(spec, report, trace):
    """The BENCHMARK.json metrics of this mode, taken from the report.

    Returns (metrics, problems): a metric that is missing or reported
    with another unit than BENCHMARK.json names is a problem.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    have = report["metrics"]
    out, problems = {}, []
    for m in wanted:
        got = have.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing from the report")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        else:
            out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out, problems


def print_report(report, gated, problems):
    for key, value in report["context"].items():
        print(f"context  {key:<32} {value}")
    for name, m in report["metrics"].items():
        mark = "*" if name in gated else " "
        print(f"metric {mark} {name:<32} {m['value']:.6g} {m['unit']}")
    for what in report["failures"] + problems:
        print(f"FAILED   {what}")
    print(f"checks   {'ok' if report['correct'] and not problems else 'FAILED'}"
          f" (* = gated in BENCHMARK.json)")


def selftest(spec):
    """Runs the helpers' self-test, then every workload in both modes on
    shrunken inputs, checking each BENCHMARK.json metric appears with its
    unit. Returns the number of failures."""
    failures = 0
    if subprocess.run([str(BUILD / "perfbench_selftest")]).returncode != 0:
        failures += 1
    for w in spec["workloads"]:
        for trace in (0, 1):
            status, report = run_workload(w["name"], 1, 1, trace, smoke=True)
            if report is None:
                log(f"FAIL: {w['name']} trace={trace} exited {status} "
                    "without a report")
                failures += 1
                continue
            _, problems = gated_metrics(spec, report, trace)
            problems += report["failures"]
            for p in problems:
                log(f"FAIL: {w['name']} trace={trace}: {p}")
            failures += bool(problems) or status != 0
            log(f"{w['name']} trace={trace}: "
                f"{'ok' if not problems and status == 0 else 'FAILED'}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        build()
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"cannot build the benchmark: {e}")
        return 2
    if args.selftest:
        failures = selftest(spec)
        log("self-test " + ("ok" if not failures else f"FAILED ({failures})"))
        return 1 if failures else 0
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2

    try:
        if args.trace:
            status, report = run_workload(args.workload, args.seed,
                                          args.seconds, 1)
        else:
            status, report = run_untraced(args.workload, args.seed,
                                          args.seconds)
    except subprocess.TimeoutExpired as e:
        log(f"{args.workload} timed out: {e}")
        return 1
    if report is None:
        log(f"{args.workload} exited {status} without a report")
        return status
    gated, problems = gated_metrics(spec, report, args.trace)
    print_report(report, gated, problems)
    correct = report["correct"] and not problems and status == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": gated}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
