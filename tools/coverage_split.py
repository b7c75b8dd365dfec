#!/usr/bin/env python3
"""Splits the executable lines of src/*.cpp into production and test-only.

Builds the tree with the `coverage` configure preset (gcov line counts at
-O1) and perfbench in its own build tree with the same flags, then runs
two phases and reads the gcov counts after each:

  production  the 5 examples, the 8 paper benches at TINT_SCALE=0.05
              TINT_REPS=1, perfbench's workloads with --smoke at --trace 0
              and --trace 1, and perfbench_selftest
  tier-1      ctest over the whole suite

A line is "production" when a production run executed it, "test-only"
when only tier-1 did, and "neither" when no run did. The report lists
every src/*.cpp file, then every function with at least MIN_REGION
test-only lines together with its label from LABELS below: code that is
kept on purpose although only tests reach it (robustness paths), or
code waiting for its deletion. An unlabelled region is a candidate for a
production caller or for deletion.

Run from the repository root:

  python3 tools/coverage_split.py                  # build, run, report
  python3 tools/coverage_split.py --markdown       # report as Markdown
  python3 tools/coverage_split.py --no-run         # re-render the last run

The counts of the last run are kept in <build-dir>/coverage_split.json.
Exits non-zero when a build step or a run fails, or a test fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESET = "coverage"
EXAMPLES = ["quickstart", "lbm_stencil", "mixed_tenants", "policy_explorer",
            "huge_pages"]
PAPER_BENCHES = ["fig10_synthetic", "fig11_runtime", "fig12_idle",
                 "fig13_thread_runtime", "fig14_thread_idle", "latency_map",
                 "alloc_overhead", "ablation_coloring"]
BENCH_ENV = {"TINT_SCALE": "0.05", "TINT_REPS": "1"}
RUN_TIMEOUT_S = 1800
MIN_REGION = 10  # test-only lines that make a function a region
JOBS = max(1, min(4, len(os.sched_getaffinity(0))))

# Test-only regions kept on purpose, or waiting for their deletion.
# (file regex, function regex, kind, reason); the first match wins. An
# entry is added when a run shows an unlabelled region it names.
ROBUST = "robustness"
PENDING = "pending removal"
LABELS = [
    (r"runtime/offload\.cpp|os/offload_ring\.cpp", r".",
     PENDING, "offload engine; deleting it changes the benchmark, "
     "since page-churn-offload drives it"),
    (r"sim/dram_fault\.cpp", r".",
     ROBUST, "RAS: the DRAM fault model the RAS suite injects"),
    (r"os/kernel\.cpp", r"poison|scrub|hard_offline|migrate|screen",
     ROBUST, "RAS: poisoning, offlining, migration, scrubbing"),
    (r"os/color_lists\.cpp|os/page_magazine\.cpp", r"::remove$",
     ROBUST, "RAS: poisoning pulls a free frame out of its pool"),
    (r"os/kernel\.cpp", r"::touch$",
     ROBUST, "RAS on touch (ECC corrected / uncorrected) and the "
     "ladder's failure return"),
    (r"os/kernel\.cpp|os/color_lists\.cpp", r"online|drain_bank_range",
     ROBUST, "hotplug: node offline drains and re-online"),
    (r"os/kernel\.cpp", r"::alloc_pages$|fault_huge",
     ROBUST, "degradation ladder: pool exhaustion, offline-node skips, "
     "scavenging (failpoints, pressure soaks)"),
    (r"runtime/color_guard\.cpp", r"rollback|advance",
     ROBUST, "guard rollback and failed-migration backoff"),
    (r"runtime/color_guard\.cpp", r"heal_locked",
     ROBUST, "guard: tenants that exit mid-heal, cooldown damping"),
    (r"runtime/churn\.cpp", r"::worker$",
     PENDING, "Poisson arrivals and log-normal lifetimes, unless the "
     "colo-over workload (ROADMAP item 5) adopts them"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, **kw):
    log("+ " + " ".join(str(c) for c in cmd))
    return subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S,
                          **kw).returncode


def preset_cache_vars():
    with open(ROOT / "CMakePresets.json") as f:
        presets = json.load(f)["configurePresets"]
    return next(p for p in presets if p["name"] == PRESET)["cacheVariables"]


def build(build_dir):
    """Configures and builds the tree and perfbench; returns failures."""
    bench_dir = build_dir / "perfbench"
    defs = [f"-D{k}={v}" for k, v in preset_cache_vars().items()]
    steps = [
        ["cmake", "--preset", PRESET, "-B", str(build_dir)],
        ["cmake", "--build", str(build_dir), "-j", str(JOBS)],
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bench_dir)] + defs,
        ["cmake", "--build", str(bench_dir), "-j", str(JOBS)],
    ]
    for cmd in steps:
        if run(cmd, cwd=ROOT) != 0:
            return 1
    return 0


def clear_counts(build_dir):
    for gcda in build_dir.rglob("*.gcda"):
        gcda.unlink()


def production_runs(build_dir):
    """Runs the production set; returns the number of failed runs."""
    env = dict(os.environ, **BENCH_ENV)
    bench = build_dir / "perfbench"
    cmds = [[build_dir / "examples" / name] for name in EXAMPLES]
    cmds += [[build_dir / "bench" / name] for name in PAPER_BENCHES]
    with open(ROOT / "BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    spans = build_dir / "spans"
    spans.mkdir(exist_ok=True)
    for w in workloads:
        for trace in (0, 1):
            cmd = [bench / "perfbench", "--workload", w, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            if trace:
                cmd += ["--spans", spans / f"{w}.tsv"]
            cmds.append(cmd)
    cmds.append([bench / "perfbench_selftest"])
    failed = 0
    for cmd in cmds:
        if run(cmd, cwd=build_dir, env=env,
               stdin=subprocess.DEVNULL) != 0:
            log(f"FAILED: {cmd[0].name}")
            failed += 1
    return failed


def tier1(build_dir):
    return run(["ctest", "--test-dir", str(build_dir), "-j", str(JOBS)])


def short_name(demangled):
    """'tint::os::Kernel::scrub(unsigned int)' -> 'Kernel::scrub'."""
    depth, out = 0, []
    for ch in demangled:  # drop template arguments
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    name = re.sub(r"\[abi:\w+\]", "", "".join(out).split("(")[0])
    return re.sub(r"^tint::([a-z_]+::)?", "", name)  # keep class names


def read_counts(build_dir):
    """Per src/*.cpp file: {line: count} summed over every object of both
    build trees, and [start, end, name] of each function."""
    lines, funcs = {}, {}
    src = (ROOT / "src").resolve()
    gcnos = sorted(str(p) for p in build_dir.rglob("*.gcno"))
    for i in range(0, len(gcnos), 64):
        out = subprocess.run(["gcov", "-j", "-t", "-m"] + gcnos[i:i + 64],
                             cwd=build_dir, capture_output=True, text=True,
                             check=True).stdout
        for doc in out.splitlines():
            if not doc.startswith("{"):
                continue
            for f in json.loads(doc)["files"]:
                path = Path(f["file"])
                if not path.is_absolute():
                    path = build_dir / path
                path = path.resolve()
                if path.suffix != ".cpp" or src not in path.parents:
                    continue
                rel = str(path.relative_to(src))
                counts = lines.setdefault(rel, {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    counts[n] = counts.get(n, 0) + ln["count"]
                known = funcs.setdefault(rel, {})
                for fn in f["functions"]:
                    known[(fn["start_line"], fn["end_line"])] = short_name(
                        fn["demangled_name"])
    return ({f: {str(n): c for n, c in ls.items()} for f, ls in lines.items()},
            {f: [[s, e, n] for (s, e), n in fs.items()]
             for f, fs in funcs.items()})


def label_of(path, func):
    for file_re, func_re, kind, why in LABELS:
        if re.search(file_re, path) and re.search(func_re, func, re.I):
            return f"{kind}: {why}"
    return "UNLABELLED"


def split(data):
    """Returns (per-file rows, regions) from the saved counts."""
    prod, test, funcs = data["production"], data["tier1"], data["functions"]
    rows, regions = [], []
    for path in sorted(set(prod) | set(test)):
        p, t = prod.get(path, {}), test.get(path, {})
        exe = set(p) | set(t)
        hit_p = {n for n in exe if p.get(n, 0) > 0}
        only_t = {n for n in exe - hit_p if t.get(n, 0) > 0}
        rows.append((path, len(exe), len(hit_p), len(only_t),
                     len(exe) - len(hit_p) - len(only_t)))
        # Attribute each test-only line to the outermost function holding
        # it (a lambda's lines count for the function that declares it).
        per_func = {}
        for n in map(int, only_t):
            holders = [f for f in funcs.get(path, []) if f[0] <= n <= f[1]]
            name = (max(holders, key=lambda f: f[1] - f[0])[2]
                    if holders else "(file scope)")
            per_func[name] = per_func.get(name, 0) + 1
        for name, count in per_func.items():
            regions.append((path, name, count))
    return rows, regions


def report(data, markdown):
    rows, regions = split(data)
    exe = sum(r[1] for r in rows)
    only = sum(r[3] for r in rows)
    big = sorted((r for r in regions if r[2] >= MIN_REGION),
                 key=lambda r: (-r[2], r[0], r[1]))
    unlabelled = sum(label_of(p, f) == "UNLABELLED" for p, f, _ in big)
    share = 100.0 * only / exe if exe else 0.0
    if markdown:
        print("| file | executable | production | test-only | neither |")
        print("|---|---:|---:|---:|---:|")
        for r in sorted(rows, key=lambda r: (-r[3], r[0])):
            print(f"| `{r[0]}` | {r[1]} | {r[2]} | {r[3]} | {r[4]} |")
        print(f"| **total** | {exe} | {sum(r[2] for r in rows)} | {only} "
              f"| {sum(r[4] for r in rows)} |")
        print()
        print(f"Test-only: {only} of {exe} executable lines ({share:.1f}%).")
        print()
        print("| file | function | test-only lines | label |")
        print("|---|---|---:|---|")
        for p, f, n in big:
            print(f"| `{p}` | `{f}` | {n} | {label_of(p, f)} |")
    else:
        print(f"{'file':<32} {'exec':>6} {'prod':>6} {'test':>6} {'none':>6}")
        for r in sorted(rows, key=lambda r: (-r[3], r[0])):
            print(f"{r[0]:<32} {r[1]:>6} {r[2]:>6} {r[3]:>6} {r[4]:>6}")
        print(f"{'total':<32} {exe:>6} {sum(r[2] for r in rows):>6} "
              f"{only:>6} {sum(r[4] for r in rows):>6}")
        print(f"test-only: {only} of {exe} executable lines ({share:.1f}%)")
        print()
        print(f"functions with >= {MIN_REGION} test-only lines:")
        for p, f, n in big:
            print(f"{n:>5}  {p}  {f}  [{label_of(p, f)}]")
    print(f"{unlabelled} unlabelled region(s)", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build-coverage")
    ap.add_argument("--markdown", action="store_true")
    ap.add_argument("--no-run", action="store_true",
                    help="re-render the counts saved by the last run")
    args = ap.parse_args()
    build_dir = args.build_dir.resolve()
    saved = build_dir / "coverage_split.json"
    if args.no_run:
        with open(saved) as f:
            report(json.load(f), args.markdown)
        return 0
    if shutil.which("gcov") is None:
        log("gcov not found")
        return 2
    failures = build(build_dir)
    if failures:
        return 1
    clear_counts(build_dir)
    failures += production_runs(build_dir)
    prod, funcs = read_counts(build_dir)
    clear_counts(build_dir)
    if tier1(build_dir) != 0:
        log("FAILED: tier-1")
        failures += 1
    test, more = read_counts(build_dir)
    for path, fs in more.items():
        funcs.setdefault(path, fs)
    data = {"production": prod, "tier1": test, "functions": funcs}
    with open(saved, "w") as f:
        json.dump(data, f)
    report(data, args.markdown)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
