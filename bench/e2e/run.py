#!/usr/bin/env python3
"""shadowbench front end: build in Release, run one workload, compare runs.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py compare PARENT.out... -- CHANGE.out...
  python3 bench/e2e/run.py smoke [--bin-dir DIR]

A run builds bench/e2e (shadowbench, plus shadowd and shadowsim as the root
project defines them) in Release into .bench_build/e2e, prints a provenance
line and then
shadowbench's own output, whose last line is the result object. Save each
run's stdout to a file to compare two commits later. See bench/e2e/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORK = ROOT / ".bench_build" / "work"
WORKLOADS = ("edit_text", "edit_binary", "edit_submit", "population")


def build():
    """Configure and build the Release binaries; returns their dir."""
    out = sys.stderr
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], stdout=out, check=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "shadowbench"], stdout=out, check=True)
    return BUILD


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout


def is_benchmark_output(path):
    """Paths a benchmark run may leave behind without dirtying the tree."""
    name = Path(path).name
    return (path.startswith(".bench_build/") or
            (name.startswith("BENCH_") and name.endswith(".json")))


def provenance(bin_dir):
    try:
        sha = git("rev-parse", "--short=12", "HEAD").strip()
        changed = [line[3:] for line in git("status", "--porcelain").splitlines()]
        dirty = any(not is_benchmark_output(p) for p in changed)
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", None
    build_type = "unknown"
    cache = Path(bin_dir) / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {"git_sha": sha, "dirty": dirty, "build_type": build_type,
            "nproc": len(os.sched_getaffinity(0)),
            "journal_fs": filesystem_of(WORK), "kernel": os.uname().release}


def filesystem_of(path):
    best, fs = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1]
            inside = str(path) == point or str(path).startswith(point.rstrip("/") + "/")
            if inside and len(point) > len(best):
                best, fs = point, fields[2]
    return fs


def shadowbench(bin_dir, workload, seed, seconds, trace, extra=(), spec=None,
                capture=False):
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(Path(bin_dir) / "shadowbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--bin-dir", str(bin_dir), "--work-dir", str(WORK),
           "--spec", str(spec or HERE / "population.scn"), *extra]
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--bin-dir", help="use these binaries instead of building")
    args = p.parse_args(argv)
    try:
        bin_dir = args.bin_dir or build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    print("provenance: " + json.dumps(provenance(bin_dir)), flush=True)
    return shadowbench(bin_dir, args.workload, args.seed, args.seconds,
                       args.trace).returncode


# ---- compare ---------------------------------------------------------------

def load_run(path):
    """One saved run: its record line and its final result object."""
    lines = Path(path).read_text().strip().splitlines()
    run = json.loads(lines[-1])
    for line in lines:
        if line.startswith("record: "):
            run.update(json.loads(line[len("record: "):]))
        elif line.startswith("provenance: "):
            run["provenance"] = json.loads(line[len("provenance: "):])
    return run


def verdict(parent, change, lower, bound):
    """The choosing-metrics rule: >= 10 pairs, the change wins 9 in 10 and
    the medians differ by more than the parent's quartile spread."""
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pm, cm = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [pm, pm, pm]
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    spread = (q[2] - q[0]) / pm if pm else 0.0
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            abs(cm - pm) > q[2] - q[0] and better(cm, pm)):
        v = "improved"
    elif spread > bound and not all(better(c, p) for c in change for p in parent):
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "no worse"
    return v, pm, q, cm, wins, losses, len(pairs)


def compare(argv):
    if "--" not in argv:
        print("usage: run.py compare PARENT.out... -- CHANGE.out...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent = [load_run(p) for p in argv[:cut]]
    change = [load_run(p) for p in argv[cut + 1:]]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in WORKLOADS:
        ps = [r for r in parent if r.get("workload") == workload and not r.get("trace")]
        cs = [r for r in change if r.get("workload") == workload and not r.get("trace")]
        if not ps or not cs:
            continue
        print(f"{workload}: {len(ps)} parent runs, {len(cs)} change runs")
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            v, pm, q, cm, wins, losses, n = verdict(pv, cv, m["better"] == "lower",
                                                    m["bound"])
            cq = statistics.quantiles(cv, n=4) if len(cv) > 1 else [cm] * 3
            print(f"  {name:<20} parent {pm:12.6g} [{q[0]:.6g}, {q[2]:.6g}]  "
                  f"change {cm:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']:<4} "
                  f"won {wins}/{n} lost {losses}  {v}")
            status |= v == "worse"
        for side, runs in (("parent", ps), ("change", cs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"  error_rate {side}: {failed}/{attempted} = "
                  f"{failed / attempted:.6g}")
    return status


# ---- smoke -----------------------------------------------------------------

def smoke(argv):
    """Every workload for a second, untraced and traced, with all checks on;
    every metric BENCHMARK.json names must be present with its unit; and a
    corrupted expected output must fail the run."""
    p = argparse.ArgumentParser(prog="run.py smoke")
    p.add_argument("--bin-dir")
    args = p.parse_args(argv)
    bin_dir = args.bin_dir or build()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = shadowbench(bin_dir, workload, 7, 1, trace,
                               spec=HERE / "smoke.scn", capture=True)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or "
                                    f"not in {m['unit']}")
            print(f"smoke: {label} ok", flush=True)
    proc = shadowbench(bin_dir, "edit_submit", 7, 1, 0, ("--corrupt-expected",),
                       capture=True)
    if proc.returncode == 0:
        problems.append("a corrupted expected output did not fail the run")
    for problem in problems:
        print("smoke: FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["smoke"]:
        return smoke(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
