"""Before-and-after figures for a BENCH_<topic>.json file.

    python3 tools/bench_pairs.py --against REV --out BENCH_topic.json
        [--pairs 10] [--seconds 20] [--workloads replication dense_n200]
        [--claim WORKLOAD:METRIC] [--trace-pairs K] [--build-memory N ...]
        [--topic TEXT]

The parent is REV, extracted with `git archive` into a temporary directory;
the change is this working tree. Each pair runs `perfbench/run.py
--workload W --seconds S` once on each side, in that side's own tree,
alternating which side goes first (odd pairs the parent). For every
workload and end-to-end metric of BENCHMARK.json the file holds both
sides' medians, quartiles (numpy's linear percentiles), extremes and runs,
the pairs the change won (ties count for neither), the parent's
interquartile range, and, for the --claim, whether it is met: the change
wins at least nine tenths of the pairs and the medians differ, in the
metric's better direction, by more than the parent's interquartile range.

--trace-pairs K adds K alternating pairs of `--trace 1` runs per workload,
with both sides' medians of every per-layer metric. --build-memory N ...
adds, per N and side, the figures of a geometric network build
(radius 1.5 sqrt(log N / N), seed 0) in fresh processes: ru_maxrss after
the imports and at the end of the build, and the build's wall time, from
one untraced process per run (--build-runs of them), and tracemalloc's
peaks of the graph step and of the network step, with what is held after
it, from one traced process. The figures at N=4000 need about 1 GB.

Writes nothing under perfbench/ but the benchmark's own perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_ENV  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from same_outputs import extract  # noqa: E402  (this file's directory is on sys.path)

SIDES = ("parent", "change")

# One build in a fresh process; prints one JSON line. argv: N, traced (0|1).
BUILD_PROBE = r"""
import json, math, resource, sys, time, tracemalloc
from dalopt.network import build_geometric_graph, build_network

def rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

n, traced = int(sys.argv[1]), sys.argv[2] == "1"
build_network(build_geometric_graph(2)[0])  # lazy imports and first-call caches
radius = 1.5 * math.sqrt(math.log(n) / n)
if traced:
    tracemalloc.start()
    graph, attempts = build_geometric_graph(n, radius=radius, rng_seed=0)
    graph_peak = tracemalloc.get_traced_memory()[1]
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    net = build_network(graph)
    held_after, network_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    out = {"attempts": attempts, "geometric_builder_peak_mb": graph_peak / 1e6,
           "network_step_peak_mb": (network_peak - held) / 1e6,
           "held_after_build_mb": held_after / 1e6}
else:
    after_import = rss_mib()
    start = time.perf_counter()
    net = build_network(build_geometric_graph(n, radius=radius, rng_seed=0)[0])
    seconds = time.perf_counter() - start
    out = {"rss_after_import_mib": after_import, "peak_rss_mib": rss_mib(),
           "peak_rss_above_import_mib": rss_mib() - after_import, "build_s": seconds}
print(json.dumps(out))
"""


class BenchPairsError(RuntimeError):
    """A benchmark run or a probe failed."""


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def parent_tree(rev, into):
    """REV's files under into/parent, and REV's full sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    extract(sha, Path(into) / "parent")
    return Path(into) / "parent", sha


def bench_run(tree, workload, seconds, trace):
    """One perfbench run in tree: its result line as a dict."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           f"--seconds={seconds}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchPairsError(f"{' '.join(cmd)} failed (exit {proc.returncode}):\n"
                              f"{proc.stderr}") from exc
    if proc.returncode != 0:
        raise BenchPairsError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return result


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def compare(parent, change, better):
    """Both sides' spreads and runs, the pairs the change won and the
    parent's interquartile range; runs are paired by index."""
    sign = 1.0 if better == "lower" else -1.0
    out = {"parent": spread(parent), "change": spread(change)}
    out["ratio_of_medians"] = (out["change"]["median"] / out["parent"]["median"]
                               if out["parent"]["median"] else None)
    out["change_better_pairs"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out["pairs"] = len(parent)
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["runs"] = {"parent": parent, "change": change}
    return out


def claim_met(entry, better):
    """The gain rule: nine tenths of the pairs won, and the medians apart,
    in the better direction, by more than the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (entry["parent"]["median"] - entry["change"]["median"])
    return (entry["change_better_pairs"] >= math.ceil(0.9 * entry["pairs"])
            and gain > entry["parent_iqr"])


def alternate(pairs, trees, run):
    """run(tree) on each side's tree for each pair, odd pairs parent first;
    returns the results per side, in pair order."""
    results = {side: [] for side in SIDES}
    for k in range(1, pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        for side in order:
            results[side].append(run(trees[side]))
            print(f"pair {k}/{pairs} {side} done", file=sys.stderr, flush=True)
    return results


def end_to_end(trees, workload, args, metrics):
    results = alternate(args.pairs, trees,
                        lambda tree: bench_run(tree, workload, args.seconds, 0))
    summary = {}
    for name, better in metrics.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        summary[name] = compare(runs["parent"], runs["change"], better)
    for side in SIDES:
        summary.setdefault("correct", {})[side] = all(r["correct"] for r in results[side])
        summary.setdefault("failed", {})[side] = sum(r["failed"] for r in results[side])
        summary.setdefault("attempted", {})[side] = sum(r["attempted"] for r in results[side])
    return summary


def per_layer(trees, workload, args):
    results = alternate(args.trace_pairs, trees,
                        lambda tree: bench_run(tree, workload, args.seconds, 1))
    names = sorted(set(results["parent"][0]["metrics"]) | set(results["change"][0]["metrics"]))
    out = {}
    for name in names:
        runs = {side: [r["metrics"].get(name, {}).get("value") for r in results[side]]
                for side in SIDES}
        out[name] = {side: {"median": statistics.median(v) if None not in v else None,
                            "runs": v} for side, v in runs.items()}
    return out


def build_probe(tree, n, traced):
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", BUILD_PROBE, str(n), "1" if traced else "0"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchPairsError(f"build probe at N={n} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build_memory(trees, args):
    by_n = {}
    for n in args.build_memory:
        untraced = alternate(args.build_runs, trees, lambda tree: build_probe(tree, n, False))
        figures = {}
        for side in SIDES:
            traced = build_probe(trees[side], n, True)
            runs = untraced[side]
            figures[side] = dict(traced, **{key: statistics.median(r[key] for r in runs)
                                            for key in runs[0]}, runs=runs)
        by_n[str(n)] = figures
    return {
        "protocol": "per N and side: one fresh process per run, after the imports and one "
                    "warm-up build at N=2, build_geometric_graph(N, radius=1.5*sqrt(log N / N), "
                    "rng_seed=0) and then build_network of it; ru_maxrss in MiB after the "
                    f"imports and at the end, and the build's wall time, medians of "
                    f"{args.build_runs} untraced processes alternating sides (runs listed); "
                    "tracemalloc figures (MB = 1e6 bytes) from one traced process: the "
                    "geometric builder's peak, the network step's peak above what was held "
                    "before it, and what is held with the graph and the network alive",
        "by_n": by_n,
    }


def host():
    return {"platform": platform.platform(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1}


def measure(doc, trees, args, metrics, claim):
    """Fill doc's summary, claim, per_layer and build_memory."""
    for workload in args.workloads:
        doc["summary"][workload] = end_to_end(trees, workload, args, metrics)
    if claim:
        entry = doc["summary"][claim[0]][claim[1]]
        doc["claim"] = {"workload": claim[0], "metric": claim[1],
                        "met": claim_met(entry, metrics[claim[1]]),
                        "change_better_pairs": entry["change_better_pairs"],
                        "pairs": entry["pairs"],
                        "median_parent": entry["parent"]["median"],
                        "median_change": entry["change"]["median"],
                        "parent_iqr": entry["parent_iqr"]}
    if args.trace_pairs:
        doc["per_layer"] = {w: per_layer(trees, w, args) for w in args.workloads}
    if args.build_memory:
        doc["build_memory"] = build_memory(trees, args)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, help="the parent revision")
    ap.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=["replication", "dense_n200"])
    ap.add_argument("--claim", help="WORKLOAD:METRIC, the one claimed gain")
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument("--build-memory", type=int, nargs="*", default=[], metavar="N")
    ap.add_argument("--build-runs", type=int, default=3)
    ap.add_argument("--topic", default="")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    if claim and (claim[0] not in args.workloads or claim[1] not in metrics):
        ap.error(f"--claim {args.claim}: not a workload run here and an end-to-end metric")
    if args.pairs < 1 or args.trace_pairs < 0 or args.build_runs < 1:
        ap.error("--pairs and --build-runs must be >= 1, --trace-pairs >= 0")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        try:
            parent, sha = parent_tree(args.against, tmp)
        except subprocess.CalledProcessError as exc:
            ap.error(f"--against {args.against}: {exc.stderr.strip()}")
        trees = {"parent": parent, "change": ROOT}
        doc = {
            "topic": args.topic,
            "command": f"python3 perfbench/run.py --workload W --seconds {args.seconds:g}",
            "protocol": f"{args.pairs} pairs per workload, parent and change alternating which "
                        "runs first (odd pairs parent first); each value is the run's median "
                        "(peak_rss_mb: the worker's peak after its first run); quartiles are "
                        "numpy's linear percentiles; the parent is a git-archive tree of "
                        "parent_sha, the change the working tree; "
                        f"claimed gain: {args.claim or 'none'}",
            "tool": "python3 tools/bench_pairs.py " + " ".join(
                shlex.quote(args.out.name if a == str(args.out) else a)
                for a in (sys.argv[1:] if argv is None else argv)),
            "host": host(),
            "parent_sha": sha,
            "change_sha": git("rev-parse", "HEAD") + (" plus uncommitted changes" if dirty else ""),
            "summary": {},
        }
        started = time.monotonic()
        try:
            measure(doc, trees, args, metrics, claim)
        except BenchPairsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        doc["duration_s"] = time.monotonic() - started
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if claim:
        print(f"claim {args.claim}: {'met' if doc['claim']['met'] else 'not met'} "
              f"({doc['claim']['change_better_pairs']} of {doc['claim']['pairs']} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
