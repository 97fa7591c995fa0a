"""The dalopt benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a checkout that holds `src/dalopt`. One fresh worker
process (worker.py), single-threaded with BLAS pinned to one thread, takes
every sample of a run: it calls `dalopt run` on the workload's config
in-process, then `dalopt certify` on the same config for half a second
(at least once), and repeats for --seconds, counted from the start of the
run (at least MIN_SAMPLES samples). Nothing else runs meanwhile. The
end-to-end metrics are medians over the whole run:

    wall_s       wall time of one `dalopt run` (traces, certificates, plots)
    setup_s      wall time of one `dalopt certify` (the problem-build stage)
    peak_rss_mb  peak resident memory of the worker after its first run
    ok_frac      algorithm runs that passed every output check (checks.py)
                 / runs attempted, i.e. 1 - fail_frac

With --trace 1, the worker alternates an untraced and a traced run (tracing.py)
and the per-layer metrics of BENCHMARK.json are reported instead: times as
medians over the traced runs, counts from the first one (they must repeat
exactly). Outputs of every run are checked; `attempted` and `failed` in the
result count algorithm runs. Every metric is also printed by name with its
unit, with fail_frac = failed / attempted; --report does so for every
workload, untraced and traced, and ends with a summary line.

The last line of output is the result as one JSON object. Run records
(versions, thread settings, sample counts) and spans go to perfbench/out/.
The benchmark's self-tests are `python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_run, labels
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

MIN_SAMPLES = 3  # untraced samples
MIN_TRACED_PAIRS = 2  # so that the counts can be seen to repeat
TIME_LIMIT_S = 150  # --seconds is capped at this; a run's set-up counts in it
DEADLINE_S = 175  # a worker still running then is killed; the run has failed
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}
EXACT_UNITS = ("count", "grads/call")  # per-layer metrics that must repeat
COUNTERS = ("almethods.outer_iterations", "almethods.transmissions_total",
            "almethods.grad_evals_total")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env():
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("DALOPT_OUTPUT_DIR", None)  # it would redirect the run's output
    return env


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


class Run:
    """One benchmark run of a workload: its samples and checked outputs."""

    def __init__(self, name, cfg, trace, reference=None):
        self.cfg, self.trace, self.reference = cfg, trace, reference
        self.work = OUT / f"{name}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env()
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.problems = []
        self.first_sha = None
        self.identical = []
        self.versions = {}
        self.peak_rss_mb = None
        self.samples = {}  # metric -> every sample value

    def collect(self, seconds, minimum):
        """Run one worker for `seconds`; check the outputs of each of its
        samples; return the samples (worker.py describes them)."""
        cfg_path = self.work / "config.json"
        cfg_path.write_text(json.dumps(self.cfg))
        budget = min(seconds, TIME_LIMIT_S) - (time.monotonic() - self.start)
        cmd = [sys.executable, str(BENCH / "worker.py"), str(cfg_path), str(self.work),
               "--seconds", str(budget), "--min-samples", str(minimum)]
        if self.trace:
            cmd.append("--trace")
        remaining = self.start + DEADLINE_S - time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"the worker did not finish in {DEADLINE_S} s") from exc
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr}") from exc
        self.versions = {"python": result["python"], "numpy": result["numpy"]}
        self.peak_rss_mb = result["peak_rss_mb"]
        for sample in result["samples"]:
            out_dir = self.work / f"sample{sample['index']}"
            self._check(sample["index"], out_dir, sample)
            if sample["index"] > 0 or self.trace:  # keep the first untraced sample's outputs
                shutil.rmtree(out_dir, ignore_errors=True)
        return result["samples"]

    def _check(self, index, out_dir, result):
        certs = result["certify"]
        stdout = result.get("certify_stdout") if certs else None
        report = check_run(self.cfg, out_dir, stdout, self.reference)
        result["counters"] = report
        failures = []
        for label in labels(self.cfg):
            problems = list(report["problems"][label])
            if result["run"]["status"] != "ok":
                problems.append(f"dalopt run: {result['run']['status']}: {result['run']['error']}")
            for c in certs:
                if c["status"] != "ok":
                    problems.append(f"dalopt certify: {c['status']}: {c['error']}")
                    break
            if self.first_sha and report["sha256"].get(label) != self.first_sha.get(label):
                problems.append("trace differs from the first sample's")
            if problems:
                failures.append(f"sample {index} {label}: " + "; ".join(problems))
        if self.first_sha is None:
            self.first_sha = report["sha256"]
        self.identical.append(report["identical"])
        self.attempted += len(labels(self.cfg))
        self.failed += len(failures)
        self.problems += failures


def end_to_end(run, seconds):
    samples = run.collect(seconds, MIN_SAMPLES)
    walls = [s["run"]["wall_s"] for s in samples]
    setups = [c["wall_s"] for s in samples for c in s["certify"]]
    run.samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": [run.peak_rss_mb]}
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (run.peak_rss_mb, 1),
        "ok_frac": (1.0 - run.failed / run.attempted, run.attempted),
    }


def _span_metric(name, spans, counters):
    """One per-layer metric from one traced run, or None when its hook is missing."""
    if name in COUNTERS:
        return counters[name.split(".")[-1]]
    if name.startswith("almethods.run_s."):
        if "almethods.run_variant" in spans["missing"]:
            return None
        variant = name.split(".")[-1]
        return sum(s for label, s in spans["run_s"].items()
                   if spans["variants"][label] == variant)
    span, stat = name.rsplit(".", 1)
    if span in spans["missing"]:
        return None
    calls, total, self_s = spans["totals"][span]
    per_call = {"us_per_call": total * 1e6, "grads_per_call": spans["results"].get(span, 0)}
    if stat in per_call:
        return per_call[stat] / calls if calls else 0.0
    if stat == "s_per_row":
        return total / counters["rows"] if counters["rows"] else 0.0
    return {"calls": calls, "s": total, "self_s": self_s}[stat]


def per_layer(run, seconds, metrics):
    samples = run.collect(seconds, MIN_TRACED_PAIRS)
    traced = [s for s in samples if s["traced"]]
    run.samples = {"wall_s": [s["run"]["wall_s"] for s in samples if not s["traced"]],
                   "traced_wall_s": [t["run"]["wall_s"] for t in traced]}
    overhead = (statistics.median(run.samples["traced_wall_s"])
                / statistics.median(run.samples["wall_s"]) - 1.0)
    values, missing = {}, []
    for name, unit in metrics.items():
        if name == "trace.overhead_frac":
            values[name] = (overhead, len(traced))
            continue
        per_run = [_span_metric(name, t["spans"], t["counters"]) for t in traced]
        if per_run[0] is None:
            missing.append(name)
        elif unit in EXACT_UNITS:
            if any(v != per_run[0] for v in per_run):
                run.problems.append(f"{name} differs between traced runs: {per_run}")
            values[name] = (per_run[0], len(per_run))
        else:
            values[name] = (statistics.median(per_run), len(per_run))
    return values, missing


def measure(workload, seed, seconds, trace, spec):
    """Run one workload; return (result dict, record dict)."""
    reference = REFERENCE / workload if seed == DEFAULT_SEED else None
    run = Run(f"{workload}-seed{seed}", WORKLOADS[workload](seed), trace, reference)
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, missing = per_layer(run, seconds, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, missing = end_to_end(run, seconds), []
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in values.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "default_seed_config": seed == DEFAULT_SEED,
        "trace": trace,
        "seconds": seconds,
        "git_sha": git_sha(),
        **run.versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": BLAS_ENV,
        "sample_counts": {name: n for name, (_, n) in values.items()},
        "samples": run.samples,
        "csv_identical_to_reference": run.identical if run.reference else None,
        "fail_frac": run.failed / run.attempted,
        "missing_metrics": missing,
        "problems": run.problems,
        "run_duration_s": time.monotonic() - run.start,
    }
    (run.work / "record.json").write_text(json.dumps(dict(record, result=result), indent=1))
    return result, record


def print_lines(workload, result, record):
    """Every metric by name with its unit, then fail_frac, problems and the record."""
    rows = [(name, m["value"], m["unit"], record["sample_counts"][name])
            for name, m in result["metrics"].items()]
    rows.append(("fail_frac", record["fail_frac"], "ratio", result["attempted"]))
    for name, value, unit, n in rows:
        print(f"{workload:12s} {name:44s} {value:14.6g} {unit:10s} n={n}")
    for name in record["missing_metrics"]:
        print(f"{workload:12s} {name:44s} {'missing':>14s}")
    for problem in record["problems"]:
        print(f"{workload:12s} FAILED {problem}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "problems"}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--report", action="store_true",
                    help="run every workload untraced and traced; print every metric")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.report:
        runs = [(w, trace) for w in WORKLOADS for trace in (0, 1)]
    elif args.workload:
        runs = [(args.workload, args.trace)]
    else:
        ap.error("--workload or --report is required")
    if not (ROOT / "src" / "dalopt" / "__init__.py").is_file():
        print(f"error: no dalopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"correct": True, "attempted": 0, "failed": 0}
    for workload, trace in runs:
        try:
            result, record = measure(workload, args.seed, args.seconds, trace, spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_lines(workload, result, record)
        print(json.dumps(result), flush=True)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    if args.report:
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
