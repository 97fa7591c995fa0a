"""Output checks of one `dalopt run`.

Every algorithm run of a config either passes all checks or counts as
failed. A run fails when

- its trace CSV or certificate is missing or malformed (the run raised);
- a trace value is non-finite;
- `transmissions_total` is not N*tau*k for a deterministic variant, or not
  the cumulative tick count of its Poisson schedule for a randomized one;
- `grad_evals_total` differs from `transmissions_total` for a gradient
  variant;
- it ended before `k_max` above `stop_rel_cost`, or ran on after a row at
  or below it;
- `dalopt certify` printed a different certificate for it;
- with a reference directory: the row count or a counter column differs
  from the recorded trace, or a float column differs by more than
  FLOAT_RTOL * |recorded| + FLOAT_ATOL.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

TRACE_HEADER = ("k,transmissions_total,grad_evals_total,rel_cost_error,"
                "primal_error_norm,dual_sum_norm,lyapunov_value")
COUNTER_COLUMNS = ("k", "transmissions_total", "grad_evals_total")
FLOAT_COLUMNS = ("rel_cost_error", "primal_error_norm", "dual_sum_norm", "lyapunov_value")
# A reordered floating-point sum changes the last digits; dual_sum_norm is
# rounding noise around 0, hence the absolute term.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12

RANDOMIZED = ("rand_gauss_seidel", "rand_gradient")
GRADIENT = ("det_gradient", "rand_gradient")


def labels(cfg):
    """Algorithm labels in config order, as `dalopt run` names its files."""
    return [e.get("label") or e.get("recipe") or e.get("variant") for e in cfg["algorithms"]]


def poisson_ticks(n, tau, seed, k):
    """Cumulative tick counts of rows 0..k: each outer iteration draws a
    Poisson(n*tau) tick count, then that many uniform node labels."""
    rng = np.random.default_rng(seed)
    total = [0]
    for _ in range(k):
        ticks = int(rng.poisson(n * tau))
        rng.integers(0, n, size=ticks)
        total.append(total[-1] + ticks)
    return total


def read_trace(path):
    """Columns of a trace CSV; counters as ints, the rest as floats."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("bad header")
    names = TRACE_HEADER.split(",")
    cols = {c: [] for c in names}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"bad row {line!r}")
        for c, v in zip(names, parts):
            cols[c].append(int(v) if c in COUNTER_COLUMNS else float(v))
    if cols["k"] != list(range(len(lines) - 1)):
        raise ValueError("k column is not 0, 1, 2, ...")
    return cols


def read_certificate(path):
    """(variant, tau, text) of a certificate file."""
    text = Path(path).read_text()
    head = re.match(r"algorithm: \S+ \((\w+)\)\ntau: (\d+)\n", text)
    if head is None:
        raise ValueError("bad certificate header")
    return head.group(1), int(head.group(2)), text


def certify_blocks(stdout):
    """label -> certificate report, from `dalopt certify` output."""
    blocks = {}
    for block in re.split(r"^(?=algorithm: )", stdout, flags=re.M):
        head, _, body = block.partition("\n")
        m = re.match(r"algorithm: (\S+) \(", head)
        if m:
            blocks[m.group(1)] = body.rstrip("\n") + "\n"  # print() added a newline
    return blocks


def _run_problems(cfg, entry, cols, variant, tau):
    n, k_max, stop = cfg["network"]["n"], cfg["k_max"], cfg.get("stop_rel_cost")
    rows = len(cols["k"])
    k = rows - 1
    tx, ge, rel = cols["transmissions_total"], cols["grad_evals_total"], cols["rel_cost_error"]
    problems = []
    if not all(math.isfinite(v) for c in FLOAT_COLUMNS for v in cols[c]):
        problems.append("non-finite value")
    if variant in RANDOMIZED:
        expected = poisson_ticks(n, tau, entry.get("seed", 0), k)
    else:
        expected = [n * tau * i for i in range(rows)]
    if tx != expected:
        problems.append("transmissions_total is not the expected broadcast count")
    if variant in GRADIENT and ge != tx:
        problems.append("grad_evals_total differs from transmissions_total")
    if k > k_max or (k < k_max and stop is None):
        problems.append(f"{k} outer iterations with k_max={k_max}")
    if stop is not None:
        if k < k_max and not rel[k] <= stop:
            problems.append(f"stopped early at rel_cost_error {rel[k]:.3g} > {stop}")
        if any(not r > stop for r in rel[1:k]):
            problems.append("ran on after reaching stop_rel_cost")
    return problems


def _reference_problems(cols, ref):
    if len(cols["k"]) != len(ref["k"]):
        return [f"{len(cols['k'])} rows, recorded {len(ref['k'])}"]
    problems = [f"{c} differs from the recorded trace"
                for c in COUNTER_COLUMNS if cols[c] != ref[c]]
    for c in FLOAT_COLUMNS:
        if any(not abs(a - b) <= FLOAT_RTOL * abs(b) + FLOAT_ATOL
               for a, b in zip(cols[c], ref[c])):
            problems.append(f"{c} differs from the recorded trace")
    return problems


def check_run(cfg, out_dir, certify_stdout=None, reference=None):
    """Check every algorithm run in out_dir.

    Returns a dict: `problems` (label -> list of reasons, empty when the run
    passed), `sha256` (label -> digest of its trace CSV), `identical` (trace
    CSVs byte-identical to the reference, None without one), and the
    summed counters `outer_iterations`, `transmissions_total`,
    `grad_evals_total` and `rows`.
    """
    out_dir = Path(out_dir)
    blocks = certify_blocks(certify_stdout) if certify_stdout is not None else None
    report = {"problems": {}, "sha256": {}, "identical": 0 if reference else None,
              "outer_iterations": 0, "transmissions_total": 0,
              "grad_evals_total": 0, "rows": 0}
    for entry, label in zip(cfg["algorithms"], labels(cfg)):
        csv = out_dir / f"trace_{label}.csv"
        try:
            data = csv.read_bytes()
            cols = read_trace(csv)
            variant, tau, cert_text = read_certificate(out_dir / f"certificate_{label}.txt")
        except (OSError, ValueError) as exc:
            report["problems"][label] = [f"missing or malformed output: {exc}"]
            continue
        problems = _run_problems(cfg, entry, cols, variant, tau)
        if blocks is not None and (label not in blocks or blocks[label] not in cert_text):
            problems.append("dalopt certify printed a different certificate")
        if reference is not None:
            ref_csv = Path(reference) / csv.name
            try:
                problems += _reference_problems(cols, read_trace(ref_csv))
            except (OSError, ValueError) as exc:
                problems.append(f"reference trace unreadable: {exc}")
            else:
                report["identical"] += data == ref_csv.read_bytes()
        report["problems"][label] = problems
        report["sha256"][label] = hashlib.sha256(data).hexdigest()
        report["outer_iterations"] += len(cols["k"]) - 1
        report["transmissions_total"] += cols["transmissions_total"][-1]
        report["grad_evals_total"] += cols["grad_evals_total"][-1]
        report["rows"] += len(cols["k"])
    return report
