"""Experiment orchestration: config ingestion, data generation, reference
solve, runs, metrics, CSV and plot emission.

An experiment is described by a JSON config file (see ExperimentConfig)
and produces a directory containing the network file, the dataset, one
trace CSV and one certificate report per algorithm, and two semi-log
plots rendered from the CSVs alone.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .almethods import AlgorithmConfig, RunTrace, run_variant, read_trace_csv, write_trace_csv
from .network import (
    NetworkModel,
    build_chain_graph,
    build_complete_graph,
    build_geometric_graph,
    build_network,
    save_network,
)
from .objective import LogisticCost, ObjectiveStack, QuadraticCost, save_dataset
from .svgplot import semilog_svg
from .theory import certificate, lyapunov_value, resolve_recipe, saddle_point

__all__ = [
    "ExperimentConfig",
    "ReferenceSolution",
    "StageError",
    "stage",
    "build_problem",
    "OUTPUT_DIR_ENV",
    "generate_logistic_data",
    "generate_quadratic_stack",
    "reference_solve",
    "relative_cost_error",
    "trace_metrics",
    "resolve_algorithm",
    "run_experiment",
    "render_plots",
]

OUTPUT_DIR_ENV = "DALOPT_OUTPUT_DIR"


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def stage(name):
    """Re-raise any failure inside the block as a StageError naming the
    stage; a StageError raised inside keeps its own stage."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment batch.

    network: {"type": "geometric"|"chain"|"complete", "n": int,
              "radius": float, "seed": int}
    objective: {"type": "logistic"|"quadratic", "n": int, "d": int,
                "reg": float, "seed": int, "h_lo": float, "h_hi": float}
        n is an integer >= 2, d one >= 1 (>= 2 for the default logistic
        type, features plus intercept); radius, reg, h_lo and h_hi are finite
        and > 0, with h_lo <= h_hi. Another type, or any other key in
        network or objective, is rejected.
    algorithms: non-empty list of entries, each either {"recipe": <name>,
        ...} or an explicit {"variant", "alpha", "rho", "tau", "beta"} set;
        every entry may carry "label" (letters, digits, "_", "." and "-";
        it names the run's files), "seed", "epsilon", and recipe entries
        may override "tau", "alpha", "rho" and "beta". Every "seed" is an
        integer >= 0; alpha > 0, rho >= 0 and beta > 0 are finite.
    stop_rel_cost: optional early-stop threshold > 0 on the relative cost
        error (runs end once they cross it).
    """

    network: dict
    objective: dict
    algorithms: list
    k_max: int = 300
    epsilon: float = 1e-5
    stop_rel_cost: float | None = None
    output_dir: str = "dalopt_out"

    def __post_init__(self):
        _check_config("k_max", self.k_max, _is_count, "an integer >= 1")
        _check_config("epsilon", self.epsilon, _is_positive, "a finite number > 0")
        _check_config("stop_rel_cost", self.stop_rel_cost,
                      lambda v: v is None or _is_positive(v), "a finite number > 0")
        _check_config("output_dir", self.output_dir,
                      lambda v: isinstance(v, (str, os.PathLike)), "a path string")
        _check_config("algorithms", self.algorithms,
                      lambda v: isinstance(v, list) and v, "a non-empty list")
        for key in ("network", "objective"):
            spec = getattr(self, key)
            _check_config(key, spec, lambda v: isinstance(v, dict), "an object")
            extra = sorted(f"{key}.{k}" for k in spec if k not in _VALUES[key])
            if extra:
                raise StageError("config", f"unknown config keys: {extra}")
            for name, value in spec.items():
                _check_config(f"{key}.{name}", value, *_VALUES[key][name])
        h_hi = self.objective.get("h_hi", 5.0)  # with h_lo, _build_objective's defaults
        _check_config("objective.h_lo", self.objective.get("h_lo", 0.5), lambda v: v <= h_hi,
                      f"<= objective.h_hi = {h_hi!r}")
        if self.objective.get("type", "logistic") == "logistic":  # features plus intercept
            _check_config("objective.d", self.objective.get("d", 15), lambda v: v >= 2,
                          ">= 2 for a logistic objective")
        for i, entry in enumerate(self.algorithms):
            if not isinstance(entry, dict):
                raise StageError("config", f"algorithms[{i}] must be an object")
            for name, value in entry.items():
                if name in _VALUES["algorithms"]:
                    _check_config(f"algorithms[{i}].{name}", value, *_VALUES["algorithms"][name])

    @classmethod
    def from_dict(cls, doc):
        _check_config("the config's top level", doc, lambda v: isinstance(v, dict),
                      "a JSON object")
        known = {"network", "objective", "algorithms", "k_max", "epsilon",
                 "stop_rel_cost", "output_dir"}
        extra = set(doc) - known
        if extra:
            raise StageError("config", f"unknown config keys: {sorted(extra)}")
        for key in ("network", "objective", "algorithms"):
            if key not in doc:
                raise StageError("config", f"missing config key {key!r}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StageError("config", f"cannot read {path}: {exc}") from exc
        return cls.from_dict(doc)


def _is_count(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def _is_seed(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0


def _is_nonnegative(v):
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v) and v >= 0)


def _is_positive(v):
    return _is_nonnegative(v) and v > 0


def _is_label(v):
    return isinstance(v, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", v) is not None


def _check_config(key, value, ok, need):
    if not ok(value):
        raise StageError("config", f"{key} must be {need}, got {value!r}")


_COUNT = (_is_count, "an integer >= 1")
_NODES = (lambda v: _is_count(v) and v >= 2, "an integer >= 2")
_POSITIVE = (_is_positive, "a finite number > 0")
_SEED = (_is_seed, "an integer >= 0")
# (predicate, what the value must be) of every key of network and
# objective, and of the checked keys of an algorithm entry
_VALUES = {
    "network": {"type": (lambda v: v in ("geometric", "chain", "complete"),
                         "'geometric', 'chain' or 'complete'"),
                "n": _NODES, "radius": _POSITIVE, "seed": _SEED},
    "objective": {"type": (lambda v: v in ("logistic", "quadratic"), "'logistic' or 'quadratic'"),
                  "n": _NODES, "d": _COUNT, "reg": _POSITIVE, "seed": _SEED,
                  "h_lo": _POSITIVE, "h_hi": _POSITIVE},
    "algorithms": {"seed": _SEED, "alpha": _POSITIVE,
                   "rho": (_is_nonnegative, "a finite number >= 0"), "beta": _POSITIVE,
                   "label": (_is_label, "letters, digits, '_', '.' or '-'"),
                   "tau": _COUNT, "epsilon": _POSITIVE},
}


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Centralized optimum of the aggregate cost f = sum_i f_i."""

    x_star: np.ndarray
    f_star: float
    grad_norm_at_solution: float


def generate_logistic_data(n, d, reg=1.0, seed=0) -> ObjectiveStack:
    """One labeled sample per node.

    Features and the ground-truth vector are iid standard normal; labels
    follow the sign of the true affine score plus N(0, 0.001^2) noise.
    """
    if d < 2:
        raise ValueError("need d >= 2 (features plus intercept)")
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(d)
    costs = []
    for _ in range(n):
        a = rng.standard_normal(d - 1)
        eps = rng.normal(0.0, 0.001)
        score = float(x_true[:-1] @ a + x_true[-1] + eps)
        b = 1 if score >= 0 else -1
        costs.append(LogisticCost(feature=a, label=b, reg=reg, n_nodes=n))
    return ObjectiveStack(tuple(costs))


def generate_quadratic_stack(n, d, seed=0, h_lo=0.5, h_hi=5.0) -> ObjectiveStack:
    """Random strongly convex quadratics with spectra in [h_lo, h_hi]."""
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(h_lo, h_hi, size=d)
        a = q @ np.diag(eigs) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(d)
        costs.append(QuadraticCost(matrix=a, linear=b))
    return ObjectiveStack(tuple(costs))


def reference_solve(stack: ObjectiveStack, max_iterations=2_000_000) -> ReferenceSolution:
    """Centralized minimizer of f(x) = sum_i f_i(x).

    All-quadratic stacks are solved in closed form; otherwise an
    accelerated gradient method runs until the gradient norm is below
    1e-12 * max(1, ||grad f(0)||).
    """
    d = stack.dimension
    g0 = float(np.linalg.norm(stack.aggregate_grad(np.zeros(d))))
    tol = 1e-12 * max(1.0, g0)
    if stack.kind == "quadratic":
        x = np.linalg.solve(stack.matrices.sum(axis=0), -stack.linears.sum(axis=0))
    else:
        m = float(stack.node_h_min.sum())
        lip = float(stack.node_h_max.sum())
        sq = math.sqrt(m / lip)
        momentum = (1.0 - sq) / (1.0 + sq)
        x = np.zeros(d)
        y = x.copy()
        for it in range(max_iterations):
            g = stack.aggregate_grad(y)
            if it % 10 == 0 and float(np.linalg.norm(stack.aggregate_grad(x))) <= tol:
                break
            x_new = y - g / lip
            y = x_new + momentum * (x_new - x)
            x = x_new
        else:
            raise StageError("reference", f"did not reach gradient norm {tol}")
    gn = float(np.linalg.norm(stack.aggregate_grad(x)))
    if gn > tol:
        raise StageError("reference", f"gradient norm {gn} above tolerance {tol}")
    return ReferenceSolution(x_star=x, f_star=stack.aggregate_value(x),
                             grad_norm_at_solution=gn)


def relative_cost_error(stack: ObjectiveStack, ref: ReferenceSolution, x, f0=None) -> float:
    """(1/N) sum_i (f(x_i) - f*) / (f(0) - f*), f evaluated at every
    node's local copy. Tiny negative rounding residue clamps to 0."""
    d = stack.dimension
    if f0 is None:
        f0 = stack.aggregate_value(np.zeros(d))
    denom = f0 - ref.f_star
    if denom <= 0:
        raise StageError("metrics", "degenerate instance: f(0) equals f*")
    x = np.asarray(x, dtype=float).reshape(stack.n_nodes, d)
    total = float((stack.aggregate_values(x) - ref.f_star).sum())
    return max(total / (stack.n_nodes * denom), 0.0)


def trace_metrics(stack, net: NetworkModel, ref: ReferenceSolution, trace: RunTrace):
    """Per-row (rel_cost_error, primal_error_norm, lyapunov_value) arrays."""
    saddle = saddle_point(stack, ref.x_star)
    f0 = stack.aggregate_value(np.zeros(stack.dimension))
    rel, prim, lyap = [], [], []
    for x, mu in zip(trace.xs, trace.mus):
        rel.append(relative_cost_error(stack, ref, x, f0))
        prim.append(float(np.linalg.norm(x - saddle.x_bullet)))
        lyap.append(lyapunov_value(x, mu, saddle, net.spec, stack.h_min))
    return np.array(rel), np.array(prim), np.array(lyap)


def resolve_algorithm(entry, stack, net, default_epsilon=1e-5) -> AlgorithmConfig:
    """Turn one config entry (recipe or explicit) into an AlgorithmConfig."""
    entry = dict(entry)
    label = entry.pop("label", None)
    seed = entry.pop("seed", 0)
    epsilon = entry.pop("epsilon", default_epsilon)
    if "recipe" in entry:
        recipe = entry.pop("recipe")
        variant, alpha, rho, beta, tau = resolve_recipe(
            recipe, stack.h_min, stack.h_max, net.lambda2, stack.n_nodes
        )
        alpha = entry.pop("alpha", alpha)
        rho = entry.pop("rho", rho)
        beta = entry.pop("beta", beta)
        tau = entry.pop("tau", tau)
        label = label or recipe
    else:
        try:
            variant = entry.pop("variant")
            alpha = entry.pop("alpha")
            rho = entry.pop("rho")
            tau = entry.pop("tau")
        except KeyError as exc:
            raise StageError("config", f"algorithm entry missing {exc}") from exc
        beta = entry.pop("beta", None)
        label = label or variant
    if entry:
        raise StageError("config", f"unknown algorithm keys: {sorted(entry)}")
    return AlgorithmConfig(variant=variant, alpha=alpha, rho=rho, tau=tau,
                           beta=beta, seed=seed, epsilon=epsilon, label=label)


def _build_graph(spec):
    kind = spec.get("type", "geometric")
    n = spec["n"]
    meta = {"type": kind, "n": n}
    if kind == "chain":
        return build_chain_graph(n), meta
    if kind == "complete":
        return build_complete_graph(n), meta
    radius = spec.get("radius", 0.45)
    seed = spec.get("seed", 0)
    g, attempts = build_geometric_graph(n, radius=radius, rng_seed=seed)
    meta.update(radius=radius, seed=seed, attempts=attempts)
    return g, meta


def _build_objective(spec):
    kind = spec.get("type", "logistic")
    n, d = spec["n"], spec.get("d", 15)
    seed = spec.get("seed", 0)
    if kind == "quadratic":
        return generate_quadratic_stack(
            n, d, seed=seed,
            h_lo=spec.get("h_lo", 0.5), h_hi=spec.get("h_hi", 5.0),
        )
    return generate_logistic_data(n, d, reg=spec.get("reg", 1.0), seed=seed)


def render_plots(out_dir):
    """Draw both figures purely from the trace CSVs in out_dir."""
    out_dir = Path(out_dir)
    csvs = sorted(out_dir.glob("trace_*.csv"))
    if not csvs:
        raise StageError("plots", f"no trace CSVs in {out_dir}")
    tx_series, comp_series = [], []
    for p in csvs:
        data = read_trace_csv(p)
        label = p.stem[len("trace_"):]
        tx_series.append((label, data["transmissions_total"], data["rel_cost_error"]))
        comp_series.append((label, data["grad_evals_total"], data["rel_cost_error"]))
    semilog_svg(
        out_dir / "error_vs_transmissions.svg", tx_series,
        xlabel="total transmissions", ylabel="average relative cost error",
        title="Relative cost error vs. communication",
    )
    semilog_svg(
        out_dir / "error_vs_computation.svg", comp_series,
        xlabel="cumulative gradient evaluations",
        ylabel="average relative cost error",
        title="Relative cost error vs. computation",
    )


def build_problem(cfg: ExperimentConfig):
    """The problem `run` and `certify` share: (net, stack, ref, algorithms).

    Builds the network, the node costs, the reference solution and the
    resolved AlgorithmConfig of every entry, and rejects duplicate labels.
    Any failure raises StageError naming the stage. Writes no file.
    """
    with stage("network"):
        graph, meta = _build_graph(dict(cfg.network))
        net = build_network(graph, meta=meta)
    with stage("objective"):
        ospec = dict(cfg.objective)
        ospec.setdefault("n", net.node_count)
        if ospec["n"] != net.node_count:
            raise ValueError("objective node count differs from the network's")
        stack = _build_objective(ospec)
    ref = reference_solve(stack)
    with stage("config"):
        acfgs = [resolve_algorithm(e, stack, net, cfg.epsilon) for e in cfg.algorithms]
        labels = [a.name for a in acfgs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate algorithm labels: {labels}")
    return net, stack, ref, acfgs


def run_experiment(cfg: ExperimentConfig):
    """Execute the full pipeline; returns the output directory path.

    The DALOPT_OUTPUT_DIR environment variable overrides cfg.output_dir.
    Any stage failure raises StageError naming the stage.
    """
    out = Path(os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    net, stack, ref, acfgs = build_problem(cfg)
    with stage("network"):
        save_network(net, out / "network.json")
    if stack.kind == "logistic":
        with stage("objective"):
            save_dataset(stack, out / "dataset.csv")

    f0 = stack.aggregate_value(np.zeros(stack.dimension))
    for acfg in acfgs:
        with stage(f"run:{acfg.name}"):
            stop = None
            if cfg.stop_rel_cost is not None:
                threshold = float(cfg.stop_rel_cost)

                def stop(x, mu, k, _t=threshold):
                    return relative_cost_error(stack, ref, x, f0) <= _t

            trace = run_variant(stack, net, acfg, cfg.k_max, stop=stop)
            rel, prim, lyap = trace_metrics(stack, net, ref, trace)
            write_trace_csv(out / f"trace_{acfg.name}.csv", trace, rel, prim, lyap)
            cert = certificate(acfg, stack, net, ref.x_star)
            # cost translation: f(x_i) - f* <= (sum_j h_max_j)/2 ||x_i - x*||^2,
            # so rel_cost_error <= cost_factor * (r^k * bound_constant)^2
            cost_factor = float(stack.node_h_max.sum()) / (2.0 * (f0 - ref.f_star))
            with open(out / f"certificate_{acfg.name}.txt", "w") as fh:
                fh.write(f"algorithm: {acfg.name} ({acfg.variant})\n")
                fh.write(f"tau: {acfg.tau}\n")
                if acfg.beta is not None:
                    fh.write(f"beta: {acfg.beta:.17g}\n")
                fh.write(cert.report())
                fh.write(
                    "cost translation: rel_cost_error(k) <= cost_factor *"
                    " (r^k * bound_constant)^2\n"
                    f"  cost_factor    = {cost_factor:.17g}\n"
                )

    with stage("plots"):
        render_plots(out)
    return out
