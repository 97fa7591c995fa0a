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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .almethods import (
    VARIANTS,
    AlgorithmConfig,
    RunTrace,
    read_trace_csv,
    run_variant,
    write_trace_csv,
)
from .local_solve import accelerated_gradient
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
from .theory import RECIPES, certificate, lyapunov_value, resolve_recipe, saddle_point

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


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _one_of(*names):
    return lambda v: v in names, ", ".join(map(repr, names[:-1])) + f" or {names[-1]!r}"


def _check_config(key, value, ok, need):
    if not ok(value):
        raise StageError("config", f"{key} must be {need}, got {value!r}")


class _Key(NamedTuple):
    default: object  # _REQUIRED for a key that must be given
    ok: Callable  # the check of a given value
    need: str  # what a given value must be


_REQUIRED = object()
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_NODES = (lambda v: _is_int(v) and v >= 2, "an integer >= 2")
_SEED = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_POSITIVE = (lambda v: _is_real(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = (lambda v: _is_real(v) and v >= 0, "a finite number >= 0")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_ENTRY = {"label": _Key(None, lambda v: isinstance(v, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", v),
                        "letters, digits, '_', '.' or '-'"),
          "seed": _Key(0, *_SEED), "epsilon": _Key(None, *_POSITIVE)}
# The config table: level -> key -> _Key. "config" is the top level; an
# algorithm entry is checked at level "recipe" if it has that key, else at
# "variant". A default of None leaves the value unset or to be worked out:
# objective.n is the network's n, an entry's label its recipe or variant
# name, its epsilon the top-level epsilon, and a recipe entry's alpha, rho,
# beta and tau are its recipe's.
_VALUES = {
    "config": {
        "network": _Key(_REQUIRED, *_OBJECT),
        "objective": _Key(_REQUIRED, *_OBJECT),
        "algorithms": _Key(_REQUIRED, lambda v: isinstance(v, list) and v, "a non-empty list"),
        "k_max": _Key(300, *_COUNT),
        "epsilon": _Key(1e-5, *_POSITIVE),
        "stop_rel_cost": _Key(None, lambda v: v is None or _is_real(v) and v > 0,
                              "a finite number > 0"),
        "output_dir": _Key("dalopt_out", lambda v: isinstance(v, (str, os.PathLike)),
                           "a path string"),
    },
    "network": {"type": _Key("geometric", *_one_of("geometric", "chain", "complete")),
                "n": _Key(_REQUIRED, *_NODES), "radius": _Key(0.45, *_POSITIVE),
                "seed": _Key(0, *_SEED)},
    "objective": {"type": _Key("logistic", *_one_of("logistic", "quadratic")),
                  "n": _Key(None, *_NODES), "d": _Key(15, *_COUNT), "reg": _Key(1.0, *_POSITIVE),
                  "seed": _Key(0, *_SEED), "h_lo": _Key(0.5, *_POSITIVE),
                  "h_hi": _Key(5.0, *_POSITIVE)},
    "recipe": {"recipe": _Key(_REQUIRED, *_one_of(*RECIPES)), "alpha": _Key(None, *_POSITIVE),
               "rho": _Key(None, *_NONNEGATIVE), "beta": _Key(None, *_POSITIVE),
               "tau": _Key(None, *_COUNT), **_ENTRY},
    "variant": {"variant": _Key(_REQUIRED, *_one_of(*VARIANTS)),
                "alpha": _Key(_REQUIRED, *_POSITIVE), "rho": _Key(_REQUIRED, *_NONNEGATIVE),
                "beta": _Key(None, *_POSITIVE), "tau": _Key(_REQUIRED, *_COUNT), **_ENTRY},
}
_TOP, _OBJECTIVE = _VALUES["config"], _VALUES["objective"]


def _complete(level, spec, where):
    """spec's keys and given values checked against _VALUES[level], and spec
    with the level's defaults filled in; where prefixes the key names."""
    table = _VALUES[level]
    noun = "algorithm" if level in ("recipe", "variant") else "config"
    extra = sorted(where + name for name in spec if name not in table)
    if extra:
        raise StageError("config", f"unknown {noun} keys: {extra}")
    for name, key in table.items():
        if name in spec:
            _check_config(where + name, spec[name], key.ok, key.need)
        elif key.default is _REQUIRED:
            raise StageError("config", f"missing {noun} key {where + name!r}")
    return {name: spec.get(name, key.default) for name, key in table.items()}


def _entry_level(entry):
    return "recipe" if "recipe" in entry else "variant"


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment batch.

    Every key, its default and its check are in harness._VALUES. Making a
    config fails at [config], naming the key, on every bad input that can
    be seen without building the problem, duplicate labels included (a
    label defaults to the entry's recipe or variant). network and objective
    are kept with their defaults filled in.
    """

    network: dict
    objective: dict
    algorithms: list
    k_max: int = _TOP["k_max"].default
    epsilon: float = _TOP["epsilon"].default
    stop_rel_cost: float | None = _TOP["stop_rel_cost"].default
    output_dir: str = _TOP["output_dir"].default

    def __post_init__(self):
        _complete("config", {name: getattr(self, name) for name in _TOP}, "")
        self.network = _complete("network", self.network, "network.")
        self.objective = obj = _complete("objective", self.objective, "objective.")
        _check_config("objective.h_lo", obj["h_lo"], lambda v: v <= obj["h_hi"],
                      f"<= objective.h_hi = {obj['h_hi']!r}")
        if obj["type"] == "logistic":  # features plus intercept
            _check_config("objective.d", obj["d"], lambda v: v >= 2,
                          ">= 2 for a logistic objective")
        labels = []
        for i, entry in enumerate(self.algorithms):
            _check_config(f"algorithms[{i}]", entry, *_OBJECT)
            level = _entry_level(entry)
            spec = _complete(level, entry, f"algorithms[{i}].")
            labels.append(spec["label"] or spec[level])
        if len(set(labels)) != len(labels):
            raise StageError("config", f"duplicate algorithm labels: {labels}")

    @classmethod
    def from_dict(cls, doc):
        _check_config("the config's top level", doc, lambda v: isinstance(v, dict),
                      "a JSON object")
        return cls(**_complete("config", doc, ""))

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StageError("config", f"cannot read {path}: {exc}") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Centralized optimum of the aggregate cost f = sum_i f_i."""

    x_star: np.ndarray
    f_star: float
    grad_norm_at_solution: float


def generate_logistic_data(n, d, reg=_OBJECTIVE["reg"].default,
                           seed=_OBJECTIVE["seed"].default) -> ObjectiveStack:
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


def generate_quadratic_stack(n, d, seed=_OBJECTIVE["seed"].default,
                             h_lo=_OBJECTIVE["h_lo"].default,
                             h_hi=_OBJECTIVE["h_hi"].default) -> ObjectiveStack:
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
        x = accelerated_gradient(stack.aggregate_grad, np.zeros(d), float(stack.node_h_min.sum()),
                                 float(stack.node_h_max.sum()), tol, max_iterations)
        if x is None:
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


def resolve_algorithm(entry, stack, net,
                      default_epsilon=_TOP["epsilon"].default) -> AlgorithmConfig:
    """Turn one config entry (recipe or explicit) into an AlgorithmConfig.

    An unknown recipe raises resolve_recipe's ValueError; a bad key or
    value raises StageError at [config], as in ExperimentConfig. Left out, a
    recipe entry's alpha, rho, beta and tau are the recipe's and an
    entry's epsilon is default_epsilon.
    """
    level = _entry_level(entry)
    spec = {"epsilon": default_epsilon}
    if level == "recipe":
        spec.update(zip(("variant", "alpha", "rho", "beta", "tau"), resolve_recipe(
            entry["recipe"], stack.h_min, stack.h_max, net.lambda2, stack.n_nodes)))
    spec.update((k, v) for k, v in _complete(level, entry, "").items() if v is not None)
    return AlgorithmConfig(variant=spec["variant"], alpha=spec["alpha"], rho=spec["rho"],
                           tau=spec["tau"], beta=spec.get("beta"), seed=spec["seed"],
                           epsilon=spec["epsilon"], label=spec.get("label", spec[level]))


def _build_graph(spec):
    meta = {"type": spec["type"], "n": spec["n"]}
    if spec["type"] != "geometric":
        build = build_chain_graph if spec["type"] == "chain" else build_complete_graph
        return build(spec["n"]), meta
    g, attempts = build_geometric_graph(spec["n"], radius=spec["radius"], rng_seed=spec["seed"])
    meta.update(radius=spec["radius"], seed=spec["seed"], attempts=attempts)
    return g, meta


def _build_objective(spec, n):
    if spec["type"] == "quadratic":
        return generate_quadratic_stack(n, spec["d"], seed=spec["seed"],
                                        h_lo=spec["h_lo"], h_hi=spec["h_hi"])
    return generate_logistic_data(n, spec["d"], reg=spec["reg"], seed=spec["seed"])


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
    resolved AlgorithmConfig of every entry. Any failure raises StageError
    naming the stage. Writes no file.
    """
    with stage("network"):
        graph, meta = _build_graph(cfg.network)
        net = build_network(graph, meta=meta)
    with stage("objective"):
        if cfg.objective["n"] not in (None, net.node_count):
            raise ValueError("objective node count differs from the network's")
        stack = _build_objective(cfg.objective, net.node_count)
    ref = reference_solve(stack)
    with stage("config"):
        acfgs = [resolve_algorithm(e, stack, net, cfg.epsilon) for e in cfg.algorithms]
    return net, stack, ref, acfgs


def run_experiment(cfg: ExperimentConfig):
    """Execute the full pipeline; returns the output directory path.

    The DALOPT_OUTPUT_DIR environment variable overrides cfg.output_dir.
    The plots draw every trace in the directory, so a trace_<label>.csv of
    a label not in cfg fails at [output] before anything is written. Any
    stage failure raises StageError naming the stage.
    """
    out = Path(os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    net, stack, ref, acfgs = build_problem(cfg)
    with stage("output"):
        out.mkdir(parents=True, exist_ok=True)
        names = {f"trace_{acfg.name}.csv" for acfg in acfgs}
        foreign = sorted(p for p in out.glob("trace_*.csv") if p.name not in names)
        if foreign:
            raise ValueError(f"{foreign[0]} is not a trace of this config, and the plots "
                             f"would draw it; choose another output_dir")
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
