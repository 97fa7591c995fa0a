"""Distributed augmented-Lagrangian drivers.

Every variant runs one outer loop, the paper's template: an inexact primal
phase, then the dual ascent step mu <- mu + alpha (L (x) I) x. Four primal
phases are provided: synchronized Jacobi sweeps, synchronized gradient
sweeps, and their randomized single-node counterparts driven by a Poisson
tick schedule. run_variant runs the variant an AlgorithmConfig names;
run_inexact_al runs the same loop with any other policy.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .local_solve import gradient_step, node_gradient_step, node_prox_solver
from .objective import ObjectiveStack

__all__ = [
    "AlgorithmConfig",
    "PoissonSchedule",
    "RunTrace",
    "ConfigError",
    "VARIANTS",
    "check_beta",
    "jacobi_sweeps",
    "gradient_sweeps",
    "sample_poisson_schedule",
    "run_inexact_al",
    "run_variant",
    "write_trace_csv",
    "read_trace_csv",
    "TRACE_HEADER",
]

VARIANTS = ("det_jacobi", "det_gradient", "rand_gauss_seidel", "rand_gradient")

TRACE_HEADER = (
    "k,transmissions_total,grad_evals_total,rel_cost_error,"
    "primal_error_norm,dual_sum_norm,lyapunov_value"
)


class ConfigError(ValueError):
    """Inconsistent algorithm configuration."""


@dataclass(frozen=True)
class AlgorithmConfig:
    """Variant tag and tuning parameters of one run.

    tau is the exact inner-iteration count for deterministic variants and
    the expected per-node tick count (Poisson rate multiplier) for the
    randomized ones. alpha > 0, rho >= 0 and a given beta are finite, and
    epsilon is finite and > 0; ConfigError names the parameter otherwise.
    """

    variant: str
    alpha: float
    rho: float
    tau: int
    beta: float | None = None
    seed: int = 0
    epsilon: float = 1e-5
    label: str | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not isinstance(self.tau, numbers.Integral) or isinstance(self.tau, bool):
            raise ConfigError(f"tau must be an integer, got {self.tau!r}")
        for name in ("alpha", "rho", "beta", "epsilon"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon!r}")
        if self.alpha <= 0 or self.rho < 0 or self.tau < 1:
            raise ConfigError("need alpha > 0, rho >= 0, tau >= 1")
        if self.variant in ("det_gradient", "rand_gradient"):
            if self.beta is None or self.beta <= 0:
                raise ConfigError("gradient variants need beta > 0")

    @property
    def name(self):
        return self.label or self.variant


@dataclass(frozen=True)
class PoissonSchedule:
    """Tick count and ordered node identities for one outer iteration."""

    nodes: np.ndarray  # shape (tau_k,), values in [0, N)

    @property
    def tick_count(self):
        return int(self.nodes.size)


@dataclass
class RunTrace:
    """Per-outer-iteration history of one run (row 0 is the initial state)."""

    xs: list = field(default_factory=list)
    mus: list = field(default_factory=list)
    transmissions: list = field(default_factory=list)
    grad_evals: list = field(default_factory=list)
    wall_clock: list = field(default_factory=list)
    n_nodes: int = 0

    def record(self, x, mu, tx, ge, t):
        self.xs.append(x.copy())
        self.mus.append(mu.copy())
        self.transmissions.append(int(tx))
        self.grad_evals.append(int(ge))
        self.wall_clock.append(float(t))

    @property
    def outer_iterations(self):
        return len(self.xs) - 1


def check_beta(cfg: AlgorithmConfig, stack: ObjectiveStack):
    """Reject a gradient variant's step beta above 1/(h_max + rho), where
    contraction is not guaranteed. Runs and certificates share this check."""
    if cfg.variant.endswith("_gradient"):
        limit = 1.0 / (stack.h_max + cfg.rho)
        if cfg.beta > limit * (1.0 + 1e-12):
            raise ConfigError(
                f"beta={cfg.beta} exceeds 1/(h_max+rho)={limit}; contraction not guaranteed"
            )


def jacobi_sweeps(stack, net, x, mu, rho, tau, solve, xbar):
    """tau synchronized Jacobi sweeps: every node solves its prox problem
    warm-started at its current block, then neighbor averages refresh.

    solve is node_prox_solver(stack, rho, epsilon), built once per run;
    xbar must be (W (x) I) x; the outer loop passes the one it holds.
    Returns (x_new, xbar_new, gradient_evaluations). Within one sweep the
    per-node solves read only the previous sweep's state, so they are
    order-independent.
    """
    n, d = stack.n_nodes, stack.dimension
    x = np.array(x, dtype=float).reshape(n, d)  # a copy, updated in place
    mu = np.asarray(mu, dtype=float).reshape(n, d)
    xbar = np.asarray(xbar, dtype=float).reshape(n, d)
    grads = 0
    for _ in range(tau):
        v = mu - rho * xbar
        for i in range(n):
            x[i], g = solve(i, v[i], x[i])
            grads += g
        xbar = net.weights_apply(x, d).reshape(n, d)
    return x.reshape(-1), xbar.reshape(-1), grads


def gradient_sweeps(stack, net, x, mu, rho, tau, beta, xbar):
    """tau synchronized gradient sweeps; one gradient evaluation per node
    per sweep. Returns (x_new, xbar_new, gradient_evaluations); xbar is as
    in jacobi_sweeps."""
    n, d = stack.n_nodes, stack.dimension
    x = np.asarray(x, dtype=float).reshape(n, d)
    mu = np.asarray(mu, dtype=float).reshape(n, d)
    xbar = np.asarray(xbar, dtype=float).reshape(n, d)
    for _ in range(tau):
        x = gradient_step(x, xbar, mu, stack.node_grads(x), beta, rho)
        xbar = net.weights_apply(x, d).reshape(n, d)
    return x.reshape(-1), xbar.reshape(-1), n * tau


def _outer_loop(stack, net, cfg, k_max, inner, x0=None, stop=None) -> RunTrace:
    """The outer loop of every variant.

    inner(k, x, mu, xbar) is the inexact primal phase of outer iteration
    k. It receives xbar = (W (x) I) x, may update x and xbar in place, and
    returns (x, xbar, transmissions, grad_evals) with xbar = (W (x) I) x
    again. The dual step mu + alpha (x - xbar) is then mu + alpha (L (x) I) x.
    The run raises once x or mu is not finite, and ends after k_max outer
    iterations or once stop(x, mu, k) holds.
    """
    n, d = stack.n_nodes, stack.dimension
    x = np.zeros(n * d) if x0 is None else np.array(x0, dtype=float)
    blocks = x.reshape(n, d)
    if np.max(np.abs(blocks - blocks[0])) > 0:
        raise ConfigError("primal initialization must be equal across nodes")
    mu = np.zeros(n * d)
    xbar = net.weights_apply(x, d)
    trace = RunTrace(n_nodes=n)
    tx = ge = 0
    t0 = time.perf_counter()
    trace.record(x, mu, tx, ge, 0.0)
    for k in range(1, k_max + 1):
        x, xbar, sent, grads = inner(k, x, mu, xbar)
        tx += sent
        ge += grads
        mu = mu + cfg.alpha * (x - xbar)
        if not (np.isfinite(x).all() and np.isfinite(mu).all()):
            raise FloatingPointError(f"iterates are not finite at outer iteration k={k}")
        trace.record(x, mu, tx, ge, time.perf_counter() - t0)
        if stop is not None and stop(x, mu, k):
            break
    return trace


def sample_poisson_schedule(n, tau, k_max, seed) -> list[PoissonSchedule]:
    """k_max outer iterations of Poisson ticks.

    The superposition of N unit-rate clocks over an interval of length tau
    is a Poisson(N tau) tick count with iid uniform node labels, which is
    what is drawn here (cheaper than simulating N streams, identically
    distributed).
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    ticks = itertools.islice(_poisson_ticks(n, tau, seed), k_max)
    return [PoissonSchedule(nodes=nodes) for nodes in ticks]


def _poisson_ticks(n, tau, seed):
    """The ticking nodes of outer iterations 1, 2, ..., drawn one iteration
    at a time from one generator: first the count, then the node labels."""
    rng = np.random.default_rng(seed)
    while True:
        ticks = int(rng.poisson(n * tau))
        yield rng.integers(0, n, size=ticks)


def _tick_phase(stack, net, cfg, k_max, schedule):
    """The primal phase of the randomized variants: the ticks of outer
    iteration k in order, from schedule[k - 1] or, without a schedule,
    drawn as sample_poisson_schedule would when the loop reaches k.

    A ticking node reads its neighbors' current blocks and updates its own:
    ticks(nodes, x, mu) -> grad_evals runs the ticks in place on (N, d)
    views, each reading (W x)_i from x as it stands, so no neighbor
    averages are kept between ticks. A Gauss-Seidel tick solves its prox
    problem with v_i = mu_i - (rho W)_i x. A node reads only its neighbors,
    since NetworkModel guarantees that W vanishes off the graph. The phase
    returns xbar = (W (x) I) x for the dual step."""
    n, d = stack.n_nodes, stack.dimension
    if schedule is None:
        draws = _poisson_ticks(n, cfg.tau, cfg.seed)
    elif len(schedule) < k_max:
        raise ConfigError("schedule shorter than k_max")
    else:
        draws = (s.nodes for s in schedule)
    weights = net.weights.entries
    if cfg.variant == "rand_gradient":
        gradient_ticks = node_gradient_step(stack, weights, cfg.beta, cfg.rho)

        def ticks(nodes, x, mu):
            gradient_ticks(nodes, x, mu)
            return len(nodes)  # one gradient evaluation per tick
    else:
        solve = node_prox_solver(stack, cfg.rho, cfg.epsilon)
        rho_weights = list(cfg.rho * weights)  # rows (rho W)_i

        def ticks(nodes, x, mu):
            grads = 0
            for i in nodes:
                x[i], g = solve(i, mu[i] - rho_weights[i].dot(x), x[i])
                grads += g
            return grads

    def inner(k, x, mu, xbar):
        nodes = next(draws).tolist()
        grads = ticks(nodes, x.reshape(n, d), mu.reshape(n, d))  # x updated in place
        return x, net.weights_apply(x, d), len(nodes), grads

    return inner


def run_inexact_al(stack, net, cfg: AlgorithmConfig, inner_policy, k_max, x0=None) -> RunTrace:
    """Inexact AL with any primal policy, through the loop every variant runs.

    inner_policy(x, mu) -> x_next produces the new stacked primal; the dual
    then ascends along (L (x) I) x_next. The policy's communication and
    gradient work are not counted: both trace columns stay 0.
    """
    d = stack.dimension

    def inner(k, x, mu, xbar):
        x = np.asarray(inner_policy(x, mu), dtype=float)
        return x, net.weights_apply(x, d), 0, 0

    return _outer_loop(stack, net, cfg, k_max, inner, x0)


def run_variant(stack, net, cfg: AlgorithmConfig, k_max, x0=None, stop=None,
                schedule=None) -> RunTrace:
    """Run cfg.variant: its primal phase and the dual step, k_max times.

    The deterministic variants run tau synchronized sweeps per outer
    iteration; each node broadcasts once per sweep. The randomized ones
    run the Poisson ticks of the iteration, from schedule when one is
    given (a list of at least k_max PoissonSchedule); only they take one.
    """
    check_beta(cfg, stack)
    if cfg.variant.startswith("rand_"):
        inner = _tick_phase(stack, net, cfg, k_max, schedule)
    elif schedule is not None:
        raise ConfigError(f"{cfg.variant} takes no tick schedule")
    else:
        if cfg.variant == "det_jacobi":
            sweeps, step = jacobi_sweeps, node_prox_solver(stack, cfg.rho, cfg.epsilon)
        else:
            sweeps, step = gradient_sweeps, cfg.beta

        def inner(k, x, mu, xbar):
            x, xbar, grads = sweeps(stack, net, x, mu, cfg.rho, cfg.tau, step, xbar)
            return x, xbar, stack.n_nodes * cfg.tau, grads

    return _outer_loop(stack, net, cfg, k_max, inner, x0, stop)


def write_trace_csv(path, trace: RunTrace, rel_cost_error, primal_error_norm, lyapunov_value):
    """Serialize one run: fixed header, one row per outer iteration.

    Metric columns are precomputed arrays aligned with the trace rows
    (the trace itself has no access to the reference solution). Floats are
    written with 17 significant digits so identical runs produce
    byte-identical files. A non-finite value is refused before the file
    is opened.
    """
    n_rows = len(trace.xs)
    if trace.n_nodes < 1:
        raise ValueError("trace is missing its node count")
    dual_sum = [np.linalg.norm(mu.reshape(trace.n_nodes, -1).sum(axis=0)) for mu in trace.mus]
    cols = (rel_cost_error, primal_error_norm, dual_sum, lyapunov_value)
    if any(len(col) != n_rows for col in cols):
        raise ValueError("metric column length mismatch")
    table = np.column_stack([np.asarray(col, dtype=float) for col in cols])
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        k, j = bad[0]
        name = TRACE_HEADER.split(",")[3 + j]
        raise ValueError(f"{name} is not finite in trace row k={k}: {table[k, j]}")
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for k, row in enumerate(table.tolist()):
            values = ",".join(f"{v:.17g}" for v in row)
            fh.write(f"{k},{trace.transmissions[k]},{trace.grad_evals[k]},{values}\n")


def read_trace_csv(path):
    """Load the columns of a trace CSV as a dict of numpy arrays."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header in {path}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = TRACE_HEADER.split(",")
    data = {c: np.array([float(r[i]) for r in rows]) for i, c in enumerate(cols)}
    data["k"] = data["k"].astype(int)
    return data
