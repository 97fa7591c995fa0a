"""Convergence-rate certificates and diagnostic quantities.

Per-variant inner contraction factors, the global linear-rate conditions
and factor r, the primal error bound constant, saddle-point residuals, and
the Lyapunov value whose geometric decay the test suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .almethods import check_beta
from .network import NetworkModel
from .objective import ObjectiveStack, grad_stack, row_dots

__all__ = [
    "RateCertificate",
    "SaddlePoint",
    "RECIPES",
    "xi_det_jacobi",
    "xi_det_gradient",
    "eta_rand_gs",
    "eta_rand_gradient",
    "resolve_recipe",
    "xi_threshold",
    "certificate",
    "error_bounds",
    "saddle_residuals",
    "lyapunov_value",
    "saddle_point",
]


def xi_det_jacobi(rho, h_min, tau) -> float:
    """Inner contraction of tau Jacobi sweeps: (rho/(rho+h_min))^tau."""
    if rho < 0 or h_min <= 0 or tau < 1:
        raise ValueError("need rho >= 0, h_min > 0, tau >= 1")
    return (rho / (rho + h_min)) ** tau


def xi_det_gradient(beta, h_min, tau) -> float:
    """Inner contraction of tau gradient sweeps: (1 - beta h_min)^tau."""
    if not (0.0 < beta * h_min < 1.0):
        raise ValueError("need 0 < beta*h_min < 1")
    if tau < 1:
        raise ValueError("tau >= 1")
    return (1.0 - beta * h_min) ** tau


def eta_rand_gs(n, rho, h_min) -> float:
    """Per-unit-time contraction exponent of randomized single-node prox
    updates: N (1 - sqrt(1 - (1 - delta^2)/N)), delta = rho/(rho+h_min)."""
    if n < 1 or h_min <= 0 or rho < 0:
        raise ValueError("need n >= 1, h_min > 0, rho >= 0")
    delta = rho / (rho + h_min)
    return n * (1.0 - math.sqrt(1.0 - (1.0 - delta * delta) / n))


def eta_rand_gradient(n, beta, h_min) -> float:
    """Exponent of randomized single-node gradient updates:
    N (1 - sqrt(1 - beta h_min (1 - beta h_min)/N))."""
    if not (0.0 < beta * h_min < 1.0):
        raise ValueError("need 0 < beta*h_min < 1")
    arg = beta * h_min * (1.0 - beta * h_min)
    return n * (1.0 - math.sqrt(1.0 - arg / n))


# recipe name -> (variant, section of the paper whose choice of (alpha,
# rho, beta) and rate threshold it follows); see resolve_recipe
RECIPES = {
    "section4_jacobi": ("det_jacobi", 4),
    "section4_gradient": ("det_gradient", 4),
    "section5_jacobi": ("det_jacobi", 5),
    "section5_gradient": ("det_gradient", 5),
    "section5_rand_gs": ("rand_gauss_seidel", 5),
    "section5_rand_gradient": ("rand_gradient", 5),
}
_REPORT_LABELS = {"d_x": "D_x", "d_mu": "D_mu"}  # RateCertificate field -> its report() name


def resolve_recipe(recipe, h_min, h_max, lambda2, n=None):
    """Return (variant, alpha, rho, beta, tau) for a recipe name.

    section4 recipes use rho = h_max and alpha = h_min + rho; section5
    recipes use alpha = rho = h_min. Gradient recipes take
    beta = 1/(rho + h_max). With xi the variant's inner contraction at
    tau = 1 and gamma = h_max/h_min, tau is the ceiling of
    log(lambda2/(6 gamma)) / log(xi) in section 4 and of
    log(lambda2/(3 (1 + gamma))) / log(xi) in section 5, the rate threshold
    lambda2 h_min/(3 (rho + h_max)) at the section's rho. The quotient
    rounds, so tau is then raised until xi^tau, as the certificate
    computes it, is below xi_threshold.
    """
    gamma = h_max / h_min
    if gamma < 1 or not (0.0 < lambda2 <= 1.0):
        raise ValueError("need gamma >= 1 and lambda2 in (0, 1]")
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}")
    variant, section = RECIPES[recipe]
    if n is None and variant.startswith("rand"):
        raise ValueError("randomized recipes need the node count")
    if section == 4:
        rho, alpha = h_max, h_min + h_max
        target = math.log(6.0 * gamma / lambda2)
    else:
        rho = alpha = h_min
        target = math.log(3.0 * (1.0 + gamma) / lambda2)
    beta = 1.0 / (rho + h_max) if variant.endswith("gradient") else None
    contraction = partial(inner_contraction, variant, rho=rho, h_min=h_min, beta=beta, n=n)
    tau = math.ceil(target / -math.log(contraction(tau=1)))
    while contraction(tau=tau) >= xi_threshold(lambda2, h_min, h_max, rho):
        tau += 1
    return variant, alpha, rho, beta, tau


def xi_threshold(lambda2, h_min, h_max, rho):
    """The rate condition's bound on xi: xi < lambda2 h_min / (3 (rho + h_max))."""
    return lambda2 * h_min / (3.0 * (rho + h_max))


def inner_contraction(variant, *, rho, h_min, tau, beta=None, n=None) -> float:
    """xi for a variant: the factor by which one inner phase shrinks the
    distance to the exact augmented-objective minimizer (in expectation for
    the randomized variants)."""
    if variant == "det_jacobi":
        return xi_det_jacobi(rho, h_min, tau)
    if variant == "det_gradient":
        return xi_det_gradient(beta, h_min, tau)
    if variant == "rand_gauss_seidel":
        return math.exp(-eta_rand_gs(n, rho, h_min) * tau)
    if variant == "rand_gradient":
        return math.exp(-eta_rand_gradient(n, beta, h_min) * tau)
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class RateCertificate:
    """Global linear-rate certificate of one configured run; its fields are
    in the order report() prints them."""

    alpha: float
    rho: float
    lambda2: float
    h_min: float
    h_max: float
    xi: float
    alpha_ok: bool
    xi_ok: bool
    r: float
    d_x: float
    d_mu: float
    bound_constant: float

    def report(self):
        """One line per field, each number to 17 significant digits."""
        lines = ["rate certificate"]
        for name, value in vars(self).items():
            text = value if isinstance(value, (bool, np.bool_)) else f"{value:.17g}"
            lines.append(f"  {_REPORT_LABELS.get(name, name):<14} = {text}")
        return "\n".join(lines) + "\n"


def error_bounds(stack: ObjectiveStack, net: NetworkModel, x_star, x_init=None):
    """(D_x, D_mu, bound_constant) of a problem, which no entry changes: x_star
    is the reference solver's optimum, x_init every node's initial block
    (defaults to zero), and D_mu the RMS of the node gradient norms at x_star."""
    x_star = np.asarray(x_star, dtype=float)
    x_init = np.zeros_like(x_star) if x_init is None else np.asarray(x_init, dtype=float)
    d_x = float(np.linalg.norm(x_init - x_star))
    grads = stack.node_grad_rows(np.tile(x_star, (stack.n_nodes, 1)))
    # each row's norm(grad) ** 2, with ** as libm's pow: an array's square rounds otherwise
    d_mu = math.sqrt(np.mean([g ** 2 for g in np.sqrt(row_dots(grads, grads)).tolist()]))
    lam2, h_min = net.lambda2, stack.h_min
    return d_x, d_mu, math.sqrt(stack.n_nodes) * max(d_x, 2.0 * d_mu / (math.sqrt(lam2) * h_min))


def certificate(cfg, stack: ObjectiveStack, net: NetworkModel, bounds) -> RateCertificate:
    """Evaluate the rate conditions and convergence factor of a config.

    bounds is the problem's error_bounds. The rate conditions are recorded
    on the certificate, not enforced. First, check_beta raises ConfigError
    on a gradient step above 1/(h_max + rho).
    """
    check_beta(cfg, stack)
    h_min, h_max, lam2 = stack.h_min, stack.h_max, net.lambda2
    xi = inner_contraction(
        cfg.variant,
        rho=cfg.rho,
        h_min=h_min,
        tau=cfg.tau,
        beta=cfg.beta,
        n=stack.n_nodes,
    )
    alpha_ok = cfg.alpha <= (h_min + cfg.rho) * (1.0 + 1e-12)
    xi_ok = xi < xi_threshold(lam2, h_min, h_max, cfg.rho)
    r = max(
        0.5 + 1.5 * xi,
        (1.0 - cfg.alpha * lam2 / (cfg.rho + h_max)) + 3.0 * cfg.alpha * xi / h_min,
    )
    d_x, d_mu, bound = bounds
    return RateCertificate(
        xi=xi, alpha_ok=alpha_ok, xi_ok=xi_ok, r=r, d_x=d_x, d_mu=d_mu,
        bound_constant=bound, alpha=cfg.alpha, rho=cfg.rho, lambda2=lam2,
        h_min=h_min, h_max=h_max,
    )


@dataclass(frozen=True, eq=False)
class SaddlePoint:
    """x_bullet = 1 (x) x_star, mu_bullet = -grad F at consensus."""

    x_bullet: np.ndarray
    mu_bullet: np.ndarray


def saddle_point(stack: ObjectiveStack, x_star) -> SaddlePoint:
    x_star = np.asarray(x_star, dtype=float)
    xb = np.tile(x_star, stack.n_nodes)
    return SaddlePoint(x_bullet=xb, mu_bullet=-grad_stack(stack, xb))


def saddle_residuals(stack: ObjectiveStack, net: NetworkModel, x, mu, rho):
    """Norms of the three stationarity equations at (x, mu):

    grad F(x) + mu + rho (L (x) I) x, (L (x) I) x, and the blockwise sum
    of mu.
    """
    d = stack.dimension
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    r1 = grad_stack(stack, x) + mu + rho * net.laplacian_apply(x, d)
    r2 = net.laplacian_apply(x, d)
    r3 = mu.reshape(stack.n_nodes, d).sum(axis=0)
    return (
        float(np.linalg.norm(r1)),
        float(np.linalg.norm(r2)),
        float(np.linalg.norm(r3)),
    )


def lyapunov_value(x, mu, saddle: SaddlePoint, net: NetworkModel, h_min) -> float:
    """max(primal error norm, (2/h_min) * transformed dual error norm).

    The dual error is projected onto the reduced Laplacian eigenbasis and
    scaled by LambdaHat^{-1/2}; this is the pair of quantities that the
    global rate contracts jointly.
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = net.node_count
    d = x.size // n
    primal = float(np.linalg.norm(x - saddle.x_bullet))
    mu_err = (mu - saddle.mu_bullet).reshape(n, d)
    proj = net.q_reduced.T @ mu_err  # (N-1) x d
    scaled = proj / np.sqrt(net.eigvals_reduced)[:, None]
    dual = 2.0 / h_min * float(np.linalg.norm(scaled))
    return max(primal, dual)
