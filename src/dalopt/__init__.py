"""Distributed augmented-Lagrangian consensus optimization simulator.

Library + CLI for running four distributed augmented-Lagrangian algorithm
variants over simulated networks and for computing/validating their linear
convergence-rate certificates.
"""

from .almethods import (
    AlgorithmConfig,
    PoissonSchedule,
    RunTrace,
    run_inexact_al,
    run_variant,
    sample_poisson_schedule,
)
from .harness import (
    ExperimentConfig,
    ReferenceSolution,
    generate_logistic_data,
    generate_quadratic_stack,
    reference_solve,
    relative_cost_error,
    run_experiment,
)
from .local_solve import exact_al_minimizer
from .network import (
    Graph,
    LaplacianSpectrum,
    NetworkModel,
    WeightMatrix,
    build_chain_graph,
    build_complete_graph,
    build_geometric_graph,
    build_network,
    metropolis_weights,
    scale_weights,
    spectrum,
)
from .objective import (
    LogisticCost,
    ObjectiveStack,
    QuadraticCost,
    grad_stack,
)
from .theory import (
    RateCertificate,
    SaddlePoint,
    certificate,
    eta_rand_gradient,
    eta_rand_gs,
    lyapunov_value,
    saddle_point,
    saddle_residuals,
    select_tau,
    xi_det_gradient,
    xi_det_jacobi,
)

__version__ = "0.1.0"  # the only copy; pyproject.toml reads it
