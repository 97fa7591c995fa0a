"""Benchmark workloads: one `dalopt` experiment config per workload and seed.

Each workload is the config the benchmark hands to `dalopt run` and
`dalopt certify`. The seed drives only the Poisson clocks of the randomized
algorithms; the network and the node costs are fixed instances, so a run does
the same amount of work for every seed. (Drawing the quadratic costs of a
d=32 instance from the seed moved its stopping iteration from 48 to 68, a
30% change in work, which would swamp any regression bound.) With
`DEFAULT_SEED` the trace CSVs of a run are also compared with the ones in
`reference/`, recorded from the package as of commit 0e10cb4. Why each
workload was chosen is in the `why` of BENCHMARK.json.
"""

from __future__ import annotations

DEFAULT_SEED = 0


def replication(seed):
    """Acceptance criterion 7's config with its horizon cut to 1e-1."""
    s = 5 + seed
    return {
        "network": {"type": "geometric", "n": 10, "radius": 0.45, "seed": 668},
        "objective": {"type": "logistic", "d": 15, "reg": 3.0, "seed": 11},
        "algorithms": [
            {"recipe": "section5_jacobi", "label": "jacobi"},
            {"recipe": "section5_gradient", "label": "gradient"},
            {"recipe": "section5_rand_gs", "label": "rand_gs", "seed": s},
            {"recipe": "section5_rand_gradient", "label": "rand_gradient", "seed": s},
            {"recipe": "section5_jacobi", "tau": 1, "label": "jacobi_tau1"},
            {"recipe": "section5_gradient", "tau": 1, "alpha": 0.15,
             "label": "gradient_tau1"},
        ],
        "k_max": 1500,
        "epsilon": 1e-7,
        "stop_rel_cost": 1e-1,
    }


def dense_n200(seed):
    """A dense 200-node graph run for 3 outer iterations; the stop test
    (never met) runs at every iteration."""
    return {
        "network": {"type": "geometric", "n": 200, "radius": 0.45, "seed": 2},
        "objective": {"type": "quadratic", "d": 4, "h_lo": 1.0, "h_hi": 10.0,
                      "seed": 9},
        "algorithms": [
            {"recipe": "section5_gradient", "label": "gradient"},
            {"recipe": "section5_jacobi", "tau": 1, "label": "jacobi_tau1"},
            {"recipe": "section5_rand_gs", "tau": 1, "seed": 3 + seed,
             "label": "rand_gs_tau1"},
        ],
        "k_max": 3,
        "epsilon": 1e-6,
        "stop_rel_cost": 1e-12,
    }


WORKLOADS = {
    "replication": replication,
    "dense_n200": dense_n200,
}


def criterion9(seed=DEFAULT_SEED):
    """Acceptance criterion 9's small config (N=6 quadratic, 25 iterations);
    used by the self-tests, not a benchmark workload."""
    return {
        "network": {"type": "geometric", "n": 6, "radius": 0.7, "seed": 3},
        "objective": {"type": "quadratic", "d": 2, "seed": 5, "h_lo": 1.0, "h_hi": 2.0},
        "algorithms": [
            {"recipe": "section5_jacobi"},
            {"recipe": "section5_gradient"},
            {"recipe": "section5_rand_gs", "seed": 2 + seed},
            {"recipe": "section5_rand_gradient", "seed": 2 + seed},
        ],
        "k_max": 25,
        "epsilon": 1e-8,
    }
