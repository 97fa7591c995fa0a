"""Command-line interface.

Subcommands:
  run <config.json>      full experiment (traces, certificates, plots)
  certify <config.json>  certificates only, printed to stdout
  spectrum <network.json> Laplacian spectrum of a saved network

Exit code 0 on success; 1 with a stage-named diagnostic on failure. The
DALOPT_OUTPUT_DIR environment variable overrides the config's output
directory.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .harness import ExperimentConfig, StageError, build_problem, run_experiment
from .network import load_network


def _cmd_run(args):
    cfg = ExperimentConfig.from_file(args.config)
    out = run_experiment(cfg)
    print(f"experiment complete: {out}")
    return 0


def _cmd_certify(args):
    *_, algorithms = build_problem(ExperimentConfig.from_file(args.config))
    for acfg, cert in algorithms:
        print(f"algorithm: {acfg.name} ({acfg.variant}), tau={acfg.tau}")
        print(cert.report())
    return 0


def _cmd_spectrum(args):
    try:
        net = load_network(args.network)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise StageError("network", f"cannot load {args.network}: {exc}") from exc
    print(f"nodes: {net.node_count}")
    print(f"links: {net.graph.link_count}")
    print(f"lambda2: {net.lambda2:.17g}")
    print(f"lambda_max: {net.lambda_max:.17g}")
    vals = ", ".join(f"{v:.12g}" for v in net.eigvals_reduced)
    print(f"reduced eigenvalues: {vals}")
    return 0


@functools.cache
def _parser():  # one per process: main is called many times in-process
    parser = argparse.ArgumentParser(prog="dalopt", description="Distributed "
                                     "augmented-Lagrangian consensus optimization simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a full experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config file")
    p_run.set_defaults(func=_cmd_run)
    p_cert = sub.add_parser("certify", help="print rate certificates for a config")
    p_cert.add_argument("config", help="path to the experiment config file")
    p_cert.set_defaults(func=_cmd_certify)
    p_spec = sub.add_parser("spectrum", help="print the spectrum of a saved network")
    p_spec.add_argument("network", help="path to a network JSON file")
    p_spec.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
