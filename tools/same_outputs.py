"""Whether this working tree makes the same output bytes as a git revision.

    python3 tools/same_outputs.py --against REV

Extracts REV with `git archive` into a temporary directory and runs it and
this working tree, each command in a fresh process, on five configs: four
from `perfbench/workloads.py`, replication(0), dense_n200(0), criterion9()
and replication(0) at stop_rel_cost 1e-7, and GEOMETRIC_N400, a geometric
network at N=400 run for two outer iterations, so that the network build
is checked on N x N arrays of about 1 MB. For each
config it runs `dalopt run` and `dalopt certify`, then `dalopt spectrum` on
the saved network.json, and compares every file the run writes with the
certify and spectrum stdout.

Prints "identical" or "different" per file; for a trace CSV that differs it
also names each column that differs, with its largest relative difference.
Exits 1 if any file differs, is missing on one side, or a command fails;
else 0. The criterion-7 config at 1e-7 takes most of the time, about 5 s of
CPU per tree.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import criterion9, dense_n200, replication  # noqa: E402

GEOMETRIC_N400 = {
    "network": {"type": "geometric", "n": 400, "radius": 1.5 * math.sqrt(math.log(400) / 400),
                "seed": 1},
    "objective": {"type": "quadratic", "d": 2, "h_lo": 1.0, "h_hi": 10.0, "seed": 4},
    "algorithms": [
        {"recipe": "section5_jacobi", "tau": 1, "label": "jacobi_tau1"},
        {"recipe": "section5_gradient", "tau": 2, "label": "gradient_tau2"},
        {"recipe": "section5_rand_gs", "tau": 1, "seed": 5, "label": "rand_gs_tau1"},
    ],
    "k_max": 2,
    "epsilon": 1e-6,
}

CONFIGS = {
    "replication": replication(0),
    "dense_n200": dense_n200(0),
    "criterion9": criterion9(),
    "replication_1e-7": dict(replication(0), stop_rel_cost=1e-7),
    "geometric_n400": GEOMETRIC_N400,
}


def dalopt(src, *args):
    """The stdout of `dalopt ARGS`, run on the package under src in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("DALOPT_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, "-m", "dalopt.cli", *args], env=env,
                          capture_output=True)
    if done.returncode:
        sys.exit(f"dalopt {' '.join(args)} with {src} failed:\n{done.stderr.decode()}")
    return done.stdout


def outputs(src, work):
    """{name: bytes} of every output of the configs run on the package under src."""
    files = {}
    for name, cfg in CONFIGS.items():
        config, run = work / f"{name}.json", work / name
        config.write_text(json.dumps(dict(cfg, output_dir=str(run))))
        dalopt(src, "run", str(config))
        files[f"{name}/certify stdout"] = dalopt(src, "certify", str(config))
        files[f"{name}/spectrum stdout"] = dalopt(src, "spectrum", str(run / "network.json"))
        for path in sorted(run.rglob("*")):
            if path.is_file():
                files[f"{name}/{path.relative_to(run)}"] = path.read_bytes()
    return files


def column_differences(old, new):
    """Lines naming each column of two trace CSVs that differs."""
    rows = [list(csv.reader(io.StringIO(text.decode()))) for text in (old, new)]
    if rows[0][0] != rows[1][0] or len(rows[0]) != len(rows[1]):
        return ["  header or row count differs"]
    lines = []
    for j, column in enumerate(rows[0][0]):
        pairs = [(float(a[j]), float(b[j])) for a, b in zip(rows[0][1:], rows[1][1:])
                 if a[j] != b[j]]
        if pairs:
            largest = max(abs(a - b) / (max(abs(a), abs(b)) or 1.0) for a, b in pairs)
            lines.append(f"  {column}: {len(pairs)} rows differ, "
                         f"largest relative difference {largest:.3g}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 capture_output=True)
        if archive.returncode:
            sys.exit(f"git archive {args.against} failed:\n{archive.stderr.decode()}")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        trees = {}
        for side, src in (("rev", tmp / "rev" / "src"), ("tree", ROOT / "src")):
            (tmp / f"{side}_out").mkdir()
            trees[side] = outputs(src, tmp / f"{side}_out")
    old, new = trees["rev"], trees["tree"]
    different = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            print(f"{name}: only in {'this tree' if name in new else args.against}")
        elif old[name] == new[name]:
            print(f"{name}: identical")
            continue
        else:
            print(f"{name}: different")
            if name.endswith(".csv"):
                print("\n".join(column_differences(old[name], new[name])))
        different += 1
    print(f"{len(old.keys() | new.keys()) - different} identical, {different} different "
          f"against {args.against}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
