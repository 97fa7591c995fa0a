"""The samples of one benchmark run, all in this one fresh process.

    python3 perfbench/worker.py CONFIG WORKDIR --seconds S [--min-samples M] [--trace]

CONFIG is a `dalopt` experiment config without `output_dir`. Sample i
writes its config to WORKDIR/config{i}.json and its outputs to
WORKDIR/sample{i}, and calls `dalopt run` on it in-process. Untraced, each
sample then calls `dalopt certify` on the same config repeatedly, until
CERTIFY_S seconds have gone on it (at least once). With --trace, samples alternate
an untraced and a traced run (see tracing.py) and `dalopt certify` is not
called; the spans of the last traced run go to WORKDIR/spans.csv.gz.

One untimed `dalopt certify` warms the process up first. Samples are taken
until S seconds have passed since the process started, at least M of them
(M pairs with --trace); none starts that would likely end past S. Prints
one JSON line: the versions, the peak resident memory of the process right
after its first `dalopt run`, and per sample its run's wall time and exit
status, the certify wall times and the last certify output, and for a
traced run the span totals. The caller pins BLAS to one thread and puts the package
on PYTHONPATH; it checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

CERTIFY_S = 0.5


def call(main, argv):
    """main(argv) with its output captured: (status, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash of the program under test is a result
        return "raised", out.getvalue(), traceback.format_exc(limit=3)
    status = "ok" if code in (0, None) else f"exit {code}"
    return status, out.getvalue(), err.getvalue().strip()


def timed(main, argv):
    start = time.perf_counter()
    status, out, error = call(main, argv)
    return status, out, error, time.perf_counter() - start


class Sampler:
    def __init__(self, cfg, work, certify):
        from dalopt import cli

        self.main, self.cfg, self.work, self.certify = cli.main, cfg, work, certify
        self.samples = []
        self.peak_rss_mb = None

    def config(self, index):
        path = self.work / f"config{index}.json"
        path.write_text(json.dumps(dict(self.cfg, output_dir=str(self.work / f"sample{index}"))))
        return str(path)

    def sample(self, traced=False):
        index = len(self.samples)
        path = self.config(index)
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer().__enter__()
        status, _, error, wall_s = timed(self.main, ["run", path])
        if tracer is not None:
            tracer.close()
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sample = {"index": index, "traced": traced,
                  "run": {"status": status, "error": error, "wall_s": wall_s},
                  "certify": []}
        if self.certify:
            spent = 0.0
            while not sample["certify"] or spent < CERTIFY_S:
                c_status, c_out, c_error, c_wall = timed(self.main, ["certify", path])
                sample["certify"].append({"status": c_status, "error": c_error, "wall_s": c_wall})
                sample["certify_stdout"] = c_out
                spent += c_wall
        if tracer is not None:
            tracer.write(self.work / "spans.csv.gz")
            by_name, run_s = tracer.totals()
            sample["spans"] = {"totals": by_name, "results": tracer.results, "run_s": run_s,
                               "variants": tracer.variants, "missing": tracer.missing}
        self.samples.append(sample)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("work")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-samples", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    start = time.monotonic()

    import numpy

    cfg = json.loads(Path(args.config).read_text())
    work = Path(args.work)
    sampler = Sampler(cfg, work, certify=not args.trace)
    warm = sampler.config("-warmup")
    call(sampler.main, ["certify", warm])

    units, longest = 0, 0.0
    while True:
        t0 = time.monotonic()
        if args.trace:
            sampler.sample()
            sampler.sample(traced=True)
        else:
            sampler.sample()
        units += 1
        now = time.monotonic()
        longest = max(longest, now - t0)
        if units >= args.min_samples and now + longest > start + args.seconds:
            break
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "peak_rss_mb": sampler.peak_rss_mb,
        "samples": sampler.samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
