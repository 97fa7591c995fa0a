"""Span tracing of dalopt's layers, installed from outside the package.

Each hook wraps one public function or method of a dalopt module and is
bound wherever callers look it up: in every loaded `dalopt` module whose
globals hold the original (the defining module and each module that
imported the name), and on the class that owns a method. A target that no
longer exists is reported as missing instead of failing the run.

Spans are kept in memory as rows
    (id, parent_id, name, group, start_s, end_s, self_s)
and written out when tracing ends. A span's self time is its duration minus
the time covered by its child spans, taken from the span stack. The group
of an `almethods.run_variant` span is the label of the algorithm it runs;
every other span inherits its parent's group ("-" at the top level).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

# span name -> the attributes it wraps, as "module:attribute.path"
HOOKS = {
    "objective.grad": ["dalopt.objective:LogisticCost.grad",
                       "dalopt.objective:QuadraticCost.grad"],
    "objective.value": ["dalopt.objective:LogisticCost.value",
                        "dalopt.objective:QuadraticCost.value"],
    "local_solve.prox_local_info": ["dalopt.local_solve:prox_local_info"],
    "local_solve.gradient_step_local": ["dalopt.local_solve:gradient_step_local"],
    "almethods.run_variant": ["dalopt.almethods:run_variant"],
    "almethods.jacobi_sweeps": ["dalopt.almethods:jacobi_sweeps"],
    "almethods.gradient_sweeps": ["dalopt.almethods:gradient_sweeps"],
    "almethods.write_trace_csv": ["dalopt.almethods:write_trace_csv"],
    "network.weights_apply": ["dalopt.network:NetworkModel.weights_apply"],
    "network.build_geometric_graph": ["dalopt.network:build_geometric_graph"],
    "network.metropolis_weights": ["dalopt.network:metropolis_weights"],
    "network.spectrum": ["dalopt.network:spectrum"],
    "network.save_network": ["dalopt.network:save_network"],
    "harness.reference_solve": ["dalopt.harness:reference_solve"],
    "harness.relative_cost_error": ["dalopt.harness:relative_cost_error"],
    "harness.trace_metrics": ["dalopt.harness:trace_metrics"],
    "harness.render_plots": ["dalopt.harness:render_plots"],
    "theory.lyapunov_value": ["dalopt.theory:lyapunov_value"],
    "theory.certificate": ["dalopt.theory:certificate"],
    "svgplot.semilog_svg": ["dalopt.svgplot:semilog_svg"],
}

# spans whose result carries a work count, summed into Tracer.results
RESULT_COUNTS = {
    "local_solve.prox_local_info": lambda result: result[1],  # gradient evaluations
}

LABELLED = "almethods.run_variant"  # (stack, net, cfg, k_max, ...)


def _algorithm(args, kwargs):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    return str(getattr(cfg, "name", "?")), str(getattr(cfg, "variant", "?"))


class Tracer:
    """Installs the hooks of `HOOKS` and records spans until `close`.

    Use as a context manager; `close` restores every patched binding.
    """

    def __init__(self, hooks=None):
        self.hooks = HOOKS if hooks is None else hooks
        self.spans = []
        self.results = {}
        self.variants = {}  # algorithm label -> variant
        self.missing = []  # span names with at least one missing target
        self._stack = []
        self._next_id = 0
        self._restore = []

    def __enter__(self):
        for name, targets in self.hooks.items():
            resolved = [_resolve(t) for t in targets]
            if any(r is None for r in resolved):
                self.missing.append(name)
                continue
            for owner, attr, original in resolved:
                self._patch(owner, attr, original, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        for obj, attr, original, had_own in reversed(self._restore):
            if had_own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._restore.clear()

    def _patch(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            self._restore.append((owner, attr, original, attr in owner.__dict__))
            setattr(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "dalopt" and not name.startswith("dalopt."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original, True))
                    setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = RESULT_COUNTS.get(name)
        labelled = name == LABELLED
        self.results.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if labelled:
                group, variant = _algorithm(args, kwargs)
                self.variants[group] = variant
            else:
                group = parent[1] if parent else "-"
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, group, 0.0]  # id, group, time covered by children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                spans.append((span_id, parent[0] if parent else -1, name, group,
                              start, end, duration - frame[2]))
            if count is not None:
                self.results[name] += count(result)
            return result

        return wrapper

    def write(self, path):
        """Write every span as one CSV row to a gzip file."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,group,start_s,end_s,self_s\n")
            for row in self.spans:
                fh.write("%d,%d,%s,%s,%.9f,%.9f,%.9f\n" % row)

    def totals(self):
        """Per span name: (calls, total_s, self_s); per group: run_variant s."""
        by_name = {name: [0, 0.0, 0.0] for name in self.hooks if name not in self.missing}
        run_s = {}
        for _id, _parent, name, group, start, end, self_s in self.spans:
            t = by_name[name]
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
            if name == LABELLED:
                run_s[group] = run_s.get(group, 0.0) + end - start
        return by_name, run_s


def _resolve(target):
    """(owner, attribute, original) for "module:attr.path", or None."""
    module, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        return None
    return owner, attr, original
