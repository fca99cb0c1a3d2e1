"""Span tracing of curvkit from outside the library.

The tracer replaces each listed public function by a wrapper in every curvkit
module namespace that holds it, because callers look functions up where they
imported them: ``qform`` is called as ``flow.qform``, ``frames.qform`` and
``verify.qform``, ``min_isotropic`` as ``flow.min_isotropic`` and
``cli.min_isotropic``.  One exception: ``bform`` is not replaced inside
``core`` itself, where ``qform`` calls it, so the reaction term's cost stays
in ``qform``'s self time and ``core.bform`` counts the direct callers only.

A wrapper records one span (name, start, end, parent, run id) in memory and,
for the functions whose results carry counts, reads those counts off the
returned object.  Nothing is written until :meth:`Tracer.write_spans`, and
:meth:`Tracer.restore` puts the original functions back.
"""

import functools
import json
import statistics
import time
from collections import defaultdict

# layer module -> public functions traced in it
TRACED = {
    "core": ("qform", "bform", "project_to_curvature"),
    "flow": ("integrate_q_flow", "rk4_step"),
    "frames": ("min_isotropic", "qk_q_bound_check"),
    "spaces": ("curvature_space_basis", "kahler_subspace", "hyperkahler_subspace",
               "sample"),
    "verify": ("run_verification_suite",),
    "tensor_io": ("load_tensor",),
    "cli": ("main",),
}
NOT_REPLACED = {("curvkit.core", "bform")}

# span fields
NAME, START, END, PARENT, RUN = range(5)


def _count_min_isotropic(counts, res):
    values = res.restart_values
    best = res.value
    counts["frames.restarts"] += len(values)
    counts["frames.restart_hits"] += sum(
        abs(v - best) <= 1e-9 * max(1.0, abs(best)) for v in values)
    counts["frames.converged"] += bool(res.converged)


def _count_flow(counts, out):
    trace = out[1]
    counts["flow.steps_accepted"] += trace.steps_accepted
    counts["flow.steps_rejected"] += trace.steps_rejected


def _count_verify(counts, report):
    counts["verify.checks"] += len(report.checks)


OBSERVERS = {
    "frames.min_isotropic": _count_min_isotropic,
    "flow.integrate_q_flow": _count_flow,
    "verify.run_verification_suite": _count_verify,
}


class Tracer:
    """Wraps the traced functions of the imported curvkit between
    :meth:`install` and :meth:`restore`; one rep of a workload is one run id."""

    def __init__(self, modules: dict):
        """``modules`` maps the names of curvkit's imported modules to them."""
        self.spans = []
        self.counts = defaultdict(int)   # of the current run id
        self.run_id = 0
        self._stack = []
        self._patches = []          # (module, attribute, original, wrapper)
        for layer, names in TRACED.items():
            home = modules[f"curvkit.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules.values():
                    if (mod.__name__, fname) in NOT_REPLACED:
                        continue
                    self._patches += [(mod, attr, original, wrapper)
                                      for attr, value in vars(mod).items()
                                      if value is original]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, out)
            return out

        return traced

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> float:
        """Seconds a wrapper adds to one call: the median over ``rounds`` of a
        wrapped no-op's time per call minus the bare no-op's.  The spans it
        records are dropped again."""

        def noop():
            return None

        wrapped = self._wrap("calibrate", noop)
        samples = []
        for _ in range(rounds):
            first = len(self.spans)
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            del self.spans[first:]
            samples.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(samples)

    def begin(self, run_id: int) -> None:
        """Start run id ``run_id``: later spans carry it and counts restart at 0."""
        self.run_id = run_id
        self.counts = defaultdict(int)

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run}) + "\n")

    def run_summary(self, run_id: int) -> dict:
        """Per-function calls and self time, and nesting shares, of one run id."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        monitor_s = flow_s = 0.0
        spans = self.spans
        child_s = defaultdict(float)
        mine = [i for i, s in enumerate(spans) if s[RUN] == run_id]
        for i in mine:
            parent = spans[i][PARENT]
            if parent is not None:
                child_s[parent] += spans[i][END] - spans[i][START]
        for i in mine:
            name, start, end, parent = spans[i][:4]
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]
            if name == "flow.integrate_q_flow":
                flow_s += end - start
            elif name == "frames.min_isotropic" and self._under(i, "flow.integrate_q_flow"):
                monitor_s += end - start
        return {"calls": dict(calls), "self_s": dict(self_s),
                "monitor_s": monitor_s, "flow_s": flow_s}

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False
