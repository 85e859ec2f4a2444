"""Outside-in span tracing of mrrk's layers.

`instrument` swaps the module attributes each layer is entered through for
recording wrappers and restores them on exit; nothing in ``src/`` changes.
Problem callables are wrapped by rebuilding the problem with
`dataclasses.replace`.  Spans (name, start, end, parent, failed) are kept
in flat in-memory arrays and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from dataclasses import replace
from time import perf_counter

import numpy as np

from mrrk import _linops, adapt, newton, stability

# Every entry point the per-layer metrics report, in output order.  The
# `.sr`/`.mr` roots are the benchmark's own adapt.integrate calls;
# odecore.rk_step is split by caller: `.fast` inside multirate_step.
ENTRIES = (
    "adapt.integrate.sr",
    "adapt.integrate.mr",
    "adapt.select_partition",
    "adapt.multirate_step",
    "adapt._OutputSampler.commit_step",
    "odecore.rk_step.global",
    "odecore.rk_step.fast",
    "newton.solve_stage",
    "newton.JacobianCache.solve",
    "newton.JacobianCache.refresh",
    "bench.rhs",
    "bench.rhs_restricted",
    "bench.jacobian",
    "bench.jacobian_restricted",
    "interp.slow_value",
    "stability.table_entry",
    "stability.rho_curve",
    "linops.multirate_matrix",
    "linops.interp_matrices",
    "linops.spectral_radii",
)
_ID = {name: i for i, name in enumerate(ENTRIES)}
PROBLEM_CALLABLES = ("rhs", "rhs_restricted", "jacobian",
                     "jacobian_restricted")


class Tracer:
    """Flat span store; one open-span stack gives each span its parent."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = []
        self._open = [0] * len(ENTRIES)

    def inside(self, name: str) -> bool:
        return self._open[_ID[name]] > 0

    def call(self, nid: int, fn, args, kw):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self._open[nid] += 1
        self.start.append(perf_counter())
        try:
            return fn(*args, **kw)
        except BaseException:
            self.failed[i] = 1
            raise
        finally:
            self.end[i] = perf_counter()
            self._open[nid] -= 1
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = _ID[name]

        def traced(*args, **kw):
            return self.call(nid, fn, args, kw)
        return traced

    def wrap_problem(self, problem):
        """The problem with its RHS and Jacobian callables traced."""
        return replace(problem, **{
            attr: self.wrap(f"bench.{attr}", getattr(problem, attr))
            for attr in PROBLEM_CALLABLES
            if getattr(problem, attr) is not None})

    def arrays(self) -> dict:
        return {"names": np.array(ENTRIES),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "failed": np.frombuffer(self.failed, dtype=np.int8)}

    def layer_totals(self) -> dict:
        """Per entry: calls, inclusive seconds, self seconds, failures.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(ENTRIES)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=self_time, minlength=k)
        fails = np.bincount(a["name"], weights=a["failed"], minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]),
                       int(fails[i])) for i, name in enumerate(ENTRIES)}

    def mean_duration_under(self, name: str, root: str) -> float:
        """Mean inclusive seconds of `name` spans whose root span is `root`."""
        a = self.arrays()
        parent = a["parent"]
        # Roots of every span by pointer jumping over the parent array.
        root_of = np.where(parent >= 0, parent, np.arange(len(parent)))
        while True:
            nxt = root_of[root_of]
            if np.array_equal(nxt, root_of):
                break
            root_of = nxt
        sel = ((a["name"] == _ID[name])
               & (a["name"][root_of] == _ID[root]))
        if not np.any(sel):
            return 0.0
        return float(np.mean((a["end"] - a["start"])[sel]))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route mrrk's layer entry points through `tracer` while active."""
    patches = []

    def patch(owner, attr, name):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    patch(adapt, "select_partition", "adapt.select_partition")
    patch(adapt, "multirate_step", "adapt.multirate_step")
    patch(adapt._OutputSampler, "commit_step",
          "adapt._OutputSampler.commit_step")
    patch(newton, "solve_stage", "newton.solve_stage")
    patch(newton.JacobianCache, "solve", "newton.JacobianCache.solve")
    patch(newton.JacobianCache, "refresh", "newton.JacobianCache.refresh")
    patch(stability, "table_entry", "stability.table_entry")
    patch(stability, "rho_curve", "stability.rho_curve")
    patch(_linops, "multirate_matrix", "linops.multirate_matrix")
    patch(_linops, "interp_matrices", "linops.interp_matrices")
    patch(_linops, "spectral_radii", "linops.spectral_radii")

    rk_step = adapt.rk_step
    fast_id, global_id = _ID["odecore.rk_step.fast"], _ID[
        "odecore.rk_step.global"]

    def traced_rk_step(*args, **kw):
        nid = fast_id if tracer.inside("adapt.multirate_step") else global_id
        return tracer.call(nid, rk_step, args, kw)

    make_interpolant = adapt._make_interpolant

    def traced_make_interpolant(*args, **kw):
        make = make_interpolant(*args, **kw)

        def traced_make(cols):
            return tracer.wrap("interp.slow_value", make(cols))
        return traced_make

    patches.append((adapt, "rk_step", rk_step))
    patches.append((adapt, "_make_interpolant", make_interpolant))
    adapt.rk_step = traced_rk_step
    adapt._make_interpolant = traced_make_interpolant
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
