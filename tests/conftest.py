import os

# Tests run with one BLAS thread, set before numpy is first imported: the
# thread count changes results (heating SR accepts one step more with the
# default threads) and, on a loaded machine, run time by an order of
# magnitude.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from mrrk.adapt import SolverConfig
from mrrk.odecore import OdeProblem


def make_linear_problem(L, y0=None, t_span=(0.0, 1.0), name="linear"):
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if y0 is None:
        y0 = np.ones(n)
    nz = [tuple(np.nonzero(L[i])[0]) or (i,) for i in range(n)]
    return OdeProblem(
        N=n,
        rhs=lambda y, t, out: np.matmul(L, y, out=out),
        t_span=t_span,
        y0=np.asarray(y0, dtype=float),
        dependency=lambda i: nz[i],
        jacobian=lambda y, t: L,
        name=name,
    )


def counting_problem(problem):
    """``problem`` with its RHS and Jacobian callables counting their calls.

    Returns (problem, calls), ``calls`` mapping each of the four callable
    fields to its call count; fields that are None stay None.
    """
    calls = dict.fromkeys(("rhs", "rhs_restricted", "jacobian",
                           "jacobian_restricted"), 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted
    return replace(problem, **{name: counting(name, getattr(problem, name))
                               for name in calls
                               if getattr(problem, name) is not None}), calls


@pytest.fixture
def tight_newton():
    return SolverConfig(newton_max_iters=50, rtol=1e-12, atol=1e-12)


def interp_round_off(kind, u_n, u_next=None, h=None, f_n=None, f_next=None,
                     K=None, dense=None):
    """Per-column round-off bound of a slow interpolant's values: 8 eps
    times the absolute size of the kind's data, |u_n| + |u_next| for
    linear, plus h |f_n| + h |f_next| for Hermite, and
    |u_n| + h sum_k sum_j |B*_kj| |K_k| for dense."""
    if kind == "linear":
        scale = np.abs(u_n) + np.abs(u_next)
    elif kind == "hermite":
        scale = (np.abs(u_n) + np.abs(u_next)
                 + h * (np.abs(f_n) + np.abs(f_next)))
    else:
        scale = (np.abs(u_n)
                 + h * np.abs(dense).sum(axis=1) @ np.abs(K))
    return 8.0 * np.finfo(float).eps * scale
