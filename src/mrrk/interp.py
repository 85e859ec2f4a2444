"""Interpolation of slow variables inside one global step.

Two dual representations are provided.  The data form consumes the
vectors produced by an actual step (endpoint states, endpoint derivatives,
or stage derivatives) and is what the adaptive controller uses.  The
operator form produces the matrix Q(tau) acting on u_n for the linear
problem y' = Ly, which is the building block of the multi-rate
amplification matrix.  On linear problems the two forms agree to round-off
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linops
from .tableaux import ButcherTableau

KINDS = ("linear", "hermite", "dense")


@dataclass(frozen=True)
class InterpolatorKind:
    """Selected interpolation scheme for slow variables.

    ``linear`` needs the two endpoint states; ``hermite`` additionally
    needs the endpoint derivatives; ``dense`` needs the stage derivative
    vectors retained from the step, plus the method's continuous-output
    coefficients.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown interpolation kind {self.kind!r}; "
                f"expected one of {KINDS}")


LINEAR = InterpolatorKind("linear")
HERMITE = InterpolatorKind("hermite")
DENSE = InterpolatorKind("dense")


def _check_tau(tau):
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0) or np.any(tau > 1.0):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return tau


def _hermite_rows(tau, h, data, out=None):
    """Hermite rows of an array of tau, each computed as for one tau.

    The coefficients of each tau are computed with Python floats, squares
    included (Python's ``**`` and numpy's array square may differ in the
    last bit), then the four terms are accumulated into ``out`` in a fixed
    order, so a row does not depend on the other taus of the array.
    """
    tl = tau.tolist()
    s0 = np.array([(1.0 - t) ** 2 for t in tl])[:, None]
    s1 = np.array([t**2 for t in tl])[:, None]
    tau = tau[:, None]
    coeffs = ((1.0 + 2.0 * tau) * s0, (3.0 - 2.0 * tau) * s1,
              h * tau * s0, h * (tau - 1.0) * s1)
    out = np.multiply(coeffs[0], data[0], out=out)
    term = np.empty_like(out)
    for c, v in zip(coeffs[1:], data[1:]):
        out += np.multiply(c, v, out=term)
    return out


def slow_interpolant(kind: InterpolatorKind, u_n, u_next, h, f_n=None,
                     f_next=None, K=None, dense=None):
    """Data-form interpolant of one step [t_n, t_n + h] as a builder.

    Returns make(cols) -> interp, where ``interp(tau, out=None)`` gives
    the values at t_n + tau*h restricted to ``cols`` (an index array or a
    slice) for a 1-D array of m taus, as an (m, len(cols)) array written
    into ``out`` when one is given; tau is not checked.  ``linear`` reads
    the endpoint states, ``hermite`` also the endpoint derivatives
    ``f_n``/``f_next``, and ``dense`` the stage derivatives ``K`` with the
    method's continuous-output coefficients ``dense``.

    Each row is computed as if its tau came alone, so a row is the same
    bits in any array: ``linear`` and ``hermite`` broadcast their tau
    coefficients over the rows, and ``dense`` makes one ``weights`` call
    and one stack of (1, s) @ (s, n) products with the stage derivatives.
    The dense kind reads ``K[:, cols]`` column-major, which copies K for a
    slice.
    """
    if kind.kind == "dense":
        def make(cols):
            # Column-major, as K[:, cols] of an index array already is: the
            # product w @ Kc sums the stages in another order for a
            # row-major Kc, so every column set reads K the same way.
            Kc = np.asfortranarray(K[:, cols])
            u0 = u_n[cols]

            def interp(tau, out=None):
                if out is None:
                    out = np.empty((len(tau), Kc.shape[1]))
                np.matmul(dense.weights(tau)[:, None], Kc, out=out[:, None])
                out *= h
                out += u0
                return out
            return interp
    elif kind.kind == "linear":
        def make(cols):
            a, bb = u_n[cols], u_next[cols]

            def interp(tau, out=None):
                tau = tau[:, None]
                out = np.multiply(1.0 - tau, a, out=out)
                out += tau * bb
                return out
            return interp
    else:
        def make(cols):
            data = (u_n[cols], u_next[cols], f_n[cols], f_next[cols])
            return lambda tau, out=None: _hermite_rows(tau, h, data, out)
    return make


def interp_value(kind: InterpolatorKind, u_n, u_next, f_n=None, f_next=None,
                 K=None, dense=None, h: float | None = None, tau=0.0):
    """Interpolated state at t_n + tau*h from one step's data.

    ``f_n``/``f_next`` are the endpoint derivatives (required for
    ``hermite``); ``K`` holds the step's stage derivatives and ``dense``
    the method's continuous-output coefficients (both required for
    ``dense``).  ``tau`` may be a scalar, giving one state, or a 1-D
    array, giving one row per tau; both go through the one array
    evaluation of `slow_interpolant`.
    """
    tau = _check_tau(tau)
    if tau.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-D array")
    if kind.kind == "hermite":
        if f_n is None or f_next is None or h is None:
            raise ValueError("hermite interpolation requires endpoint "
                             "derivatives f_n, f_next and the step size")
        f_n = np.asarray(f_n, dtype=float)
        f_next = np.asarray(f_next, dtype=float)
    elif kind.kind == "dense":
        if K is None or dense is None or h is None:
            raise ValueError("dense interpolation requires the stage "
                             "derivatives, continuous-output coefficients "
                             "and the step size")
    interp = slow_interpolant(kind, np.asarray(u_n, dtype=float),
                              np.asarray(u_next, dtype=float), h, f_n,
                              f_next, K, dense)(slice(None))
    rows = interp(np.atleast_1d(tau))
    return rows if tau.ndim else rows[0]


def interp_operator(kind: InterpolatorKind, L: np.ndarray, h: float,
                    method: ButcherTableau, tau: float) -> np.ndarray:
    """Matrix Q(tau) with Q(tau) u_n = interp_value(...) on y' = Ly.

    Endpoint identities: Q(0) = I for every kind, and Q(1) = R(hL) for the
    linear and hermite kinds (and for dense when the method's continuous
    output is endpoint-consistent).
    """
    tau = float(_check_tau(tau))
    L = np.asarray(L, dtype=float)
    out = _linops.interp_matrices(
        kind.kind, L[None], np.array([h], dtype=float), method,
        np.array([tau]))
    return out[0, 0]
