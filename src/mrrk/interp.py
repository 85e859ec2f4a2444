"""Interpolation of slow variables inside one global step.

`slow_interpolant` is the data form: it consumes the vectors produced by
an actual step (endpoint states, endpoint derivatives, or stage
derivatives) and is what the adaptive controller and its output sampler
use.  On y' = Ly the same kinds are the matrices Q(tau) acting on u_n,
which `_linops` builds for the multi-rate amplification matrix; the two
agree to round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Data-form interpolant of one step [t_n, t_n + h] as two builders.

    Returns (make, coeffs).  ``make(cols)`` gives ``interp(tau, out=None)``,
    the product form: the values at t_n + tau*h restricted to ``cols`` (an
    index array or a slice) for a 1-D array of m taus, as an
    (m, len(cols)) array written into ``out`` when one is given; tau is not
    checked.  ``coeffs(cols)``, for an index array, gives the power-basis
    form: one list of Python floats per column, the coefficients of the
    column's polynomial in tau from the highest power down to the constant
    term u_n[col], for a Horner recurrence v = v*tau + c over the list.
    ``linear`` reads the endpoint states, ``hermite`` also the endpoint
    derivatives ``f_n``/``f_next``, and ``dense`` the stage derivatives
    ``K`` with the method's continuous-output coefficients ``dense``.

    Each row of the product form is computed as if its tau came alone, so
    a row is the same bits in any array: ``linear`` and ``hermite``
    broadcast their tau coefficients over the rows, and ``dense`` makes one
    ``weights`` call and one stack of (1, s) @ (s, n) products with the
    stage derivatives.  The dense kind reads ``K[:, cols]`` column-major,
    which copies K for a slice.  The power-basis coefficients are
    h (B*^T K[:, cols]), summed over the stages in order on Python floats,
    and u_n for ``dense``; u_next - u_n and u_n for ``linear``; and the
    textbook cubic expansion of the Hermite basis for ``hermite``.  The two
    forms agree to round-off, not bitwise.
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

        def coeffs(cols):
            # Summed on Python floats in stage order, not by a BLAS kernel,
            # whose order and fused multiply-adds vary between builds.
            # B_star[:, j] weighs tau**(j + 1); highest power first.
            Bt = dense.B_star.T.tolist()[::-1]
            out = []
            for kc, a in zip(K[:, cols].T.tolist(), u_n[cols].tolist()):
                col = []
                for row in Bt:
                    v = 0.0
                    for b, k in zip(row, kc):
                        v += b * k
                    col.append(h * v)
                out.append(col + [a])
            return out
    elif kind.kind == "linear":
        def make(cols):
            a, bb = u_n[cols], u_next[cols]

            def interp(tau, out=None):
                tau = tau[:, None]
                out = np.multiply(1.0 - tau, a, out=out)
                out += tau * bb
                return out
            return interp

        def coeffs(cols):
            a = u_n[cols]
            return np.column_stack((u_next[cols] - a, a)).tolist()
    else:
        def make(cols):
            data = (u_n[cols], u_next[cols], f_n[cols], f_next[cols])
            return lambda tau, out=None: _hermite_rows(tau, h, data, out)

        def coeffs(cols):
            # (1 + 2t)(1 - t)^2 a + (3 - 2t)t^2 b + ht(1 - t)^2 fa
            # + h(t - 1)t^2 fb, expanded in powers of t.
            a, b = u_n[cols], u_next[cols]
            ha, hb = h * f_n[cols], h * f_next[cols]
            return np.column_stack((2.0 * (a - b) + (ha + hb),
                                    3.0 * (b - a) - (2.0 * ha + hb), ha,
                                    a)).tolist()
    return make, coeffs

