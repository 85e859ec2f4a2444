"""Interpolation of slow variables inside one global step.

`slow_interpolant` is the data form: it consumes the vectors produced by
an actual step (endpoint states, endpoint derivatives, or stage
derivatives) and gives the power-basis coefficients in tau of chosen
columns, the one form the adaptive controller reads.  A fast sub-problem
evaluates them by Horner on Python floats, and the output sampler by
`power_rows`, the one evaluator over an array of tau.  On y' = Ly the same
kinds are the matrices Q(tau) acting on u_n, which `_linops` builds for
the multi-rate amplification matrix; the two agree to round-off.
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


def power_rows(C, tau, out=None):
    """Rows of power-basis coefficients at each tau of a 1-D array.

    ``C`` is a (p + 1, n) array of `slow_interpolant`'s coefficients,
    highest power first; the result is the (m, n) array of
    sum_j C[j] tau**(p - j), written into ``out`` when one is given, and
    tau is not checked.  The power row [tau**p, ..., tau, 1] of each tau is
    formed by repeated multiplication, and each row is its own
    (1, p + 1) @ (p + 1, n) product (one (m, p + 1) @ (p + 1, n) product
    would sum in another order), so a row is the same bits alone or in any
    array, and tau = 0 gives the constant row C[-1] exactly.
    """
    powers = np.empty((len(tau), 1, len(C)))
    powers[:, 0, -1] = 1.0
    for j in range(len(C) - 2, -1, -1):
        np.multiply(powers[:, 0, j + 1], tau, out=powers[:, 0, j])
    if out is None:
        out = np.empty((len(tau), C.shape[1]))
    np.matmul(powers, C, out=out[:, None])
    return out


def slow_interpolant(kind: InterpolatorKind, u_n, u_next, h, f_n=None,
                     f_next=None, K=None, dense=None):
    """Data-form interpolant of one step [t_n, t_n + h] as its
    power-basis coefficients in tau = (t - t_n)/h.

    Returns ``coeffs(cols)``: for ``cols`` an index array or a slice, the
    (p + 1, len(cols)) float array whose column j holds the coefficients of
    column cols[j]'s polynomial in tau, from the highest power down to the
    constant term u_n[cols[j]].  A fast sub-problem evaluates them by
    Horner on Python floats and the output sampler by `power_rows`.
    ``linear`` reads the endpoint states, ``hermite`` also the endpoint
    derivatives ``f_n``/``f_next``, and ``dense`` the stage derivatives
    ``K`` with the method's continuous-output coefficients ``dense``.

    Every entry is formed elementwise in a fixed order, so it does not
    depend on the other columns: u_next - u_n and u_n for ``linear``; the
    textbook cubic expansion of the Hermite basis for ``hermite``; and for
    ``dense`` h (B*^T K[:, cols]), accumulated stage by stage from 0.0
    (not by a BLAS kernel, whose order and fused multiply-adds vary between
    builds), then u_n.
    """
    if kind.kind == "dense":
        # Each stage's weights of tau**p down to tau as a column:
        # B_star[:, j] weighs tau**(j + 1).
        weights = dense.B_star[:, ::-1, None]
        p = weights.shape[1]

        def coeffs(cols):
            a = u_n[cols]
            C = np.empty((p + 1, len(a)))
            # A reduction over the outer (stage) axis adds whole rows in
            # stage order; numpy sums pairwise only along the inner axis.
            np.add.reduce(weights * K[:, cols][:, None], axis=0,
                          out=C[:p], initial=0.0)
            C[:p] *= h
            C[p] = a
            return C
    elif kind.kind == "linear":
        def coeffs(cols):
            a = u_n[cols]
            return np.vstack((u_next[cols] - a, a))
    else:
        def coeffs(cols):
            # (1 + 2t)(1 - t)^2 a + (3 - 2t)t^2 b + ht(1 - t)^2 fa
            # + h(t - 1)t^2 fb, expanded in powers of t.
            a, b = u_n[cols], u_next[cols]
            ha, hb = h * f_n[cols], h * f_next[cols]
            return np.vstack((2.0 * (a - b) + (ha + hb),
                              3.0 * (b - a) - (2.0 * ha + hb), ha, a))
    return coeffs
