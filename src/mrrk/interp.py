"""Interpolation of slow variables inside one global step.

`slow_interpolant` is the data form: it consumes the vectors produced by
an actual step (endpoint states, endpoint derivatives, or stage
derivatives) and gives the (p + 1, n) array of power-basis coefficients
in tau, the one form the adaptive controller reads, built once per step.
A fast sub-problem evaluates the columns it reads by Horner on Python
floats, and the output sampler all columns by `power_rows`, the one
evaluator over an array of tau.  On y' = Ly every kind is linear in u_n,
so the same code, applied to the step's operators in place of its
vectors, gives the power-basis coefficient matrices of Q(tau) acting on
u_n, from which `_linops` builds the multi-rate amplification matrix.
"""

from __future__ import annotations

import numpy as np

KINDS = ("linear", "hermite", "dense")


class InterpolatorKind(str):
    """Selected interpolation scheme for slow variables: its name, one of
    `KINDS`, checked on construction, so a kind equals its name.

    ``linear`` needs the two endpoint states; ``hermite`` additionally
    needs the endpoint derivatives; ``dense`` needs the stage derivative
    vectors retained from the step, plus the method's continuous-output
    coefficients.
    """

    __slots__ = ()

    def __new__(cls, kind):
        if kind not in KINDS:
            raise ValueError(
                f"unknown interpolation kind {kind!r}; "
                f"expected one of {KINDS}")
        return super().__new__(cls, kind)


LINEAR = InterpolatorKind("linear")
HERMITE = InterpolatorKind("hermite")
DENSE = InterpolatorKind("dense")


def tau_powers(tau, p):
    """The (m, p + 1) power rows [tau**p, ..., tau, 1] of a 1-D array tau,
    formed by repeated multiplication; tau is not checked."""
    powers = np.empty((len(tau), p + 1))
    powers[:, -1] = 1.0
    for j in range(p - 1, -1, -1):
        np.multiply(powers[:, j + 1], tau, out=powers[:, j])
    return powers


def power_rows(C, tau, out=None):
    """Rows of power-basis coefficients at each tau of a 1-D array.

    ``C`` is a (p + 1, n) coefficient array, highest power first, as
    `slow_interpolant` returns it; the result is the (m, n) array of
    sum_j C[j] tau**(p - j), written into ``out`` when one is given, and
    tau is not checked.  Each `tau_powers` row is its own
    (1, p + 1) @ (p + 1, n) product (one (m, p + 1) @ (p + 1, n) product
    would sum in another order), so a row is the same bits alone or in any
    array, and tau = 0 gives the constant row C[-1] exactly.
    """
    if out is None:
        out = np.empty((len(tau), C.shape[1]))
    powers = tau_powers(tau, len(C) - 1).reshape(len(tau), 1, len(C))
    np.matmul(powers, C, out=out[:, None])
    return out


def slow_interpolant(kind: InterpolatorKind, u_n, u_next, h, f_n=None,
                     f_next=None, K=None, dense=None):
    """Data-form interpolant of one step [t_n, t_n + h] as its
    power-basis coefficients in tau = (t - t_n)/h.

    Returns the (p + 1, n) float array whose column j holds the
    coefficients of column j's polynomial in tau, from the highest power
    down to the constant term u_n[j].  A fast sub-problem evaluates its
    slow columns by Horner on Python floats and the output sampler all
    columns by `power_rows`.  ``linear`` reads the endpoint states,
    ``hermite`` also the endpoint derivatives ``f_n``/``f_next``, and
    ``dense`` the stage derivatives ``K`` with the method's
    continuous-output coefficients ``dense``, the (s, p) array B* of
    `tableaux.ButcherTableau.dense`.

    Every entry is formed elementwise in a fixed order, so it does not
    depend on the other columns and ``C[:, cols]`` is what the same data
    restricted to ``cols`` would give: u_next - u_n and u_n for
    ``linear``; the textbook cubic expansion of the Hermite basis for
    ``hermite``; and for ``dense`` h (B*^T K), accumulated stage by stage
    from 0.0 (not by a BLAS kernel, whose order and fused multiply-adds
    vary between builds), then u_n.
    """
    if kind == DENSE:
        # Each stage's weights of tau**p down to tau as a column:
        # B*[:, j] weighs tau**(j + 1).
        weights = dense[:, ::-1, None]
        p = weights.shape[1]
        C = np.empty((p + 1, len(u_n)))
        # A reduction over the outer (stage) axis adds whole rows in stage
        # order; numpy sums pairwise only along the inner axis.
        np.add.reduce(weights * K[:, None], axis=0, out=C[:p], initial=0.0)
        C[:p] *= h
        C[p] = u_n
        return C
    if kind == LINEAR:
        return np.vstack((u_next - u_n, u_n))
    # (1 + 2t)(1 - t)^2 a + (3 - 2t)t^2 b + ht(1 - t)^2 fa + h(t - 1)t^2 fb,
    # expanded in powers of t.
    a, b = u_n, u_next
    ha, hb = h * f_n, h * f_next
    return np.vstack((2.0 * (a - b) + (ha + hb),
                      3.0 * (b - a) - (2.0 * ha + hb), ha, a))
