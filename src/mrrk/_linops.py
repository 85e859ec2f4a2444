"""Batched linear-algebra kernels for stability analysis.

All kernels act on stacks of matrices: ``L`` has shape (B, n, n) and the
step size ``h`` has shape (B,).  Broadcasting a whole grid of step sizes
through one call keeps parameter scans fast without any explicit
parallelism.  `stability` wraps these kernels with single-model
signatures.

Every slow-variable interpolant is, on y' = Ly, a matrix polynomial

    Q(tau) = sum_j tau**(p - j) C_j

acting on u_n.  `_interp_coeffs` gets the coefficient matrices C_j from
`interp.slow_interpolant` itself, the coefficient array the integrator
builds once per step, applied to the step's operators in place of its
vectors, so the analysed interpolant is the integrated one.  Q for many
tau is then one contraction with the power rows of `interp.tau_powers`,
and so is any product X Q(tau): form X C_j once, then contract.

`multirate_matrix` uses that to collapse the M fast sub-steps of one
multi-rate step.  Within sub-step l the fast stages depend on u_n only
through that sub-step's interpolated slow values, and shifting Q's power
basis writes those as a polynomial of degree p in the sub-step start
l / M.  One DIRK stage recurrence, `_stages`, serves both systems: it
forms the full system's stage products (`stage_products`, from which R
and Q come) and, forced by the slow values, the fast sub-step, once on
arrays of p + 2 column blocks, the responses to the fast start and to
each power, whatever M is.  The coupling between sub-steps is carried by
powers of the fast single-rate matrix C_ff, and the M responses are
summed by one product with the power rows of the sub-step starts.  The
number of numpy calls per step is fixed, apart from the log2(M)
doublings that build the powers of C_ff.
"""

from __future__ import annotations

import math

import numpy as np

from .interp import (InterpolatorKind, power_rows, slow_interpolant,
                     tau_powers)
from .tableaux import ButcherTableau


def _eye_like(L):
    n = L.shape[-1]
    return np.broadcast_to(np.eye(n), L.shape)


def _stages(L: np.ndarray, hh: np.ndarray, A: np.ndarray, K: np.ndarray,
            E, what: str) -> np.ndarray:
    """The DIRK stage recurrence of y' = Ly + v, in place on K.

    K, shape (s, B, r, c), holds each stage's forcing V_k on entry and the
    stage derivatives K_k = L X_k + V_k on return, with

        X_k = (I - h a_kk L)^{-1} (E + h (sum_{j<k} a_kj K_j + a_kk V_k)),

    where E, the stage start, is I in the columns of the slice ``E`` and
    zero elsewhere.  K_k overwrites V_k, which only stage k reads.  ``hh``
    is h shaped (B, 1, 1).  Explicit stages (a_kk = 0) skip the inverse;
    I - h a_kk L is inverted once per distinct a_kk, at its first stage,
    and a singular one raises ``np.linalg.LinAlgError`` naming the stage.
    """
    I = _eye_like(L)
    inv: dict[float, np.ndarray] = {}
    K_flat = K.reshape(len(A), -1)                # a view: rows are stages
    for k in range(len(A)):
        akk = A[k, k]
        acc = (A[k, :k] @ K_flat[:k]).reshape(K[k].shape)
        if akk != 0.0:
            acc += akk * K[k]
        acc *= hh
        acc[..., E] += I
        if akk != 0.0:
            if akk not in inv:
                try:
                    inv[akk] = np.linalg.inv(I - (hh * akk) * L)
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(
                        f"singular {what} factor at stage {k + 1}") from exc
            acc = inv[akk] @ acc
        K[k] += L @ acc
    return K


def stage_products(L: np.ndarray, h: np.ndarray,
                   tab: ButcherTableau) -> np.ndarray:
    """Stage products L R^(i), shape (s, B, n, n), for y' = Ly.

    The unforced case of `_stages` on the full system: the stage
    operators follow, stage by stage,

        R^(k) = (I - h a_kk L)^{-1} (I + h sum_{j<k} a_kj L R^(j)),

    and only the products L R^(k) are returned, because every downstream
    formula consumes them rather than R^(k) itself.

    Raises ``np.linalg.LinAlgError`` with the stage index when a stage
    factor is singular.
    """
    return _stages(L, h[:, None, None], tab.A,
                   np.zeros((tab.s,) + L.shape), slice(None), "stage")


def rk_matrix(L: np.ndarray, h: np.ndarray, tab: ButcherTableau,
              lr: np.ndarray | None = None) -> np.ndarray:
    """Single-step propagation matrix R(hL) = I + h sum_i b_i L R^(i)."""
    if lr is None:
        lr = stage_products(L, h, tab)
    incr = (tab.b @ lr.reshape(tab.s, -1)).reshape(L.shape)
    return _eye_like(L) + h[:, None, None] * incr


def _interp_coeffs(kind: str, tab: ButcherTableau, L: np.ndarray,
                   hh: np.ndarray, lr: np.ndarray,
                   R: np.ndarray) -> np.ndarray:
    """Coefficient matrices C (p + 1, B, n, n), highest power first, with
    Q(tau) = sum_j tau**(p - j) C_j.

    Every kind is linear in u_n, so `interp.slow_interpolant`, given each
    matrix entry as a column, returns them as its (p + 1, B n n) array,
    reshaped here: u_n = I and u_next = R = R(hL),
    for ``hermite`` f_n = hL and f_next = hLR, and for ``dense`` the stage
    products K = hLR^(i) of ``lr`` = L R^(i).  The operators already carry
    h (``hh`` is h shaped (B, 1, 1)), so the data form's h is 1.0, whose
    product is exact.
    """
    if kind == "dense" and tab.dense is None:
        raise ValueError(
            f"method {tab.name!r} has no dense-output coefficients")
    f_n = f_next = K = None
    if kind == "hermite":
        f_n, f_next = (hh * L).ravel(), (hh * (L @ R)).ravel()
    elif kind == "dense":
        K = (hh * lr).reshape(tab.s, -1)
    C = slow_interpolant(InterpolatorKind(kind), _eye_like(L).ravel(),
                         R.ravel(), 1.0, f_n, f_next, K, tab.dense)
    return C.reshape((len(C),) + L.shape)


def interp_matrices(kind: str, L: np.ndarray, h: np.ndarray,
                    tab: ButcherTableau, taus: np.ndarray) -> np.ndarray:
    """Interpolation operators Q(tau) for a stack of tau values.

    The operator form of `interp.slow_interpolant`: on y' = Ly,
    Q(tau) u_n is the data form's value at t_n + tau*h.  It evaluates
    `_interp_coeffs` by `interp.power_rows`, the output sampler's
    evaluator; tests check it against the brute-force oracle, and
    `perfbench/tracing.py` patches it by name.

    Returns shape (T, B, n, n) where T = len(taus).  Kinds:

    * ``linear``:  Q(tau) = (1 - tau) I + tau R(hL)
    * ``hermite``: cubic Hermite in the step endpoints and their
      derivatives, Q(tau) = (1+2tau)(1-tau)^2 I + (3-2tau) tau^2 R
      + h tau (1-tau)^2 L + h (tau-1) tau^2 L R
    * ``dense``:   the method's continuous output,
      Q(tau) = I + h sum_i b*_i(tau) L R^(i)
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    lr = stage_products(L, h, tab)
    C = _interp_coeffs(kind, tab, L, h[:, None, None], lr,
                       rk_matrix(L, h, tab, lr))
    rows = power_rows(C.reshape(len(C), -1), taus)
    return rows.reshape((len(taus),) + L.shape)


def multirate_matrix(L: np.ndarray, d: int, h_s: np.ndarray, M: int,
                     tab: ButcherTableau, kind: str) -> np.ndarray:
    """Amplification matrix of one multi-rate step on y' = Ly.

    The state is ordered slow-first: the final ``d`` components form the
    fast partition, advanced with M equal sub-steps of size h_s / M while
    the slow components are frozen at the tentative global step and
    interpolated by Q.  Shapes: L (B, n, n), h_s (B,); returns (B, n, n).

    With x_l = l / M the start of sub-step l, the slow input of its stage
    k, L_fs Q(x_l + c_k / M)[:ns], is a polynomial of degree p in x_l:
    sum_a x_l**(p - a) G_ka, Q's power basis shifted by c_k / M.  So one
    sub-step's fast stages are computed as maps of u_n held in
    (B, d, (p + 2) n) arrays of p + 2 column blocks, whatever M is.
    Block 0 is the response to the sub-step's own starting fast values,
    written as the map E_f = [0 | I_d] of u_n; it yields the fast
    single-rate matrix C_ff.  Block a + 1 is the response D_a to G_ka,
    which sub-step l weighs by x_l**(p - a).  The fast stages run through
    `_stages`, the recurrence of `stage_products`, forced by the G_ka and
    started from E_f.  Raises
    ``np.linalg.LinAlgError`` naming the stage when a fast stage factor
    I - h_f a_kk L_ff is singular.
    """
    B, n, _ = L.shape
    ns = n - d
    A, b, c, s = tab.A, tab.b, tab.c, tab.s
    h_f = h_s / M
    hf = h_f[:, None, None]
    L_ff = L[:, ns:, ns:]
    L_fs = L[:, ns:, :ns]

    lr = stage_products(L, h_s, tab)
    R = rk_matrix(L, h_s, tab, lr)

    # Slow coupling of stage k: V[k] holds G_ka in block a + 1, the
    # binomial shift of tau**(p - j) = (x + c_k/M)**(p - j) contracted
    # with the coefficient products L_fs C_j[:ns] of `_interp_coeffs`;
    # block 0 gets zero weights.
    C = _interp_coeffs(kind, tab, L, h_s[:, None, None], lr, R)
    p = len(C) - 1
    a, j = np.tril_indices(p + 1)
    binom = [math.comb(p - jj, aa - jj) for aa, jj in zip(a, j)]
    W = np.zeros((s, 1, 1, p + 2, p + 1))
    W[:, 0, 0, a + 1, j] = binom * (c[:, None] / M)**(a - j)
    G = (L_fs @ C[:, :, :ns, :]).transpose(1, 2, 0, 3)       # (B,d,p+1,n)
    V = (W @ G).reshape(s, B, d, (p + 2) * n)

    # The fast stages, forced by V and started from E_f in block 0.
    K = _stages(L_ff, hf, A, V, slice(ns, n), "fast stage")
    incr = (b @ K.reshape(s, -1)).reshape(K[0].shape)

    # u_f after M sub-steps: C_ff^M u_f + h_f sum_m C_ff^m D_(M-1-m) u_n,
    # with D_l = sum_a x_l**(p - a) D_a, so the sum is h_f sum_a P_a D_a,
    # P_a = sum_m x_(M-1-m)**(p - a) C_ff^m.  C_ff^0 ... C_ff^(M-1) are
    # the first M column blocks of one array, built by repeated doubling,
    # and C_ff^M = C_ff^(M-1) C_ff.
    C_ff = np.eye(d) + hf * incr[:, :, ns:n]
    pw = np.broadcast_to(np.eye(d), (B, d, d))
    while pw.shape[-1] < M * d:
        top = pw[:, :, -d:] @ C_ff                   # C_ff^m, m blocks held
        pw = np.concatenate([pw, top @ pw], axis=-1)
    x = tau_powers((M - 1 - np.arange(M)) / M, p)             # (M, p + 1)
    P = (x.T @ pw[:, :, :M * d].reshape(B, d, M, d)).reshape(
        B, d, (p + 1) * d)
    D = incr[:, :, n:].reshape(B, d, p + 1, n).transpose(0, 2, 1, 3)
    S = hf * (P @ D.reshape(B, (p + 1) * d, n))

    out = np.empty((B, n, n))
    out[:, :ns, :] = R[:, :ns, :]
    out[:, ns:, :ns] = S[:, :, :ns]
    out[:, ns:, ns:] = pw[:, :, (M - 1) * d:M * d] @ C_ff + S[:, :, ns:]
    return out


def spectral_radii(R: np.ndarray) -> np.ndarray:
    """Spectral radius of each matrix in a (B, n, n) stack."""
    return np.max(np.abs(np.linalg.eigvals(R)), axis=-1)
