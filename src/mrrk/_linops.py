"""Batched linear-algebra kernels for stability analysis.

All kernels act on stacks of matrices: ``L`` has shape (B, n, n) and the
step size ``h`` has shape (B,).  Broadcasting a whole grid of step sizes
through one call keeps parameter scans fast without any explicit
parallelism.  `stability` wraps these kernels with single-model
signatures.

Every slow-variable interpolant is, on y' = Ly, a fixed combination

    Q(tau) = sum_m phi_m(tau) Y_m

of a few basis matrices Y_m, built once from the stage operators, with
scalar polynomial weights phi_m(tau) (see `_interp_basis`).  Q for many
tau is therefore one contraction, and so is any product X Q(tau): form
X Y_m once, then contract with the weights.

`multirate_matrix` uses that to stack the M fast sub-steps of one
multi-rate step.  Within sub-step l the fast stages depend on u_n only
through that sub-step's interpolated slow values; the coupling between
sub-steps is carried entirely by powers of the fast single-rate matrix
C_ff.  So the stage recurrence runs once on arrays that hold all M
sub-steps side by side, and the constant ESDIRK stage factor is inverted
once per distinct diagonal coefficient.  The number of numpy calls per
step is fixed, apart from the log2(M) doublings that build the powers of
C_ff.
"""

from __future__ import annotations

import numpy as np

from .tableaux import ButcherTableau


def _eye_like(L):
    n = L.shape[-1]
    return np.broadcast_to(np.eye(n), L.shape)


def _stage_inverses(L: np.ndarray, hh: np.ndarray, A: np.ndarray,
                    what: str) -> dict[int, np.ndarray]:
    """(I - h a_kk L)^{-1} for every implicit stage k, keyed by k.

    The matrix is inverted once per distinct a_kk, so the constant
    diagonal of an ESDIRK method costs one inversion.  A singular factor
    raises ``np.linalg.LinAlgError`` naming the first stage that uses it.
    """
    I = _eye_like(L)
    by_coef: dict[float, np.ndarray] = {}
    out = {}
    for k in range(len(A)):
        akk = A[k, k]
        if akk == 0.0:
            continue
        if akk not in by_coef:
            try:
                by_coef[akk] = np.linalg.inv(I - (hh * akk) * L)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"singular {what} factor at stage {k + 1}") from exc
        out[k] = by_coef[akk]
    return out


def stage_products(L: np.ndarray, h: np.ndarray,
                   tab: ButcherTableau) -> np.ndarray:
    """Stage products L R^(i), shape (s, B, n, n), for y' = Ly.

    The stage operators follow, stage by stage,

        R^(k) = (I - h a_kk L)^{-1} (I + h sum_{j<k} a_kj L R^(j)),

    with a_kk = 0 handled without the inverse (explicit stages and the
    first stage of an ESDIRK method).  Only the products L R^(k) are
    returned, because every downstream formula consumes them rather than
    R^(k) itself.

    Raises ``np.linalg.LinAlgError`` with the stage index when a stage
    factor is singular.
    """
    A = tab.A
    hh = h[:, None, None]
    I = _eye_like(L)
    inv = _stage_inverses(L, hh, A, "stage")
    LR = np.empty((tab.s,) + L.shape)
    LR_flat = LR.reshape(tab.s, -1)               # a view: rows are stages
    for k in range(tab.s):
        acc = I + hh * (A[k, :k] @ LR_flat[:k]).reshape(L.shape)
        if k in inv:
            acc = inv[k] @ acc
        np.matmul(L, acc, out=LR[k])
    return LR


def rk_matrix(L: np.ndarray, h: np.ndarray, tab: ButcherTableau,
              lr: np.ndarray | None = None) -> np.ndarray:
    """Single-step propagation matrix R(hL) = I + h sum_i b_i L R^(i)."""
    if lr is None:
        lr = stage_products(L, h, tab)
    incr = (tab.b @ lr.reshape(tab.s, -1)).reshape(L.shape)
    return _eye_like(L) + h[:, None, None] * incr


def _interp_basis(kind: str, L: np.ndarray, hh: np.ndarray, lr: np.ndarray,
                  R: np.ndarray) -> np.ndarray:
    """Basis matrices Y (K, B, n, n) with Q(tau) = sum_m phi_m(tau) Y_m.

    ``lr`` are the stage products L R^(i) and ``R`` = R(hL) the
    single-step matrix of the step; ``hh`` is h shaped (B, 1, 1).  The
    bases, in the order `_interp_weights` expects:

    * ``linear``:  (I, R)
    * ``hermite``: (I, R, hL, hLR)
    * ``dense``:   (I, hLR^(1), ..., hLR^(s))

    Callers get the weights first, which rejects an unknown ``kind``.
    """
    I = _eye_like(L)
    if kind == "dense":
        return np.concatenate([I[None], hh * lr])
    if kind == "linear":
        return np.stack([I, R])
    return np.stack([I, R, hh * L, hh * (L @ R)])


def _interp_weights(kind: str, tab: ButcherTableau,
                    taus: np.ndarray) -> np.ndarray:
    """Weights phi_m(tau), shape (T, K), matching `_interp_basis`."""
    if kind == "dense":
        if tab.dense is None:
            raise ValueError(
                f"method {tab.name!r} has no dense-output coefficients")
        W = tab.dense.weights(taus)                        # (T, s)
        return np.concatenate([np.ones((len(taus), 1)), W], axis=1)
    if kind == "linear":
        return np.stack([1.0 - taus, taus], axis=1)
    if kind == "hermite":
        return np.stack([(1.0 + 2.0 * taus) * (1.0 - taus) ** 2,
                         (3.0 - 2.0 * taus) * taus**2,
                         taus * (1.0 - taus) ** 2,
                         (taus - 1.0) * taus**2], axis=1)
    raise ValueError(f"unknown interpolation kind {kind!r}")


def interp_matrices(kind: str, L: np.ndarray, h: np.ndarray,
                    tab: ButcherTableau, taus: np.ndarray) -> np.ndarray:
    """Interpolation operators Q(tau) for a stack of tau values.

    The operator form of `interp.slow_interpolant`: on y' = Ly,
    Q(tau) u_n is the data form's value at t_n + tau*h.  The stability
    path contracts `_interp_basis` and `_interp_weights` itself; tests
    check this evaluator against the brute-force oracle, and
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
    W = _interp_weights(kind, tab, taus)
    lr = stage_products(L, h, tab)
    Y = _interp_basis(kind, L, h[:, None, None], lr, rk_matrix(L, h, tab, lr))
    return (W @ Y.reshape(len(Y), -1)).reshape((len(taus),) + L.shape)


def multirate_matrix(L: np.ndarray, d: int, h_s: np.ndarray, M: int,
                     tab: ButcherTableau, kind: str) -> np.ndarray:
    """Amplification matrix of one multi-rate step on y' = Ly.

    The state is ordered slow-first: the final ``d`` components form the
    fast partition, advanced with M equal sub-steps of size h_s / M while
    the slow components are frozen at the tentative global step and
    interpolated by Q.  Shapes: L (B, n, n), h_s (B,); returns (B, n, n).

    The fast stages of all M sub-steps are computed together, as maps of
    u_n held in (B, d, (M + 1) n) arrays of M + 1 column blocks.  Block 0
    is a sub-step's response to its own starting fast values, written as
    the map E_f = [0 | I_d] of u_n; it yields the fast single-rate matrix
    C_ff.  Block l + 1 is sub-step l's response to u_n through the
    interpolated slow values L_fs Q(tau)[:ns].  Raises
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

    # Slow coupling of stage k: V[k] holds, in block l + 1, L_fs Q(tau)[:ns]
    # at the stage time tau = (l + c_k) / M, contracted straight from the
    # basis products L_fs Y_m[:ns]; block 0 gets zero weights.
    taus = (np.arange(M)[:, None] + c[None, :]) / M              # (M, s)
    phi = _interp_weights(kind, tab, taus.ravel()).reshape(M, s, -1)
    W = np.zeros((s, 1, 1, M + 1, phi.shape[-1]))
    W[:, 0, 0, 1:] = phi.transpose(1, 0, 2)
    Y = _interp_basis(kind, L, h_s[:, None, None], lr, R)
    G = (L_fs @ Y[:, :, :ns, :]).transpose(1, 2, 0, 3)          # (B,d,K,n)
    V = (W @ G).reshape(s, B, d, (M + 1) * n)

    # Stage values X_k = (I - h_f a_kk L_ff)^{-1} (E + h_f (sum_{j<k}
    # a_kj K_j + a_kk V_k)) and derivatives K_k = L_ff X_k + V_k, where E
    # is E_f in block 0 and zero elsewhere.  V_k is last read by stage k,
    # so K_k overwrites it in place.
    inv = _stage_inverses(L_ff, hf, A, "fast stage")
    K = V
    K_flat = K.reshape(s, -1)                     # a view: rows are stages
    for k in range(s):
        acc = (A[k, :k] @ K_flat[:k]).reshape(K[k].shape)
        if A[k, k] != 0.0:
            acc += A[k, k] * K[k]
        acc *= hf
        acc[:, :, ns:n] += np.eye(d)
        if k in inv:
            acc = inv[k] @ acc
        K[k] += L_ff @ acc
    incr = (b @ K_flat).reshape(K[0].shape)

    # u_f after M sub-steps: C_ff^M u_f + h_f sum_m C_ff^m D_(M-1-m) u_n,
    # with C_ff^0 ... C_ff^M as column blocks of one (B, d, (M + 1) d)
    # array, built by repeated doubling.
    C_ff = np.eye(d) + hf * incr[:, :, ns:n]
    pw = np.broadcast_to(np.eye(d), (B, d, d))
    while pw.shape[-1] <= M * d:
        top = pw[:, :, -d:] @ C_ff                   # C_ff^m, m blocks held
        pw = np.concatenate([pw, top @ pw], axis=-1)
    D = incr[:, :, n:].reshape(B, d, M, n)[:, :, ::-1]    # D_(M-1-m)
    S = hf * (pw[:, :, :M * d]
              @ D.transpose(0, 2, 1, 3).reshape(B, M * d, n))

    out = np.empty((B, n, n))
    out[:, :ns, :] = R[:, :ns, :]
    out[:, ns:, :ns] = S[:, :, :ns]
    out[:, ns:, ns:] = pw[:, :, M * d:(M + 1) * d] + S[:, :, ns:]
    return out


def spectral_radii(R: np.ndarray) -> np.ndarray:
    """Spectral radius of each matrix in a (B, n, n) stack."""
    return np.max(np.abs(np.linalg.eigvals(R)), axis=-1)
