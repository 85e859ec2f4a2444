"""Linear stability analysis of single- and multi-rate Runge-Kutta steps.

For the linear test problem y' = Ly one global step of either scheme is a
matrix acting on the state.  This module builds those matrices, scans their
spectral radius over the normalized step size C = h_s * Lambda (Lambda the
largest eigenvalue modulus of L), and compares propagators against the
exact evolution matrix exp(Lt).

Two canonical model problems are provided: a two-variable system with one
fast variable whose time-scale separation is controlled by a ratio alpha
and a coupling kappa, and a four-variable two-mass oscillator chain with
two fast variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from . import _linops
from .interp import InterpolatorKind
from .tableaux import ButcherTableau

# A step counts as stable while its spectral radius is <= 1 + RHO_TOL.
RHO_TOL = 1e-8


@dataclass(frozen=True)
class PartitionedLinearModel:
    """Linear model y' = Ly with the last ``d`` components labelled fast.

    ``Lam`` is the largest eigenvalue modulus of L and converts between the
    step size h_s and the normalized step C = h_s * Lam; it is computed on
    first use and kept, so L must not be modified after construction.
    ``label`` and ``params`` carry presentation metadata for scan output.
    """

    L: np.ndarray
    d: int
    label: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("L must be a square matrix")
        # On Python floats: for the tables' 2x2 and 4x4 models a numpy
        # reduction would add half the cost of building the model.
        if not all(map(math.isfinite, L.ravel().tolist())):
            raise ValueError("L must be finite")
        if not (0 < self.d <= L.shape[0]):
            raise ValueError("fast dimension d must be in [1, N]")
        object.__setattr__(self, "L", L)

    @property
    def N(self) -> int:
        return self.L.shape[0]

    @cached_property
    def Lam(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.L))))


def model_2dof(alpha: float, kappa: float) -> PartitionedLinearModel:
    """Two-variable model with one fast variable.

    L = [[-1, 1], [-kappa*alpha, -alpha]]; alpha is the fast/slow
    time-scale ratio and kappa the coupling strength.  Both eigenvalues
    have negative real part for kappa < 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if kappa >= 1:
        raise ValueError("kappa must be < 1 for a stable model")
    L = np.array([[-1.0, 1.0], [-kappa * alpha, -alpha]])
    return PartitionedLinearModel(
        L, d=1, label="2dof", params={"alpha": alpha, "kappa": kappa})


def model_4dof(omega1: float, gamma1: float, alpha_ratio: float,
               beta_ratio: float, kappa: float) -> PartitionedLinearModel:
    """Two coupled point masses: slow pair (y1, y2), fast pair (y3, y4).

    omega1 is the slow natural frequency, gamma1 the slow damping,
    alpha_ratio the fast/slow frequency ratio, beta_ratio the damping
    ratio, and kappa the spring-coupling strength.
    """
    if omega1 <= 0:
        raise ValueError("omega1 must be positive")
    if gamma1 < 0:
        raise ValueError("gamma1 must be nonnegative")
    if alpha_ratio <= 0 or beta_ratio <= 0:
        raise ValueError("alpha_ratio and beta_ratio must be positive")
    if not 0 <= kappa <= 1:
        raise ValueError("kappa must lie in [0, 1]")
    a2 = alpha_ratio**2
    w2 = omega1**2
    L = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-w2 * (1.0 + a2 * kappa), -gamma1, kappa * a2 * w2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [a2 * w2, 0.0, -a2 * w2, -beta_ratio * gamma1],
    ])
    return PartitionedLinearModel(
        L, d=2, label="4dof",
        params={"omega1": omega1, "gamma1": gamma1, "alpha": alpha_ratio,
                "beta": beta_ratio, "kappa": kappa})


def single_rate_R(L: np.ndarray, h: float,
                  method: ButcherTableau) -> np.ndarray:
    """Single-rate step matrix R(hL) = I + h sum_i b_i L R^(i)."""
    L = np.asarray(L, dtype=float)
    return _linops.rk_matrix(L[None], np.array([float(h)]), method)[0]


def multirate_R(model: PartitionedLinearModel, h_s: float, M: int,
                method: ButcherTableau,
                interp: InterpolatorKind) -> np.ndarray:
    """Amplification matrix R_mr of one multi-rate step on the model.

    R_mr maps u_n to u_{n+1}.  The slow components take one step of size
    h_s; the fast components take M equal sub-steps of size h_s / M with
    the slow values interpolated by the selected scheme, so the fast rows
    are C_ff^M on the fast block plus the accumulated slow-coupling term,
    C_ff being the fast-block single-rate matrix at h_f = h_s / M.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    h = np.array([float(h_s)])
    return _linops.multirate_matrix(
        model.L[None], model.d, h, M, method, interp.kind)[0]


def rho_curve(model: PartitionedLinearModel, method: ButcherTableau,
              interp: InterpolatorKind, M: int,
              C_grid: np.ndarray) -> np.ndarray:
    """Spectral radius of the multi-rate step at each normalized step C.

    The whole grid is pushed through `_linops.multirate_matrix` as one
    batch.  That kernel also stacks the M fast sub-steps, so the number
    of array operations per call does not depend on the grid length and
    grows with M only as log2(M): the fast stage factor is inverted once,
    the slow coupling L_fs Q(tau) comes from one contraction over every
    stage time, and the sub-steps are chained by powers of the fast
    single-rate matrix, built by repeated doubling.  Raises ValueError
    unless M is an integer >= 1.
    """
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise ValueError(f"M must be an integer >= 1, got {M!r}")
    C_grid = np.asarray(C_grid, dtype=float)
    h = C_grid / model.Lam
    Lb = np.broadcast_to(model.L, (len(C_grid),) + model.L.shape)
    R = _linops.multirate_matrix(Lb, model.d, h, M, method, interp.kind)
    return _linops.spectral_radii(R)


def _integer_grid(C_max: float) -> np.ndarray:
    if not (math.isfinite(C_max) and C_max >= 1):
        raise ValueError(f"C_max must be finite and >= 1, got {C_max!r}")
    return np.arange(1.0, np.floor(C_max) + 1.0)


def table_entry(model: PartitionedLinearModel, method: ButcherTableau,
                interp: InterpolatorKind, M: int, C_max: float = 100.0):
    """Integer max-C table entry: ceiling of the first stability boundary.

    The published tables round the first loss-of-stability boundary up to
    the next integer (boundaries that sit on an integer within 1e-6 are
    kept as that integer).  A C is unstable when its spectral radius
    exceeds 1 + ``RHO_TOL``.  Returns the sentinel ">= {C_max}" when the
    scheme stays stable on the whole integer grid.  Raises ValueError
    unless M is an integer >= 1 and C_max is finite and >= 1.
    """
    C_grid = _integer_grid(C_max)
    rho = rho_curve(model, method, interp, M, C_grid)
    return _entry(model, method, interp, M, C_grid, rho, C_max)


def _entry(model, method, interp, M, C_grid, rho, C_max):
    """`table_entry` from its integer-grid scan ``rho``.

    The first boundary lies in (C_i - 1, C_i] for the first unstable
    integer C_i.  Its ceiling is C_i unless it sits within 1e-6 above
    C_i - 1, which one probe at C_i - 1 + 1e-6 decides.
    """
    unstable = np.nonzero(rho > 1.0 + RHO_TOL)[0]
    if len(unstable) == 0:
        return f">= {C_max:g}"
    C_i = int(C_grid[unstable[0]])
    probe = rho_curve(model, method, interp, M, np.array([C_i - 1 + 1e-6]))
    return C_i - 1 if probe[0] > 1.0 + RHO_TOL else C_i


def scan_cell(model: PartitionedLinearModel, method: ButcherTableau,
              interp: InterpolatorKind, M: int, C_max: float = 100.0):
    """Scan rows and the `table_entry` of one M, from one scan.

    The rows are {model, method, interp, params..., M, C, rho, stable},
    one per C of the integer grid 1..floor(C_max), ``stable`` meaning
    rho <= 1 + ``RHO_TOL``; model parameters that a model kind does not
    define are empty strings, so all rows share one header.  Both read
    the spectral radii on that grid, so it is scanned once; only the
    boundary probe adds a C value.
    """
    C_grid = _integer_grid(C_max)
    rho = rho_curve(model, method, interp, M, C_grid)
    rows = _records(model, method, interp, M, C_grid, rho)
    return rows, _entry(model, method, interp, M, C_grid, rho, C_max)


def propagator_error(model: PartitionedLinearModel, method: ButcherTableau,
                     interp: InterpolatorKind, mode: str, M: int,
                     C: float, t_final: float) -> float:
    """Relative operator-norm error of the n-step propagator vs exp(Lt).

    ``mode`` selects the single-rate matrix R(h_s L) or the multi-rate
    matrix; n = t_final / h_s must be an integer number of global steps.
    """
    if mode not in ("single", "multi"):
        raise ValueError(f"mode must be 'single' or 'multi', got {mode!r}")
    h_s = C / model.Lam
    n_real = t_final / h_s
    n = round(n_real)
    if abs(n_real - n) > 1e-9 * max(1.0, abs(n_real)) or n < 1:
        raise ValueError(
            f"t_final / h_s = {n_real} is not a positive integer")
    if mode == "single":
        A = single_rate_R(model.L, h_s, method)
    else:
        A = multirate_R(model, h_s, M, method, interp)
    exact = expm(model.L * float(t_final))
    err = np.linalg.matrix_power(A, n) - exact
    return float(np.linalg.norm(err, 2) / np.linalg.norm(exact, 2))


def _records(model, method, interp, M, C_grid, rho):
    """`scan_cell` rows of one M from its scan ``rho`` over C_grid."""
    p = model.params
    base = {
        "model": model.label,
        "method": method.name,
        "interp": interp.kind,
        "gamma1": p.get("gamma1", ""),
        "omega1": p.get("omega1", ""),
        "alpha": p.get("alpha", ""),
        "beta": p.get("beta", ""),
        "kappa": p.get("kappa", ""),
    }
    return [dict(base, M=int(M), C=float(C), rho=float(r),
                 stable=bool(r <= 1.0 + RHO_TOL))
            for C, r in zip(C_grid, rho)]
