"""Linear stability analysis of single- and multi-rate Runge-Kutta steps.

For the linear test problem y' = Ly one global step of either scheme is a
matrix acting on the state.  This module builds those matrices, scans their
spectral radius over the normalized step size C = h_s * Lambda (Lambda the
largest eigenvalue modulus of L), and compares propagators against the
exact evolution matrix exp(Lt).

Two canonical model problems are provided: a two-variable system with one
fast variable whose time-scale separation is controlled by a ratio alpha
and a coupling kappa, and a four-variable two-mass oscillator chain with
two fast variables.  ``interp`` names the slow-value interpolation kind
(`interp.KINDS`), as a string or an `interp.InterpolatorKind`; an unknown
name raises ValueError.

The radius of the two-variable model's 2 x 2 step matrices comes from
the closed form of their eigenvalues, that of the four-variable model's
4 x 4 matrices from LAPACK (`_linops.spectral_radii`); a step matrix with
a non-finite entry raises ``np.linalg.LinAlgError`` either way.  The
sub-step weights that depend on the method, the interpolant's degree and
M alone are built once per key and kept (`_linops._substep_weights`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from . import _linops
from .odecore import check_count, check_real
from .tableaux import ButcherTableau

# A step counts as stable while its spectral radius is <= 1 + RHO_TOL.
RHO_TOL = 1e-8


@dataclass(frozen=True)
class PartitionedLinearModel:
    """Linear model y' = Ly: the matrix L and the count ``d`` of its last
    components, which are labelled fast.

    L must be a finite square N x N matrix and ``d`` an integer in [1, N]
    (not a bool), else construction raises ValueError.  ``Lam`` is the
    largest eigenvalue modulus of L and converts between the step size h_s
    and the normalized step C = h_s * Lam; it is computed on first use and
    kept, so L must not be modified after construction.
    """

    L: np.ndarray
    d: int

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("L must be a square matrix")
        # On Python floats: for the tables' 2x2 and 4x4 models a numpy
        # reduction would add half the cost of building the model.
        if not all(map(math.isfinite, L.ravel().tolist())):
            raise ValueError("L must be finite")
        check_count("d", self.d)
        if self.d > L.shape[0]:
            raise ValueError("fast dimension d must be in [1, N]")
        object.__setattr__(self, "L", L)

    @cached_property
    def Lam(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.L))))


def model_2dof(alpha: float, kappa: float) -> PartitionedLinearModel:
    """Two-variable model with one fast variable.

    L = [[-1, 1], [-kappa*alpha, -alpha]]; alpha is the fast/slow
    time-scale ratio and kappa the coupling strength.  trace L = -(1 +
    alpha) < 0 and det L = alpha (1 + kappa), so both eigenvalues have
    negative real part exactly when kappa > -1; kappa must lie in
    (-1, 1), the upper bound being the range of the published tables, and
    alpha must be finite and positive.
    """
    check_real("alpha", alpha)
    if not -1 < kappa < 1:
        raise ValueError("kappa must lie in (-1, 1)")
    L = np.array([[-1.0, 1.0], [-kappa * alpha, -alpha]])
    return PartitionedLinearModel(L, d=1)


def model_4dof(omega1: float, gamma1: float, alpha_ratio: float,
               beta_ratio: float, kappa: float) -> PartitionedLinearModel:
    """Two coupled point masses: slow pair (y1, y2), fast pair (y3, y4).

    omega1 is the slow natural frequency, gamma1 the slow damping,
    alpha_ratio the fast/slow frequency ratio, beta_ratio the damping
    ratio, and kappa the spring-coupling strength.  omega1, alpha_ratio
    and beta_ratio must be finite and positive, gamma1 finite and
    nonnegative, and kappa must lie in [0, 1].
    """
    check_real("omega1", omega1)
    check_real("gamma1", gamma1, positive=False)
    check_real("alpha_ratio", alpha_ratio)
    check_real("beta_ratio", beta_ratio)
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
    return PartitionedLinearModel(L, d=2)


def single_rate_R(L: np.ndarray, h: float,
                  method: ButcherTableau) -> np.ndarray:
    """Single-rate step matrix R(hL) = I + h sum_i b_i L R^(i)."""
    L = np.asarray(L, dtype=float)
    return _linops.rk_matrix(L[None], np.array([float(h)]), method)[0]


def multirate_R(model: PartitionedLinearModel, h_s: float, M: int,
                method: ButcherTableau, interp: str) -> np.ndarray:
    """Amplification matrix R_mr of one multi-rate step on the model.

    R_mr maps u_n to u_{n+1}.  The slow components take one step of size
    h_s; the fast components take M equal sub-steps of size h_s / M with
    the slow values interpolated by the selected scheme, so the fast rows
    are C_ff^M on the fast block plus the accumulated slow-coupling term,
    C_ff being the fast-block single-rate matrix at h_f = h_s / M.
    Raises ValueError unless M is an integer >= 1.
    """
    check_count("M", M)
    h = np.array([float(h_s)])
    return _linops.multirate_matrix(
        model.L[None], model.d, h, M, method, interp)[0]


def rho_curve(model: PartitionedLinearModel, method: ButcherTableau,
              interp: str, M: int,
              C_grid: np.ndarray) -> np.ndarray:
    """Spectral radius of the multi-rate step at each normalized step C.

    The whole grid is pushed through `_linops.multirate_matrix` as one
    batch, so the number of array operations per call does not depend on
    the grid length.  Nor does the fast stage recurrence depend on M: the
    fast stage factor is inverted once, and the stages run on p + 2
    column blocks, p the interpolant's degree, because the slow coupling
    L_fs Q(tau) of sub-step l is a polynomial in its start l / M.  Only
    the powers of the fast single-rate matrix that chain the sub-steps
    grow with M, as log2(M) doublings; one product with them sums the M
    sub-step responses.  Raises ValueError unless M is an integer >= 1.
    """
    check_count("M", M)
    C_grid = np.asarray(C_grid, dtype=float)
    h = C_grid / model.Lam
    Lb = np.broadcast_to(model.L, (len(C_grid),) + model.L.shape)
    R = _linops.multirate_matrix(Lb, model.d, h, M, method, interp)
    return _linops.spectral_radii(R)


def _integer_grid(C_max: float) -> np.ndarray:
    if not (math.isfinite(C_max) and C_max >= 1):
        raise ValueError(f"C_max must be finite and >= 1, got {C_max!r}")
    return np.arange(1.0, np.floor(C_max) + 1.0)


def scan_cell(model: PartitionedLinearModel, method: ButcherTableau,
              interp: str, M: int, C_max: float = 100.0):
    """Integer-grid scan of one M and its `table_entry`, from one scan.

    Returns ``(C_grid, rho, entry)``: the grid 1..floor(C_max), the
    spectral radii on it and the table entry.  A cell stable on the whole
    grid reads ">= floor(C_max)", the last C it checked.  Otherwise the
    first boundary lies in (C_i - 1, C_i] for the first unstable integer
    C_i.  Its ceiling is C_i unless it sits within 1e-6 above C_i - 1,
    which one probe at C_i - 1 + 1e-6 decides; that probe is the only C
    value added to the grid.  Raises ValueError unless M is an integer
    >= 1 and C_max is finite and >= 1.
    """
    C_grid = _integer_grid(C_max)
    rho = rho_curve(model, method, interp, M, C_grid)
    unstable = np.nonzero(rho > 1.0 + RHO_TOL)[0]
    if len(unstable) == 0:
        return C_grid, rho, f">= {int(C_grid[-1])}"
    C_i = int(C_grid[unstable[0]])
    probe = rho_curve(model, method, interp, M, np.array([C_i - 1 + 1e-6]))
    return C_grid, rho, C_i - 1 if probe[0] > 1.0 + RHO_TOL else C_i


def table_entry(model: PartitionedLinearModel, method: ButcherTableau,
                interp: str, M: int, C_max: float = 100.0):
    """Integer max-C table entry: ceiling of the first stability boundary.

    The published tables round the first loss-of-stability boundary up to
    the next integer (boundaries that sit on an integer within 1e-6 are
    kept as that integer).  A C is unstable when its spectral radius
    exceeds 1 + ``RHO_TOL``.  Returns the sentinel ">= {floor(C_max)}",
    naming the last C scanned, when the scheme stays stable on the whole
    integer grid 1..floor(C_max).  This is the third value `scan_cell`
    returns; raises ValueError unless M is an integer >= 1 and C_max is
    finite and >= 1.
    """
    return scan_cell(model, method, interp, M, C_max)[2]


def propagator_errors(model: PartitionedLinearModel, method: ButcherTableau,
                      interp: str, M: int, C: float,
                      steps: int) -> tuple[float, float]:
    """Relative operator-norm errors of the single- and multi-rate
    propagators over ``steps`` global steps of h_s = C / Lam.

    Returns ``(single, multi)``: ||A^steps - E||_2 / ||E||_2 for the
    single-rate matrix R(h_s L) and for the multi-rate matrix, both
    against one E = exp(L t), t = steps * h_s.  Raises ValueError unless
    M and steps are integers >= 1 and C is finite and positive.
    """
    check_count("M", M)
    check_count("steps", steps)
    check_real("C", C)
    h_s = C / model.Lam
    exact = expm(model.L * (steps * h_s))

    def error(A):
        err = np.linalg.matrix_power(A, steps) - exact
        return float(np.linalg.norm(err, 2) / np.linalg.norm(exact, 2))

    return (error(single_rate_R(model.L, h_s, method)),
            error(multirate_R(model, h_s, M, method, interp)))
