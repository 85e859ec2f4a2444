"""Problem abstraction and execution of one Runge-Kutta step.

An `OdeProblem` bundles the RHS, optional restricted evaluation over an
index subset, Jacobian access, and structural dependency information.
`rk_step` runs one explicit or DIRK step and returns the new state, the
embedded lower-order state (when the method has one), and the stage
derivatives for dense output.  `check_count` and `check_real` are the
one check of each rule that settings and parameters obey.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import newton
from .newton import ConvergenceFailure, JacobianCache
from .tableaux import ButcherTableau

__all__ = [
    "OdeProblem", "rk_step", "error_quotients", "new_step_size",
    "predictive_step_size", "ConvergenceFailure", "check_count",
    "check_real",
]


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is a (non-bool) int >= minimum."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, positive: bool = True) -> None:
    """Raise ValueError unless ``value`` is finite and positive or, with
    ``positive=False``, finite and nonnegative."""
    if not (math.isfinite(value) and (value > 0 if positive
                                      else value >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


@dataclass(frozen=True)
class OdeProblem:
    """Initial-value problem y' = f(y, t), y(t0) = y0.

    ``rhs(y, t, out)`` writes f(y, t) into ``out``.  ``rhs_restricted(y,
    t, indices, out)`` evaluates only the components in ``indices``, an
    ascending, non-empty index array, and writes their ``len(indices)``
    values into ``out`` in that order, reading only the state entries
    their formulas need.  ``dependency(i)`` returns the state indices
    component i's RHS reads, a superset of the structural nonzeros of
    Jacobian row i.  ``jacobian(y, t)`` returns a dense array or a scipy
    sparse matrix; the stage solver reads the band of a DIA one
    (``scipy.sparse.dia_array``) directly from its diagonals, so a banded
    Jacobian is cheapest in that form.  ``jacobian_restricted(y, t,
    indices)`` returns the square sub-Jacobian over ``indices``, which are
    ascending and non-empty as for ``rhs_restricted``.  Without
    ``jacobian``, solvers differentiate by colored finite differences.
    A problem, and every `dataclasses.replace` copy, holds only the
    callables it is given: `adapt._fast_subproblem` decides what a
    missing restricted hook means.
    """

    N: int
    rhs: Callable
    t_span: tuple[float, float]
    y0: np.ndarray
    dependency: Callable[[int], tuple]
    rhs_restricted: Optional[Callable] = None
    jacobian: Optional[Callable] = None
    jacobian_restricted: Optional[Callable] = None
    name: str = "custom"

    def __post_init__(self):
        check_count("N", self.N)
        t0, t1 = self.t_span
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError(
                f"t_span must be finite with t_span[0] < t_span[1], "
                f"got {self.t_span}")
        y0 = np.asarray(self.y0, dtype=float)
        if y0.shape != (self.N,):
            raise ValueError(f"y0 must have shape ({self.N},)")
        if not np.isfinite(y0).all():
            raise ValueError("y0 must be finite")
        object.__setattr__(self, "y0", y0)


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of the 1-D array x is finite.

    Its squared 2-norm is finite when every entry is, and NaN or Inf when
    one is not or when it overflows; only then are the entries tested.
    """
    return math.isfinite(x.dot(x)) or bool(np.isfinite(x).all())


def rk_step(problem: OdeProblem, u_n: np.ndarray, t_n: float, h: float,
            method: ButcherTableau, cache: JacobianCache | None = None):
    """One step of the method from (t_n, u_n) with step size h.

    Returns (u_next, u_hat, K): u_hat is None when the method has no
    embedded pair, and K holds one stage derivative per row.  An implicit
    method needs a ``cache``, whose ``config`` sets the Newton iteration
    and whose J is evaluated first if it holds none.  An implicit stage
    k >= 1 starts its iteration from base + h a_kk K[k-1], as if its
    derivative were that of the stage before; the first stage starts
    from u_n.

    Raises ConvergenceFailure when an implicit stage solve fails or a
    stage derivative or the new state is non-finite; the caller should
    retry with a smaller step.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    # Coefficients as Python floats: the same products and sums as on
    # numpy scalars, without a numpy scalar per read.
    A, c = method.A.tolist(), method.c.tolist()
    K = np.empty((len(c), problem.N))
    if not method.is_explicit:
        if cache is None:
            raise ValueError("implicit method requires a JacobianCache")
        if cache.J is None:
            cache.refresh(u_n, t_n)
    for k, (row, Kk) in enumerate(zip(A, K)):
        base = u_n.copy()
        for j in range(k):
            if row[j] != 0.0:
                base += (h * row[j]) * K[j]
        t_k = t_n + c[k] * h
        a_kk = row[k]
        if a_kk == 0.0:
            problem.rhs(base, t_k, Kk)
        else:
            U = newton.solve_stage(problem, t_k, h, a_kk, base, cache,
                                   K[k - 1] if k else None)
            # Recover K from the stage relation; equal to f(U_k, t_k) up
            # to the Newton error and free of an extra RHS call.
            np.divide(U - base, h * a_kk, out=Kk)
        if not _finite(Kk):
            raise ConvergenceFailure(
                f"non-finite derivative at stage {k + 1}")
    u_next = u_n + h * (method.b @ K)
    if not _finite(u_next):
        raise ConvergenceFailure("non-finite state after step")
    u_hat = None
    if method.b_hat is not None:
        u_hat = u_n + h * (method.b_hat @ K)
    return u_next, u_hat, K


def error_quotients(u: np.ndarray, u_hat: np.ndarray, rtol: float,
                    atol: float) -> np.ndarray:
    """Per-component quotients |u_i - uhat_i| / (rtol |u_i| + atol)."""
    if atol <= 0 and rtol <= 0:
        raise ValueError("at least one of rtol, atol must be positive")
    u = np.asarray(u, dtype=float)
    return np.abs(u - np.asarray(u_hat, float)) / (rtol * np.abs(u) + atol)


def new_step_size(h: float, eta: float, q: int, cfg) -> float:
    """Controller update h * clamp(alpha * eta^(-1/(q+1))).

    ``alpha``, ``alpha_min`` and ``alpha_max`` are read from ``cfg``, the
    run's `adapt.SolverConfig`, which validates them.  eta = 0 (or
    negative round-off) takes the upper clamp alpha_max.  This is the
    rule after every rejection, and after every accepted step that
    `predictive_step_size` does not size.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if eta <= 0.0:
        factor = cfg.alpha_max
    else:
        factor = min(cfg.alpha_max,
                     max(cfg.alpha_min, cfg.alpha * eta ** (-1.0 / (q + 1))))
    return h * factor


# Floor of the previous step's quotient in `predictive_step_size`, so an
# accepted step with almost no error does not dictate the next one.
ETA_PREV_FLOOR = 1e-2


def predictive_step_size(h: float, eta: float, h_prev: float,
                         eta_prev: float, q: int, cfg) -> float:
    """Predictive controller update after an accepted step (h, eta).

    Gustafsson's controller in the form of RADAU5 (Hairer & Wanner,
    *Solving ODEs II*, Sec. IV.8): with (h_prev, eta_prev) the accepted
    step before, eta_prev floored at ``ETA_PREV_FLOOR``, it returns

        min(h_I, h * max(alpha_min, alpha * (h / h_prev) * eta^(-1/(q+1))
                                    * (eta_prev / eta)^(1/(q+1))))

    with h_I = `new_step_size` (h, eta, q, cfg).  It can only shrink h_I.
    Before the clamps, it is the plain factor times
    (h / h_prev) * (eta_prev / eta)^(1/(q+1)), below 1 where eta rose by
    more than the growth of h explains; the plain rule takes each eta as
    a constant error and regrows h after every accepted step.  eta = 0
    (or negative round-off) returns h_I.
    """
    h_i = new_step_size(h, eta, q, cfg)
    if eta <= 0.0:
        return h_i
    eta_prev = max(eta_prev, ETA_PREV_FLOOR)
    factor = (cfg.alpha * (h / h_prev) * eta ** (-1.0 / (q + 1))
              * (eta_prev / eta) ** (1.0 / (q + 1)))
    return min(h_i, h * max(cfg.alpha_min, factor))
