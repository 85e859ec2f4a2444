"""Problem abstraction and execution of one Runge-Kutta step.

An `OdeProblem` bundles the RHS, optional restricted evaluation over an
index subset, Jacobian access, and structural dependency information.
`rk_step` runs one explicit or DIRK step and returns the new state, the
embedded lower-order state (when the method has one), and the retained
stages for dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import newton as newton_mod
from .newton import ConvergenceFailure, JacobianCache, NewtonConfig
from .tableaux import ButcherTableau, DenseOutputCoeffs

__all__ = [
    "OdeProblem", "StageSet", "WorkCounters", "NumericalBlowup",
    "rk_step", "error_quotients", "new_step_size", "ConvergenceFailure",
]


class NumericalBlowup(Exception):
    """The step produced non-finite state values."""


@dataclass(frozen=True)
class OdeProblem:
    """Initial-value problem y' = f(y, t), y(t0) = y0.

    ``rhs(y, t, out)`` writes f(y, t) into ``out``.  ``rhs_restricted(y,
    t, indices, out)`` evaluates only the components in ``indices``
    (writing into the corresponding slots of ``out``), reading only the
    state entries their formulas need.  ``dependency(i)`` returns the
    state indices component i's RHS reads, a superset of the structural
    nonzeros of Jacobian row i.  ``jacobian(y, t)`` returns a dense array
    or a scipy sparse matrix; ``jacobian_restricted(y, t, indices)``
    returns the square sub-Jacobian over ``indices``.  Jacobian callables
    may be None, in which case solvers fall back to colored finite
    differences.
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
        if self.rhs_restricted is None:
            def _restricted(y, t, indices, out, _rhs=self.rhs, _n=self.N):
                full = np.empty(_n)
                _rhs(y, t, full)
                out[indices] = full[indices]
            object.__setattr__(self, "rhs_restricted", _restricted)


@dataclass
class StageSet:
    """Stage data of one step: states U^(i), derivatives K^(i).

    ``dense`` holds the method's continuous-output coefficients when it
    has them, so `interp.interp_value` can evaluate the continuous output
    directly from the stored stages.
    """

    u_n: np.ndarray
    U: np.ndarray
    K: np.ndarray
    h: float
    t_n: float
    dense: Optional[DenseOutputCoeffs] = None


@dataclass
class WorkCounters:
    """Work performed by one or more steps."""

    rhs_calls: int = 0
    jacobian_evals: int = 0
    newton_iters: int = 0

    def __iadd__(self, other: "WorkCounters"):
        self.rhs_calls += other.rhs_calls
        self.jacobian_evals += other.jacobian_evals
        self.newton_iters += other.newton_iters
        return self


def rk_step(problem: OdeProblem, u_n: np.ndarray, t_n: float, h: float,
            method: ButcherTableau, newton: NewtonConfig | None = None,
            cache: JacobianCache | None = None):
    """One step of the method from (t_n, u_n) with step size h.

    Returns (u_next, u_hat, stages, work); u_hat is None when the method
    has no embedded pair.  Each implicit stage's Newton iteration starts
    from the accumulated explicit part.

    Raises ConvergenceFailure when an implicit stage does not converge and
    NumericalBlowup when the state leaves the finite range; in both cases
    the caller should retry with a smaller step.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    A, b, c, s = method.A, method.b, method.c, method.s
    n = problem.N
    U = np.empty((s, n))
    K = np.empty((s, n))
    work = WorkCounters()
    if not method.is_explicit:
        if newton is None:
            raise ValueError("implicit method requires a NewtonConfig")
        if cache is None:
            cache = JacobianCache(problem, newton)
        if cache.J is None:
            jac0 = cache.evals
            cache.refresh(u_n, t_n)
            work.jacobian_evals += cache.evals - jac0
    for k in range(s):
        base = u_n.copy()
        for j in range(k):
            if A[k, j] != 0.0:
                base += (h * A[k, j]) * K[j]
        t_k = t_n + c[k] * h
        if A[k, k] == 0.0:
            U[k] = base
            problem.rhs(U[k], t_k, K[k])
            work.rhs_calls += 1
        else:
            jac0, fd0 = cache.evals, cache.fd_rhs_calls
            Uk, calls = newton_mod.solve_stage(
                problem, t_k, h, A[k, k], base, cache, newton)
            U[k] = Uk
            work.rhs_calls += calls + (cache.fd_rhs_calls - fd0)
            work.jacobian_evals += cache.evals - jac0
            work.newton_iters += calls
            # Recover K from the stage relation; equal to f(U_k, t_k) up
            # to the Newton residual and free of an extra RHS call.
            K[k] = (U[k] - base) / (h * A[k, k])
        if not np.isfinite(K[k]).all():
            raise NumericalBlowup(f"non-finite derivative at stage {k + 1}")
    u_next = u_n + h * (b @ K)
    if not np.isfinite(u_next).all():
        raise NumericalBlowup("non-finite state after step")
    u_hat = None
    if method.b_hat is not None:
        u_hat = u_n + h * (method.b_hat @ K)
    stages = StageSet(u_n=u_n.copy(), U=U, K=K, h=h, t_n=t_n,
                      dense=method.dense)
    return u_next, u_hat, stages, work


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
    negative round-off) takes the upper clamp alpha_max.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if eta <= 0.0:
        factor = cfg.alpha_max
    else:
        factor = min(cfg.alpha_max,
                     max(cfg.alpha_min, cfg.alpha * eta ** (-1.0 / (q + 1))))
    return h * factor
