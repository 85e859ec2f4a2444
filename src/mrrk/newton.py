"""Stage-equation solver for implicit (DIRK) stages.

Each implicit stage is one nonlinear system U = base + h a_ii f(U, t),
solved by modified Newton with the iteration matrix I - h a_ii J.  The
Jacobian J lives in a cache whose lifecycle is controlled by one of two
strategies: reuse with periodic and stall-triggered refreshes (JacA), or a
fresh evaluation at the start of every global step (JacB).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve, solve_banded
from scipy.sparse.linalg import splu

DENSE_FACTOR_LIMIT = 512
BANDED_LIMIT = 4


def _bandwidths(J) -> tuple[int, int]:
    """Lower and upper bandwidth of a sparse matrix's nonzero pattern."""
    coo = J.tocoo()
    if coo.nnz == 0:
        return 0, 0
    diff = coo.row - coo.col
    return int(max(diff.max(), 0)), int(max((-diff).max(), 0))


def _banded_storage(A, kl: int, ku: int) -> np.ndarray:
    """Pack a sparse matrix into LAPACK banded storage (kl + ku + 1, n)."""
    coo = A.tocoo()
    ab = np.zeros((kl + ku + 1, A.shape[0]))
    ab[ku + coo.row - coo.col, coo.col] = coo.data
    return ab


class ConvergenceFailure(Exception):
    """Newton did not converge; the caller should shrink the step."""


class FactorizationError(Exception):
    """Iteration matrix could not be factorized."""


@dataclass(frozen=True)
class NewtonConfig:
    """Convergence control for the stage solves.

    ``rel_tol``/``abs_tol`` weight the residual the same way the step
    controller weights the local error; they default to one hundredth of
    the step tolerances so the algebraic error never contaminates the
    embedded error estimate.
    """

    max_iters: int = 20
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    strategy: str = "JacB"
    jacA_refresh_period: int = 10
    max_refreshes: int = 5
    lam_min: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.strategy not in ("JacA", "JacB"):
            raise ValueError("strategy must be 'JacA' or 'JacB'")


def _coloring(dependency, n: int):
    """Column groups with no common row, and the rows reading each column."""
    rows_of_col: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in dependency(i):
            rows_of_col[j].append(i)
    groups: list[list[int]] = []
    taken: list[set[int]] = []
    for j, rows_j in enumerate(rows_of_col):
        for g, rows in enumerate(taken):
            if not rows.intersection(rows_j):
                rows.update(rows_j)
                groups[g].append(j)
                break
        else:
            groups.append([j])
            taken.append(set(rows_j))
    return [np.array(g) for g in groups], rows_of_col


def structural_coloring(dependency, n: int) -> list[np.ndarray]:
    """Group columns so no two columns in a group touch a common row.

    ``dependency(i)`` lists the columns structurally read by row i.  All
    columns in one group can be perturbed together in a single RHS call
    when forming a finite-difference Jacobian.
    """
    return _coloring(dependency, n)[0]


def fd_jacobian(problem, y: np.ndarray, t: float, coloring=None):
    """Finite-difference Jacobian compressed by structural coloring.

    ``coloring`` is the (groups, rows reading each column) pair of the
    problem's structure, built here when None.  Returns a CSR matrix when
    the problem declares sparse structure (more than one color group and
    N above the dense limit), else a dense array.
    """
    n = problem.N
    if coloring is None:
        coloring = _coloring(problem.dependency, n)
    groups, rows_of_col = coloring
    f0 = np.empty(n)
    problem.rhs(y, t, f0)
    sparse = n > DENSE_FACTOR_LIMIT
    J = sp.lil_matrix((n, n)) if sparse else np.zeros((n, n))
    f1 = np.empty(n)
    for cols in groups:
        dy = np.sqrt(np.finfo(float).eps) * np.maximum(np.abs(y[cols]), 1.0)
        yp = y.copy()
        yp[cols] += dy
        problem.rhs(yp, t, f1)
        for j, d in zip(cols, dy):
            for i in rows_of_col[j]:
                J[i, j] = (f1[i] - f0[i]) / d
    return J.tocsr() if sparse else J


@dataclass
class JacobianCache:
    """Jacobian plus factorization of I - h a_ii J, with reuse policy.

    ``evals`` counts Jacobian evaluations and ``fd_rhs_calls`` the RHS
    calls spent on finite differences, so the driver can attribute work
    correctly.  Without an analytic Jacobian the column coloring and the
    rows each column reaches are built on the first refresh and kept.
    """

    problem: object
    config: NewtonConfig
    J: object = None
    age: int = 0
    evals: int = 0
    fd_rhs_calls: int = 0
    _fac: object = None
    _fac_key: float | None = None
    _groups: list = field(default_factory=list, repr=False)
    _rows_of_col: list = field(default_factory=list, repr=False)

    def begin_global_step(self, y: np.ndarray, t: float):
        """Apply the strategy's step-start policy."""
        if self.config.strategy == "JacB":
            self.refresh(y, t)
        else:
            self.age += 1
            if self.J is None or self.age >= self.config.jacA_refresh_period:
                self.refresh(y, t)

    def refresh(self, y: np.ndarray, t: float):
        p = self.problem
        if getattr(p, "jacobian", None) is not None:
            self.J = p.jacobian(y, t)
        else:
            if not self._groups:
                self._groups, self._rows_of_col = _coloring(p.dependency,
                                                            p.N)
            self.J = fd_jacobian(p, y, t, (self._groups, self._rows_of_col))
            self.fd_rhs_calls += 1 + len(self._groups)
        self.evals += 1
        self.age = 0
        self._fac = None
        self._fac_key = None

    def _factor(self, h_gamma: float):
        if self._fac is not None and self._fac_key == h_gamma:
            return
        J = self.J
        n = J.shape[0]
        try:
            if sp.issparse(J):
                A = (sp.identity(n, format="csc") - h_gamma * J.tocsc())
                kl, ku = _bandwidths(J)
                if kl + ku <= BANDED_LIMIT:
                    self._fac = ("banded", (kl, ku, _banded_storage(A, kl, ku)))
                else:
                    self._fac = ("sparse", splu(A))
            elif n > DENSE_FACTOR_LIMIT:
                A = sp.identity(n, format="csc") - h_gamma * sp.csc_matrix(J)
                self._fac = ("sparse", splu(A))
            else:
                A = np.eye(n) - h_gamma * np.asarray(J)
                self._fac = ("dense", lu_factor(A))
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            raise FactorizationError(str(exc)) from exc
        self._fac_key = h_gamma

    def solve(self, h_gamma: float, rhs: np.ndarray) -> np.ndarray:
        self._factor(h_gamma)
        kind, fac = self._fac
        if kind == "banded":
            kl, ku, ab = fac
            try:
                return solve_banded((kl, ku), ab, rhs)
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise FactorizationError(str(exc)) from exc
        if kind == "sparse":
            x = fac.solve(rhs)
        else:
            x = lu_solve(fac, rhs)
        # LU of a singular matrix only warns; catch it here so every
        # backend raises the same error for an unusable factorization.
        if not np.all(np.isfinite(x)):
            raise FactorizationError("singular iteration matrix")
        return x


def solve_stage(problem, t: float, h: float, a_ii: float,
                base: np.ndarray, guess: np.ndarray,
                cache: JacobianCache, cfg: NewtonConfig):
    """Solve U = base + h a_ii f(U, t) by line-search modified Newton.

    Returns (U, rhs_calls, refreshed).  Convergence is measured in the
    weighted max norm |r_i| / (rel_tol |U_i| + abs_tol) <= 1.  Each Newton
    direction comes from the cached (frozen) Jacobian; a backtracking line
    search on the residual 2-norm keeps the iteration monotone.  The
    Jacobian is re-evaluated at the current iterate when the line search
    has to damp the step or when the weighted residual stalls (reduction
    factor above 0.9 three times in a row), up to ``cfg.max_refreshes``
    times per solve.  The iteration cap, an exhausted line search, or a
    non-finite evaluation raise ConvergenceFailure.
    """
    if a_ii <= 0:
        raise ValueError("solve_stage requires an implicit stage (a_ii > 0)")
    h_gamma = h * a_ii
    U = guess.copy()
    f = np.empty_like(U)
    ft = np.empty_like(U)

    def residual(state, deriv):
        problem.rhs(state, t, deriv)
        if not np.all(np.isfinite(deriv)):
            raise ConvergenceFailure("non-finite RHS during stage solve")
        return state - base - h_gamma * deriv

    def wnorm(r, state):
        return float(np.max(np.abs(r) / (cfg.rel_tol * np.abs(state)
                                         + cfg.abs_tol)))

    r = residual(U, f)
    rhs_calls = 1
    refreshes = 0
    stall_count = 0
    prev_norm = None
    for _ in range(cfg.max_iters):
        norm = wnorm(r, U)
        if not np.isfinite(norm):
            raise ConvergenceFailure("non-finite residual during stage solve")
        if norm <= 1.0:
            return U, rhs_calls, refreshes > 0
        if prev_norm is not None:
            stall_count = stall_count + 1 if norm > 0.9 * prev_norm else 0
            if stall_count >= 3:
                if refreshes >= cfg.max_refreshes:
                    raise ConvergenceFailure(
                        "stage iteration stalled with no refreshes left")
                cache.refresh(U, t)
                refreshes += 1
                stall_count = 0
                prev_norm = None
                continue
        prev_norm = norm
        try:
            dU = cache.solve(h_gamma, -r)
        except FactorizationError as exc:
            # A singular or overflowed iteration matrix mid-solve means
            # the iterate has left the basin; reject and shrink the step.
            raise ConvergenceFailure(
                f"iteration matrix factorization failed: {exc}") from exc
        if not np.all(np.isfinite(dU)):
            raise ConvergenceFailure("non-finite update during stage solve")
        # Backtracking line search on the residual 2-norm.  An undamped
        # accepted trial reuses its RHS evaluation for the next iteration,
        # so the well-behaved path costs one RHS call per iteration.
        n0 = float(np.linalg.norm(r))
        lam = 1.0
        accepted = False
        while lam >= cfg.lam_min:
            Ut = U + lam * dU
            try:
                rt = residual(Ut, ft)
            except ConvergenceFailure:
                rhs_calls += 1
                lam *= 0.5
                continue
            rhs_calls += 1
            if float(np.linalg.norm(rt)) < (1.0 - 1e-4 * lam) * n0:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if refreshes >= cfg.max_refreshes:
                raise ConvergenceFailure(
                    "line search failed with no refreshes left")
            cache.refresh(U, t)
            refreshes += 1
            prev_norm = None
            continue
        U, r = Ut, rt
        f, ft = ft, f
        if lam < 1.0 and refreshes < cfg.max_refreshes:
            # The frozen-Jacobian direction needed damping; re-linearize.
            cache.refresh(U, t)
            refreshes += 1
            prev_norm = None
    raise ConvergenceFailure(
        f"stage solve did not converge in {cfg.max_iters} iterations")
