"""Stage-equation solver for implicit (DIRK) stages.

Each implicit stage is one nonlinear system U = base + h a_ii f(U, t),
solved by modified Newton with the iteration matrix I - h a_ii J.  The
Jacobian J lives in a cache whose lifecycle is controlled by one of two
strategies: reuse with a refresh every ``JACA_REFRESH_PERIOD`` global
steps (JacA), or a fresh evaluation at the start of every global step
(JacB).  Either way a stage solve may also refresh J, up to
``MAX_REFRESHES`` times, when its line search damps or its residual
stalls.

The iteration matrix is factored once per (J, h a_ii) and each Newton
direction is then a single LAPACK back-substitution:

- dense J with n <= DENSE_FACTOR_LIMIT: ``dgetrf`` once, ``dgetrs`` per
  solve;
- sparse J with kl + ku <= BANDED_LIMIT: ``dgbtrf`` once, ``dgbtrs`` per
  solve, except for two kinds of band.  A lower band (ku = 0) where no
  subdiagonal entry beats its diagonal in absolute value, so that partial
  pivoting swaps no rows, stores ``dgbtrf``'s multipliers once; each
  solve is one unit-lower ``dtbtrs`` sweep and a division by the
  diagonal, bitwise equal to ``dgbtrs``.  The inverter chain's
  lower-bidiagonal I - h a_ii J is such a band.  A tridiagonal J calls
  ``dgtsv`` on the stored band per solve, as ``scipy.linalg.solve_banded``
  does.  The band of a DIA J (``scipy.sparse.dia_array``) is read
  directly from its diagonals, that of any other sparse format through
  one ``tocoo()``; kl and ku come from the nonzero pattern either way;
- any other J: SuperLU (``splu``) once, its ``solve`` per solve.

A non-finite iteration matrix or a zero pivot raises ConvergenceFailure
when it is factored (for ``dgtsv``, when it is solved); a non-finite
solution raises it after every solve.  It is the one exception of a
failed step, so ``solve_stage`` passes it on unchanged, and that solve
check is the only finiteness check of a Newton direction.
``solve_stage`` checks the RHS and the residual through the norms it
computes anyway: the weighted norm of each iterate (a non-finite RHS at
the start fails there) and the 2-norm of each line-search trial (a
non-finite trial fails the decrease test).

A `JacobianCache` carries the run's `adapt.SolverConfig`, the one owner
of its settings, and counts its own Jacobian evaluations; RHS calls are
counted by the driver's problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

# Names of the Jacobian strategies, which `adapt.SolverConfig` validates.
STRATEGIES = ("JacA", "JacB")
# Residual tolerances of a stage solve relative to the step tolerances, so
# the algebraic error stays well below the embedded error estimate.
RESIDUAL_TOL_FACTOR = 0.01
DENSE_FACTOR_LIMIT = 512
BANDED_LIMIT = 4
# JacA re-evaluates J once it is this many global steps old.
JACA_REFRESH_PERIOD = 10
# Jacobian refreshes one stage solve may spend on stalls and damped steps.
MAX_REFRESHES = 5
# Smallest line-search damping factor tried before the search fails.
LAM_MIN = 1e-4


def _band_storage(J) -> tuple[int, int, np.ndarray | None]:
    """Bandwidths of a sparse J's nonzero pattern and its band storage.

    Returns (kl, ku, Jb): ``Jb`` is J in LAPACK banded storage
    (kl + ku + 1, n), row ku - d holding diagonal d, or None when
    kl + ku > BANDED_LIMIT.  A DIA J is read from ``J.offsets``/``J.data``
    directly: the entries of a data row that lie outside the matrix are
    ignored, and a diagonal with no nonzero entry does not widen the band.
    Any other format goes through one ``tocoo()``, whose duplicate entries
    are summed without changing J.
    """
    n = J.shape[0]
    if J.format == "dia":
        live = []
        for d, row in zip(J.offsets.tolist(), J.data):
            # Column j of diagonal d is row j - d of the matrix.
            lo, hi = max(d, 0), min(n + min(d, 0), row.shape[0])
            if lo < hi and np.count_nonzero(row[lo:hi]):
                live.append((d, lo, hi, row))
        kl = max([0] + [-d for d, *_ in live])
        ku = max([0] + [d for d, *_ in live])
        if kl + ku > BANDED_LIMIT:
            return kl, ku, None
        Jb = np.zeros((kl + ku + 1, n))
        for d, lo, hi, row in live:
            Jb[ku - d, lo:hi] = row[lo:hi]
        return kl, ku, Jb
    coo = J.tocoo()
    kl = ku = 0
    if coo.nnz:
        diff = coo.row - coo.col
        kl, ku = int(max(diff.max(), 0)), int(max((-diff).max(), 0))
    if kl + ku > BANDED_LIMIT:
        return kl, ku, None
    Jb = np.zeros((kl + ku + 1, n))
    # Duplicate entries (COO input, non-canonical CSR) add up, as they do
    # in SuperLU and ``toarray()``.
    np.add.at(Jb, (ku + coo.row - coo.col, coo.col), coo.data)
    return kl, ku, Jb


class ConvergenceFailure(Exception):
    """A step failed; the caller should shrink the step.

    Raised when a stage solve does not converge, when the iteration matrix
    is singular or non-finite, and when a Newton direction, a stage
    derivative, the new state or the error estimate is non-finite.  The
    message names the cause.
    """


def _require_finite(A):
    if not np.isfinite(A).all():
        raise ConvergenceFailure("non-finite iteration matrix")


def _require_pivots(info: int, routine: str):
    if info > 0:
        raise ConvergenceFailure(
            f"singular iteration matrix (zero pivot {info} in {routine})")
    if info < 0:
        raise ValueError(f"illegal argument {-info} to {routine}")


def _dense_factor(A: np.ndarray):
    """``dgetrf`` of A once; the solver is one ``dgetrs`` call."""
    _require_finite(A)
    lu, piv, info = lapack.dgetrf(A, overwrite_a=True)
    _require_pivots(info, "dgetrf")
    return "dense", lambda b: lapack.dgetrs(lu, piv, b)[0]


def _pivot_free(ab: np.ndarray) -> bool:
    """Whether ``dgbtrf`` keeps every diagonal pivot of the lower band ab.

    ``ab`` is a band with ku = 0 whose row 0 is the diagonal.  Partial
    pivoting swaps rows only where a subdiagonal entry beats its diagonal
    in absolute value (``IDAMAX`` takes the first of equal maxima).  With
    ku = 0 and no swap, elimination updates no later column, so each
    pivot test sees the entries tested here.  A zero diagonal is left to
    ``dgbtrf``, which pivots or reports a singular matrix.
    """
    d = ab[0]
    return bool(d.all() and (np.abs(ab[1:]) <= np.abs(d)).all())


def _unit_lower_solver(ab: np.ndarray, kl: int):
    """Solver of a pivot-free lower band, bitwise equal to ``dgbtrs``.

    ``dgbtrf`` would store the multipliers ``sub * (1.0 / d)`` below an
    unchanged diagonal d and kl rows of zero fill-in above it.  So one
    unit-lower ``dtbtrs`` sweep over the multipliers, whose axpy updates
    are those of ``dgbtrs``'s ``dger`` calls, and a division by d give
    ``dgbtrs``'s result.  Only when that result has a zero entry does the
    upper sweep over the fill-in run as well, for the sign of the zero.
    The bands are Fortran-ordered, as a C-ordered band costs f2py a copy
    per call.
    """
    d = ab[0]
    n = d.shape[0]
    L = np.empty((kl + 1, n), order="F")
    L[0] = 1.0
    np.multiply(ab[1:], 1.0 / d, out=L[1:])

    def solve(b):
        y = lapack.dtbtrs(L, b, uplo="L", diag="U")[0]
        if np.count_nonzero(y) == n:
            return y / d
        # dgbtrs's U sweep adds -x_i * 0.0 from the zero fill-in, which
        # can turn a -0.0 entry into +0.0; repeat that sweep exactly.
        U = np.zeros((kl + 1, n), order="F")
        U[kl] = d
        return lapack.dtbtrs(U, y, uplo="U")[0]
    return solve


def _banded_factor(Jb: np.ndarray, kl: int, ku: int, h_gamma: float):
    """Factor I - h_gamma J from the band storage ``Jb`` of J.

    ``0.0 - x`` rather than ``-x`` gives +0.0 where h_gamma J is zero, so
    the band equals that of the sparse I - h_gamma J bit for bit.  A lower
    band that partial pivoting leaves alone skips ``dgbtrf``
    (`_unit_lower_solver`); a tridiagonal one is solved by ``dgtsv``; any
    other goes through ``dgbtrf``/``dgbtrs``.
    """
    ab = 0.0 - h_gamma * Jb
    ab[ku] = 1.0 - h_gamma * Jb[ku]
    _require_finite(ab)
    if ku == 0 and _pivot_free(ab):
        return "banded", _unit_lower_solver(ab, kl)
    if kl == ku == 1:
        du, d, dl = ab[0, 1:], ab[1], ab[2, :-1]

        def solve(b):
            *_, x, info = lapack.dgtsv(dl, d, du, b)
            _require_pivots(info, "dgtsv")
            return x
        return "banded", solve
    lu = np.zeros((2 * kl + ku + 1, ab.shape[1]))
    lu[kl:] = ab
    lu, piv, info = lapack.dgbtrf(lu, kl, ku, overwrite_ab=True)
    _require_pivots(info, "dgbtrf")
    return "banded", lambda b: lapack.dgbtrs(lu, kl, ku, b, piv)[0]


def _sparse_factor(A):
    """SuperLU of a sparse A once; the solver is its ``solve``."""
    try:
        return "sparse", splu(A).solve
    except (RuntimeError, ValueError) as exc:
        raise ConvergenceFailure(str(exc)) from exc


def structural_coloring(dependency, n: int):
    """Group columns so no two columns in a group touch a common row.

    ``dependency(i)`` lists the columns structurally read by row i.  All
    columns in one group can be perturbed together in a single RHS call
    when forming a finite-difference Jacobian.  Returns (groups, entries):
    ``entries[g]`` is the (rows, cols) index pair of the Jacobian entries
    group g's perturbation reaches, one pair per entry.
    """
    rows_of_col: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in dict.fromkeys(dependency(i)):
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
    entries = []
    for g in groups:
        rows = np.array([i for j in g for i in rows_of_col[j]], dtype=np.intp)
        cols = np.repeat(np.array(g, dtype=np.intp),
                         [len(rows_of_col[j]) for j in g])
        entries.append((rows, cols))
    return [np.array(g) for g in groups], entries


def fd_jacobian(problem, y: np.ndarray, t: float, coloring=None):
    """Finite-difference Jacobian compressed by structural coloring.

    ``coloring`` is the (groups, entries) pair of `structural_coloring`
    for the problem's structure, built here when None.  Each group costs
    one RHS call, and its entries come from one vectorized difference.
    Returns a CSR matrix without stored zeros when N is above the dense
    limit, else a dense array.
    """
    n = problem.N
    if coloring is None:
        coloring = structural_coloring(problem.dependency, n)
    groups, entries = coloring
    f0 = np.empty(n)
    problem.rhs(y, t, f0)
    dy = np.sqrt(np.finfo(float).eps) * np.maximum(np.abs(y), 1.0)
    f1 = np.empty(n)
    vals = []
    for cols, (r, c) in zip(groups, entries):
        yp = y.copy()
        yp[cols] += dy[cols]
        problem.rhs(yp, t, f1)
        vals.append((f1[r] - f0[r]) / dy[c])
    rows = np.concatenate([r for r, _ in entries])
    cols = np.concatenate([c for _, c in entries])
    vals = np.concatenate(vals)
    if n > DENSE_FACTOR_LIMIT:
        J = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        # A stored zero would widen the band read from the pattern.
        J.eliminate_zeros()
        return J
    J = np.zeros((n, n))
    J[rows, cols] = vals
    return J


@dataclass
class JacobianCache:
    """Jacobian plus factorization of I - h a_ii J, with reuse policy.

    ``config`` is the run's `adapt.SolverConfig`: its
    ``jacobian_strategy`` sets the step-start policy, and `solve_stage`
    reads its tolerances and ``newton_max_iters``.  ``evals`` counts
    Jacobian evaluations, finite-difference ones included; the driver
    reads it as its Jacobian counter when a run ends.  Without an
    analytic Jacobian the column coloring and the entry indices of each
    group (`structural_coloring`) are built on the first refresh and kept
    in ``_coloring``.

    ``_fac`` is the factorization of I - h a_ii J as (backend tag, solver),
    the tag being ``"dense"``, ``"banded"`` or ``"sparse"`` (see the module
    docstring for the LAPACK routines behind each).  It is keyed by
    ``_fac_key = (J, h a_ii)`` on the J object itself, so a refresh or a
    direct assignment to ``J`` forces a new factorization while repeated
    solves with one h a_ii reuse it.  ``_band = (J, kl, ku, Jb)`` keeps the
    bandwidths and the band storage of a sparse J, taken once per J (see
    `_band_storage`), for every h a_ii that J is factored with.  Each
    ``solve`` checks that its result is finite.
    """

    problem: object
    config: object
    J: object = None
    age: int = 0
    evals: int = 0
    _fac: tuple | None = None
    _fac_key: tuple | None = None
    _band: tuple | None = None
    _coloring: tuple | None = field(default=None, repr=False)

    def begin_global_step(self, y: np.ndarray, t: float):
        """Apply the strategy's step-start policy."""
        if self.config.jacobian_strategy == "JacB":
            self.refresh(y, t)
        else:
            self.age += 1
            if self.J is None or self.age >= JACA_REFRESH_PERIOD:
                self.refresh(y, t)

    def refresh(self, y: np.ndarray, t: float):
        p = self.problem
        if getattr(p, "jacobian", None) is not None:
            self.J = p.jacobian(y, t)
        else:
            if self._coloring is None:
                self._coloring = structural_coloring(p.dependency, p.N)
            self.J = fd_jacobian(p, y, t, self._coloring)
        self.evals += 1
        self.age = 0
        self._fac = None
        self._fac_key = None
        self._band = None

    def _factor(self, h_gamma: float):
        J = self.J
        if (self._fac is not None and self._fac_key[0] is J
                and self._fac_key[1] == h_gamma):
            return
        n = J.shape[0]
        if sp.issparse(J):
            if self._band is None or self._band[0] is not J:
                self._band = (J, *_band_storage(J))
            _, kl, ku, Jb = self._band
            if Jb is not None:
                self._fac = _banded_factor(Jb, kl, ku, h_gamma)
            else:
                self._fac = _sparse_factor(
                    sp.identity(n, format="csc") - h_gamma * J.tocsc())
        elif n > DENSE_FACTOR_LIMIT:
            self._fac = _sparse_factor(
                sp.identity(n, format="csc") - h_gamma * sp.csc_matrix(J))
        else:
            self._fac = _dense_factor(np.eye(n) - h_gamma * np.asarray(J))
        self._fac_key = (J, h_gamma)

    def solve(self, h_gamma: float, rhs: np.ndarray) -> np.ndarray:
        self._factor(h_gamma)
        x = self._fac[1](rhs)
        # SuperLU of a singular matrix, or a non-finite right-hand side,
        # shows only here; every backend raises the same error for it.
        if not np.isfinite(x).all():
            raise ConvergenceFailure("singular iteration matrix")
        return x


def solve_stage(problem, t: float, h: float, a_ii: float,
                base: np.ndarray, cache: JacobianCache):
    """Solve U = base + h a_ii f(U, t) by line-search modified Newton.

    Starts from ``base`` and returns U.  The settings come from the run's
    config, ``cache.config``: at most ``newton_max_iters`` iterations, and
    convergence in the weighted max norm |r_i| / (rel_tol |U_i| + abs_tol)
    <= 1 with rel_tol = ``RESIDUAL_TOL_FACTOR * rtol`` and abs_tol =
    ``RESIDUAL_TOL_FACTOR * atol``.  Each Newton direction comes from the
    cached (frozen) Jacobian; a backtracking line search on the residual
    2-norm, down to a damping factor of ``LAM_MIN``, keeps the iteration
    monotone.  The Jacobian is re-evaluated at the current iterate when
    the line search has to damp the step or when the weighted residual
    stalls (reduction factor above 0.9 three times in a row), up to
    ``MAX_REFRESHES`` times per solve.  The iteration cap, an exhausted
    line search, a non-finite evaluation, and a singular iteration matrix
    or non-finite direction from `JacobianCache.solve` raise
    ConvergenceFailure.

    Each quantity is checked for finiteness once, where it is read:

    - the weighted norm of every iterate's residual; at the start a
      non-finite RHS makes it non-finite and is reported as such;
    - each Newton direction, inside `JacobianCache.solve`;
    - each line-search trial through its residual 2-norm: a NaN or Inf
      fails the decrease test, so the search damps the step, and an
      accepted trial is finite.
    """
    if a_ii <= 0:
        raise ValueError("solve_stage requires an implicit stage (a_ii > 0)")
    cfg = cache.config
    rel_tol = RESIDUAL_TOL_FACTOR * cfg.rtol
    abs_tol = RESIDUAL_TOL_FACTOR * cfg.atol
    h_gamma = h * a_ii
    U = base.copy()
    f = np.empty_like(U)
    ft = np.empty_like(U)
    w = np.empty_like(U)
    q = np.empty_like(U)

    def residual(state, deriv):
        problem.rhs(state, t, deriv)
        return state - base - h_gamma * deriv

    def wnorm(r, state):
        np.abs(state, out=w)
        np.multiply(w, rel_tol, out=w)
        np.add(w, abs_tol, out=w)
        np.abs(r, out=q)
        np.divide(q, w, out=q)
        return float(q.max())

    r = residual(U, f)
    n0 = None                   # 2-norm of r, once the line search needs it
    refreshes = 0
    stall_count = 0
    prev_norm = None
    for _ in range(cfg.newton_max_iters):
        norm = wnorm(r, U)
        if not math.isfinite(norm):
            # Accepted trials are finite, so only the first RHS can be.
            what = "RHS" if not np.isfinite(f).all() else "residual"
            raise ConvergenceFailure(f"non-finite {what} during stage solve")
        if norm <= 1.0:
            return U
        if prev_norm is not None:
            stall_count = stall_count + 1 if norm > 0.9 * prev_norm else 0
            if stall_count >= 3:
                if refreshes >= MAX_REFRESHES:
                    raise ConvergenceFailure(
                        "stage iteration stalled with no refreshes left")
                cache.refresh(U, t)
                refreshes += 1
                stall_count = 0
                prev_norm = None
                continue
        prev_norm = norm
        dU = cache.solve(h_gamma, -r)
        # Backtracking line search on the residual 2-norm.  An undamped
        # accepted trial reuses its RHS evaluation for the next iteration,
        # so the well-behaved path costs one RHS call per iteration.
        if n0 is None:
            n0 = math.sqrt(r.dot(r))
        lam = 1.0
        while lam >= LAM_MIN:
            Ut = U + dU if lam == 1.0 else U + lam * dU
            rt = residual(Ut, ft)
            nt = math.sqrt(rt.dot(rt))
            if nt < (1.0 - 1e-4 * lam) * n0:
                break
            lam *= 0.5
        else:
            if refreshes >= MAX_REFRESHES:
                raise ConvergenceFailure(
                    "line search failed with no refreshes left")
            cache.refresh(U, t)
            refreshes += 1
            prev_norm = None
            continue
        U, r, n0 = Ut, rt, nt
        f, ft = ft, f
        if lam < 1.0 and refreshes < MAX_REFRESHES:
            # The frozen-Jacobian direction needed damping; re-linearize.
            cache.refresh(U, t)
            refreshes += 1
            prev_norm = None
    raise ConvergenceFailure(
        f"stage solve did not converge in {cfg.newton_max_iters} iterations")
