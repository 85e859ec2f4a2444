"""Stage-equation solver for implicit (DIRK) stages.

Each implicit stage is one nonlinear system U = base + h a_ii f(U, t),
solved by simplified Newton with the iteration matrix I - h a_ii J.  The
Jacobian J lives in a cache whose lifecycle is set by one of two
strategies, each a refresh period in global steps (`STRATEGIES`): reuse
with a refresh every 10 global steps (JacA), or a fresh evaluation at the
start of every global step (JacB).  Either way a stage solve may also
refresh J, up to ``MAX_REFRESHES`` times, when its line search damps or
its residual stalls.

A stage solve stops on the convergence rate of its Newton steps (Hairer
& Wanner, *Solving ODEs II*, Sec. IV.8): with theta_k the ratio of two
successive step norms, the iterate U + dU_k is returned once
theta_k / (1 - theta_k) ||dU_k|| <= ``KAPPA``, in the weighted max norm of
the step tolerances, and ||dU_k|| <= 1.  The first step of a solve takes
its rate from the last solve that converged with the same cache.  A
residual at most ``RESIDUAL_TOL_FACTOR`` in that norm ends the solve as
well.

The iteration matrix is factored once per (J, h a_ii) and each Newton
direction is then a single LAPACK back-substitution:

- dense J with n <= DENSE_FACTOR_LIMIT: ``dgetrf`` once, ``dgetrs`` per
  solve;
- sparse J with kl + ku <= BANDED_LIMIT, in LAPACK band storage: a
  triangular band (kl = 0 or ku = 0) has its diagonal checked once and
  each solve is one ``dtbtrs`` substitution, without pivoting, which a
  triangular matrix does not need (Higham, *Accuracy and Stability of
  Numerical Algorithms*, Sec. 8.1).  Upper and diagonal bands solve
  bitwise as ``dgbtrs`` would, whose kl = 0 sweep is the same; lower
  bands, the inverter chain's lower-bidiagonal I - h a_ii J among them,
  agree with ``dgbtrs`` only to round-off.  A tridiagonal J calls
  ``dgtsv`` on the stored band per solve, as ``scipy.linalg.solve_banded``
  does, and any other band ``dgbtrf`` once and ``dgbtrs`` per solve.  The
  band of a DIA J (``scipy.sparse.dia_array``) is read directly from its
  diagonals, that of any other sparse format through one ``tocoo()``; kl
  and ku come from the nonzero pattern either way;
- any other J: SuperLU (``splu``) once, its ``solve`` per solve.

A non-finite iteration matrix or a zero pivot (for a triangular band, a
zero diagonal entry) raises ConvergenceFailure when it is factored (for
``dgtsv``, when it is solved).  It is the one exception of a failed
step, so ``solve_stage`` passes it on unchanged.
``solve_stage`` checks every quantity through the norms it computes
anyway: the weighted norm of each iterate's residual (a non-finite RHS
at the start fails there), the weighted norm of each Newton direction (a
non-finite one, the mark of a singular matrix that SuperLU factored or
of an overflow in the solve, raises ConvergenceFailure; an exact test
tells it from a finite direction whose norm overflows) and the 2-norm of
each line-search trial (a non-finite trial fails the decrease test).

A `JacobianCache` carries the run's `adapt.SolverConfig`, the one owner
of its settings, and counts its own Jacobian evaluations and linear
solves; RHS calls are counted by the driver's problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

# Jacobian strategy -> its refresh period in global steps: J is
# re-evaluated at the start of a global step once it is that many steps
# old.  `adapt.SolverConfig` validates the names.
STRATEGIES = {"JacA": 10, "JacB": 1}
# Residual tolerance of a stage solve in the weighted norm of the step
# tolerances, so the algebraic error stays well below the error estimate.
RESIDUAL_TOL_FACTOR = 0.01
# A stage solve returns once the predicted error of its iterate,
# theta / (1 - theta) times the last Newton step, is at most KAPPA in the
# weighted norm of the step tolerances (Hairer & Wanner, Sec. IV.8).
KAPPA = 0.05
_UROUND = np.finfo(float).eps
DENSE_FACTOR_LIMIT = 512
BANDED_LIMIT = 4
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


def _triangular_solver(ab: np.ndarray, ku: int):
    """Solver of a triangular band ab (kl = 0 or ku = 0, row ku the
    diagonal): one ``dtbtrs`` substitution per right-hand side.

    Substitution without pivoting is backward stable (Higham, *Accuracy
    and Stability of Numerical Algorithms*, Sec. 8.1), so the band needs no
    LU.  A zero on the diagonal raises ConvergenceFailure here, once,
    naming its position.  The band is kept Fortran-ordered, as a C-ordered
    band costs f2py a copy per call.
    """
    zero = np.flatnonzero(ab[ku] == 0.0)
    if zero.size:
        raise ConvergenceFailure("singular iteration matrix "
                                 f"(zero pivot {zero[0] + 1} on the diagonal)")
    T = np.asfortranarray(ab)
    uplo = "L" if ku == 0 else "U"
    return lambda b: lapack.dtbtrs(T, b, uplo=uplo)[0]


def _banded_factor(Jb: np.ndarray, kl: int, ku: int, h_gamma: float):
    """Factor I - h_gamma J from the band storage ``Jb`` of J.

    ``0.0 - x`` rather than ``-x`` gives +0.0 where h_gamma J is zero, so
    the band equals that of the sparse I - h_gamma J bit for bit.  A
    triangular band (kl = 0 or ku = 0) is solved by substitution
    (`_triangular_solver`); a tridiagonal one by ``dgtsv``; any other goes
    through ``dgbtrf``/``dgbtrs``.
    """
    ab = 0.0 - h_gamma * Jb
    ab[ku] = 1.0 - h_gamma * Jb[ku]
    _require_finite(ab)
    if kl == 0 or ku == 0:
        return "banded", _triangular_solver(ab, ku)
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
    ``jacobian_strategy`` sets the refresh period, and `solve_stage`
    reads its tolerances and ``newton_max_iters``.  ``evals`` counts
    Jacobian evaluations, finite-difference ones included, and ``solves``
    the linear solves; the driver reads both as its counters when a run
    ends.  ``eta`` is the rate factor theta / (1 - theta) of the last
    stage solve that converged, from which the next solve judges its
    first Newton step (1 before any).  Without an
    analytic Jacobian the column coloring and the entry indices of each
    group (`structural_coloring`) are built on the first refresh and kept
    in ``_coloring``.  ``_work`` holds the four work vectors of
    `solve_stage`, allocated by its first solve and reused by the rest.

    ``_fac`` is the factorization of I - h a_ii J as (backend tag, solver,
    h a_ii), the tag being ``"dense"``, ``"banded"`` or ``"sparse"`` (see
    the module docstring for the LAPACK routines behind each); repeated
    solves with one h a_ii reuse it.  ``_band = (kl, ku, Jb)`` keeps the
    bandwidths and the band storage of a sparse J (see `_band_storage`)
    for every h a_ii that J is factored with.  ``refresh``, the one writer
    of J in a run, drops both.  ``solve`` returns the solution as the
    backend gives it, finite or not: `solve_stage` checks its direction.
    """

    problem: object
    config: object
    J: object = None
    age: int = 0
    evals: int = 0
    solves: int = 0
    eta: float = 1.0
    _fac: tuple | None = None
    _band: tuple | None = None
    _coloring: tuple | None = field(default=None, repr=False)
    _work: tuple | None = field(default=None, repr=False)

    def begin_global_step(self, y: np.ndarray, t: float):
        """Count the step; refresh J if there is none or it has reached
        the strategy's refresh period."""
        self.age += 1
        if (self.J is None
                or self.age >= STRATEGIES[self.config.jacobian_strategy]):
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
        self._band = None

    def _factor(self, h_gamma: float) -> tuple:
        J = self.J
        n = J.shape[0]
        if sp.issparse(J):
            if self._band is None:
                self._band = _band_storage(J)
            kl, ku, Jb = self._band
            if Jb is not None:
                fac = _banded_factor(Jb, kl, ku, h_gamma)
            else:
                fac = _sparse_factor(
                    sp.identity(n, format="csc") - h_gamma * J.tocsc())
        elif n > DENSE_FACTOR_LIMIT:
            fac = _sparse_factor(
                sp.identity(n, format="csc") - h_gamma * sp.csc_matrix(J))
        else:
            fac = _dense_factor(np.eye(n) - h_gamma * np.asarray(J))
        return (*fac, h_gamma)

    def work_vectors(self, n: int) -> tuple:
        """Four length-n vectors that `solve_stage` overwrites before use."""
        if self._work is None or self._work[0].shape[0] != n:
            self._work = tuple(np.empty(n) for _ in range(4))
        return self._work

    def solve(self, h_gamma: float, rhs: np.ndarray) -> np.ndarray:
        self.solves += 1
        fac = self._fac
        if fac is None or fac[2] != h_gamma:
            fac = self._fac = self._factor(h_gamma)
        return fac[1](rhs)


def solve_stage(problem, t: float, h: float, a_ii: float,
                base: np.ndarray, cache: JacobianCache, rate=None):
    """Solve U = base + h a_ii f(U, t) by safeguarded simplified Newton.

    Starts from base + h a_ii ``rate``, or from ``base`` when ``rate`` is
    None, and returns U.  `rk_step` passes the last stage's derivative,
    so a stage starts as if its rate were that of the stage before.  The
    settings come from the run's config, ``cache.config``.  Norms are
    weighted max norms max_i |x_i| / (rtol |U_i| + atol) at the current
    iterate U.  Each Newton step dU_k = -(I - h a_ii J)^-1 r(U) uses the
    cached (frozen) Jacobian, and at most ``newton_max_iters`` steps are
    taken.  The solve returns:

    - U + dU_k, without evaluating the residual there, once
      eta_k ||dU_k|| <= ``KAPPA`` and ||dU_k|| <= 1.  eta_k =
      theta_k / (1 - theta_k), with theta_k = ||dU_k|| / ||dU_{k-1}||
      and eta_k = inf when theta_k >= 1.  The first step of a solve, and
      the first after a Jacobian refresh, has no theta of its own: it
      keeps the eta in force, which starts at max(``cache.eta``,
      uround)^0.8.  The eta of the returning solve is kept in
      ``cache.eta``.  The bound on the step itself guards against a
      rate measured on large first steps, which can be far below the
      rate near the root;
    - U once its residual norm is at most ``RESIDUAL_TOL_FACTOR``.

    A step that fails the rate test is safeguarded by a backtracking line
    search on the residual 2-norm, down to a damping factor of
    ``LAM_MIN``; an undamped trial's RHS call serves the next iteration.
    The Jacobian is re-evaluated at the current iterate when the line
    search has to damp the step or when the weighted residual stalls
    (reduction factor above 0.9 three times in a row), up to
    ``MAX_REFRESHES`` times per solve.  The step cap, an exhausted line
    search, a non-finite evaluation or direction, and a singular
    iteration matrix raise ConvergenceFailure.

    Each quantity is checked for finiteness once, where it is read:

    - the weighted norm of every iterate's residual; at the start a
      non-finite RHS makes it non-finite and is reported as such;
    - the weighted norm of each Newton direction: a non-finite direction
      makes it non-finite and raises "singular iteration matrix", as
      that is what SuperLU leaves of a singular matrix; only then is the
      direction itself tested, so a finite direction whose norm
      overflows goes on to the line search;
    - each line-search trial through its residual 2-norm: a NaN or Inf
      fails the decrease test, so the search damps the step, and an
      accepted trial is finite.
    """
    if a_ii <= 0:
        raise ValueError("solve_stage requires an implicit stage (a_ii > 0)")
    cfg = cache.config
    h_gamma = h * a_ii
    U = base.copy() if rate is None else base + h_gamma * rate
    f, ft, w, q = cache.work_vectors(U.shape[0])

    def residual(state, deriv):
        problem.rhs(state, t, deriv)
        return state - base - h_gamma * deriv

    def wnorm(x):
        """Weighted max norm of x with the weights ``w`` of the iterate."""
        np.abs(x, out=q)
        np.divide(q, w, out=q)
        # The ufunc's own reduce, without ndarray.max's Python wrapper.
        return float(np.maximum.reduce(q))

    r = residual(U, f)
    eta = max(cache.eta, _UROUND) ** 0.8
    n0 = None                   # 2-norm of r, once the line search needs it
    refreshes = stall_count = steps = 0
    prev_norm = prev_step = None
    while True:
        np.abs(U, out=w)
        np.multiply(w, cfg.rtol, out=w)
        np.add(w, cfg.atol, out=w)
        norm = wnorm(r)
        if not math.isfinite(norm):
            # Accepted trials are finite, so only the first RHS can be.
            what = "RHS" if not np.isfinite(f).all() else "residual"
            raise ConvergenceFailure(f"non-finite {what} during stage solve")
        if norm <= RESIDUAL_TOL_FACTOR:
            cache.eta = eta
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
                prev_norm = prev_step = None
                continue
        if steps == cfg.newton_max_iters:
            raise ConvergenceFailure(
                f"stage solve did not converge in {steps} Newton steps")
        prev_norm = norm
        # The solve of r itself is minus the Newton step dU_k, bit for bit,
        # so the iterate moves by subtracting it.
        dU = cache.solve(h_gamma, r)
        steps += 1
        step = wnorm(dU)
        if not math.isfinite(step) and not np.isfinite(dU).all():
            raise ConvergenceFailure("singular iteration matrix")
        if prev_step is not None:
            theta = step / prev_step
            eta = theta / (1.0 - theta) if theta < 1.0 else math.inf
        prev_step = max(step, _UROUND)
        if eta * step <= KAPPA and step <= 1.0:
            cache.eta = eta
            return U - dU
        # Backtracking line search on the residual 2-norm.  An undamped
        # accepted trial reuses its RHS evaluation for the next iteration.
        if n0 is None:
            n0 = math.sqrt(r.dot(r))
        lam = 1.0
        while lam >= LAM_MIN:
            Ut = U - dU if lam == 1.0 else U - lam * dU
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
            prev_norm = prev_step = None
            continue
        U, r, n0 = Ut, rt, nt
        f, ft = ft, f
        if lam < 1.0 and refreshes < MAX_REFRESHES:
            # The frozen-Jacobian direction needed damping; re-linearize.
            cache.refresh(U, t)
            refreshes += 1
            prev_norm = prev_step = None
