from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack, lu_factor, lu_solve, solve_banded
from hypothesis import given, settings, strategies as st

from mrrk import newton
from mrrk.adapt import SolverConfig
from mrrk.newton import (ConvergenceFailure, JacobianCache, fd_jacobian,
                         solve_stage, structural_coloring)
from mrrk.odecore import OdeProblem

from conftest import counting_problem, make_linear_problem


def tridiag_problem(n, lo=0.3, mid=-2.0, hi=0.4):
    L = (np.diag(np.full(n, mid)) + np.diag(np.full(n - 1, lo), -1)
         + np.diag(np.full(n - 1, hi), 1))
    return make_linear_problem(L), L


def test_structural_coloring_tridiagonal():
    n = 20
    dep = lambda i: tuple(j for j in (i - 1, i, i + 1) if 0 <= j < n)
    groups, _ = structural_coloring(dep, n)
    assert sorted(np.concatenate(groups).tolist()) == list(range(n))
    # Tridiagonal structure admits a 3-coloring.
    assert len(groups) <= 3
    rows_of_col = [set(i for i in range(n) if j in dep(i)) for j in range(n)]
    for g in groups:
        seen = set()
        for j in g:
            assert not seen.intersection(rows_of_col[j])
            seen.update(rows_of_col[j])


def test_structural_coloring_dense_needs_n_colors():
    n = 5
    groups, _ = structural_coloring(lambda i: tuple(range(n)), n)
    assert len(groups) == n


def test_fd_jacobian_matches_analytic_dense():
    def rhs(y, t, out):
        out[0] = -y[0] ** 2 + y[1]
        out[1] = np.sin(y[0]) - 2.0 * y[1]
    prob = OdeProblem(N=2, rhs=rhs, t_span=(0, 1), y0=np.zeros(2),
                      dependency=lambda i: (0, 1))
    y = np.array([0.7, -0.2])
    J = fd_jacobian(prob, y, 0.0)
    exact = np.array([[-2 * y[0], 1.0], [np.cos(y[0]), -2.0]])
    np.testing.assert_allclose(J, exact, atol=1e-6)


def test_fd_jacobian_sparse_large_tridiagonal():
    n = 600
    prob, L = tridiag_problem(n)
    prob_no_jac = OdeProblem(N=n, rhs=prob.rhs, t_span=(0, 1),
                             y0=np.ones(n), dependency=prob.dependency)
    J = fd_jacobian(prob_no_jac, np.ones(n), 0.0)
    assert sp.issparse(J)
    np.testing.assert_allclose(J.toarray(), L, atol=1e-6)


def fd_jacobian_loop(problem, y, t):
    """`fd_jacobian` as it was: entry by entry into a ``lil_matrix``."""
    n = problem.N
    groups, _ = structural_coloring(problem.dependency, n)
    rows_of_col = [[] for _ in range(n)]
    for i in range(n):
        for j in problem.dependency(i):
            rows_of_col[j].append(i)
    f0 = np.empty(n)
    problem.rhs(y, t, f0)
    sparse = n > newton.DENSE_FACTOR_LIMIT
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


@pytest.mark.parametrize("n", [300, 1000])
def test_fd_jacobian_equals_entry_loop(n):
    from dataclasses import replace
    from mrrk import bench
    prob = replace(bench.make_inverter_chain(bench.InverterChainParams(N=n)),
                   jacobian=None, jacobian_restricted=None)
    rng = np.random.default_rng(n)
    # Most stages at rest, where the coupling to the previous stage is an
    # exact zero that the sparse result must not store.
    y = prob.y0 + rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.3)
    ref = fd_jacobian_loop(prob, y, 6.0)
    J = fd_jacobian(prob, y, 6.0)
    if n <= newton.DENSE_FACTOR_LIMIT:
        assert isinstance(J, np.ndarray) and J.tobytes() == ref.tobytes()
        return
    assert type(J) is type(ref) and J.format == "csr"
    assert 0 < (ref.toarray() != 0).sum() == J.nnz < 2 * n - 1
    np.testing.assert_array_equal(J.indptr, ref.indptr)
    np.testing.assert_array_equal(J.indices, ref.indices)
    assert J.data.tobytes() == ref.data.tobytes()
    # A dependency that lists a column twice reads it once.
    twice = OdeProblem(N=n, rhs=prob.rhs, t_span=prob.t_span, y0=prob.y0,
                       dependency=lambda i: prob.dependency(i) * 2)
    J2 = fd_jacobian(twice, y, 6.0)
    assert J2.data.tobytes() == J.data.tobytes()
    np.testing.assert_array_equal(J2.indices, J.indices)


def test_cache_banded_matches_dense_solve():
    n = 600
    prob, L = tridiag_problem(n)
    cfg = SolverConfig()
    cache = JacobianCache(prob, cfg)
    cache.refresh(np.ones(n), 0.0)
    # The analytic Jacobian is dense here; force the sparse banded path.
    cache.J = sp.csr_matrix(L)
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=n)
    hg = 0.07
    x = cache.solve(hg, rhs)
    assert cache._fac[0] == "banded"
    x_ref = np.linalg.solve(np.eye(n) - hg * L, rhs)
    np.testing.assert_allclose(x, x_ref, atol=1e-10)


def test_cache_sparse_path_for_wide_bandwidth():
    n = 600
    rng = np.random.default_rng(3)
    # Pentadiagonal plus a far off-diagonal band exceeds the banded limit.
    L = sp.lil_matrix((n, n))
    for i in range(n):
        L[i, i] = -3.0
        if i + 50 < n:
            L[i, i + 50] = 0.1
    L = L.tocsr()
    prob = OdeProblem(N=n, rhs=lambda y, t, out: None, t_span=(0, 1),
                      y0=np.zeros(n), dependency=lambda i: (i,))
    cache = JacobianCache(prob, SolverConfig())
    cache.J = L
    rhs = rng.normal(size=n)
    x = cache.solve(0.1, rhs)
    assert cache._fac[0] == "sparse"
    x_ref = np.linalg.solve(np.eye(n) - 0.1 * L.toarray(), rhs)
    np.testing.assert_allclose(x, x_ref, atol=1e-10)


def test_cache_sparse_path_for_large_dense_jacobian():
    """A dense J above DENSE_FACTOR_LIMIT is factored by SuperLU."""
    from mrrk import bench
    prob = bench.make_heating(bench.HeatingParams(N=256))
    n = prob.N
    assert n > newton.DENSE_FACTOR_LIMIT
    rng = np.random.default_rng(5)
    y = prob.y0.copy()
    # Open valves (the G_h block) couple the supply to every unit.
    y[1:257] = rng.uniform(50.0, 200.0, 256)
    cache = JacobianCache(prob, SolverConfig())
    cache.refresh(y, 8 * 3600.0)
    assert isinstance(cache.J, np.ndarray)
    rhs = rng.normal(size=n)
    x = cache.solve(50.0, rhs)
    assert cache._fac[0] == "sparse"
    x_ref = np.linalg.solve(np.eye(n) - 50.0 * cache.J, rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_factorization_reused_for_same_h_gamma():
    prob, L = tridiag_problem(8)
    cache = JacobianCache(prob, SolverConfig())
    cache.refresh(np.ones(8), 0.0)
    cache.solve(0.05, np.ones(8))
    fac = cache._fac
    cache.solve(0.05, np.zeros(8))
    assert cache._fac is fac
    cache.solve(0.06, np.zeros(8))
    assert cache._fac is not fac


def test_strategy_step_start_policies(monkeypatch):
    monkeypatch.setitem(newton.STRATEGIES, "JacA", 3)
    prob, _ = tridiag_problem(4)
    y = np.ones(4)
    jb = JacobianCache(prob, SolverConfig(jacobian_strategy="JacB"))
    for _ in range(4):
        jb.begin_global_step(y, 0.0)
    assert jb.evals == 4
    ja = JacobianCache(prob, SolverConfig(jacobian_strategy="JacA"))
    for _ in range(7):
        ja.begin_global_step(y, 0.0)
    # First call evaluates (empty cache), then every third step.
    assert ja.evals == 3


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_matrix_surfaces_as_convergence_failure():
    prob, _ = tridiag_problem(4)
    cache = JacobianCache(prob, SolverConfig())
    cache.J = np.eye(4)
    with pytest.raises(ConvergenceFailure):
        # I - 1.0 * I is exactly singular.
        cache.solve(1.0, np.ones(4))


def test_singular_banded_matrix_raises():
    n = 4
    prob, _ = tridiag_problem(n)
    cache = JacobianCache(prob, SolverConfig())
    cache.J = sp.csr_matrix(np.eye(n))
    with pytest.raises(ConvergenceFailure):
        cache.solve(1.0, np.ones(n))


def random_banded(rng, n, kl, ku):
    """Sparse n x n matrix with every diagonal from -kl to ku nonzero."""
    offsets = [k for k in range(-kl, ku + 1) if abs(k) < n]
    diags = [rng.normal(size=n - abs(k)) for k in offsets]
    return sp.diags(diags, offsets, format="csr")


def scipy_banded_solve(J, kl, ku, hg, b):
    """The former backend: sparse I - hg J, packed for ``solve_banded``."""
    n = J.shape[0]
    coo = (sp.identity(n, format="csc") - hg * J.tocsc()).tocoo()
    ab = np.zeros((kl + ku + 1, n))
    ab[ku + coo.row - coo.col, coo.col] = coo.data
    return solve_banded((kl, ku), ab, b)


# Upper and diagonal bands too: ``dgbtrs`` with kl = 0 is the ``dtbsv``
# sweep of their triangular solve.
@pytest.mark.parametrize("kl, ku", [(0, 0), (0, 1), (0, 2),
                                    (0, newton.BANDED_LIMIT), (1, 1),
                                    (2, 2)])
def test_banded_backend_bitwise_equals_solve_banded(kl, ku):
    rng = np.random.default_rng(10 * kl + ku)
    for _ in range(40):
        n = int(rng.integers(kl + ku + 1, 60))
        J = random_banded(rng, n, kl, ku)
        hg = float(rng.uniform(0.05, 3.0))
        cache = JacobianCache(None, SolverConfig())
        cache.J = J
        for _ in range(3):
            b = rng.normal(size=n)
            x = cache.solve(hg, b)
            assert cache._fac[0] == "banded" and x.shape == b.shape
            assert x.tobytes() == scipy_banded_solve(J, kl, ku, hg,
                                                     b).tobytes()


@pytest.mark.parametrize("n", [1, 5, 40])
def test_dense_backend_bitwise_equals_lu_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        J = rng.normal(size=(n, n))
        hg = float(rng.uniform(0.05, 3.0))
        cache = JacobianCache(None, SolverConfig())
        cache.J = J
        fac = lu_factor(np.eye(n) - hg * J)
        for _ in range(3):
            b = rng.normal(size=n)
            x = cache.solve(hg, b)
            assert cache._fac[0] == "dense" and x.shape == b.shape
            assert x.tobytes() == lu_solve(fac, b).tobytes()


def assert_dia_band_matches_csr(J, backend):
    """A DIA J and its CSR copy give one (kl, ku, Jb) and bitwise solves."""
    n = J.shape[0]
    caches = []
    for M in (J, J.tocsr()):
        cache = JacobianCache(None, SolverConfig())
        cache.J = M
        caches.append(cache)
    rng = np.random.default_rng(n)
    for hg in (0.05, 0.7, 0.05):
        b = rng.normal(size=n)
        x_dia, x_csr = (cache.solve(hg, b) for cache in caches)
        assert caches[0]._fac[0] == caches[1]._fac[0] == backend
        assert x_dia.tobytes() == x_csr.tobytes()
    dia, csr = (list(cache._band) for cache in caches)
    assert dia[:2] == csr[:2]
    if dia[2] is None:
        assert csr[2] is None
    else:
        np.testing.assert_array_equal(dia[2], csr[2])
    return dia[:2]


def test_dia_band_of_benchmark_jacobians_matches_csr():
    from mrrk import bench
    rng = np.random.default_rng(8)
    inv = bench.make_inverter_chain(bench.InverterChainParams(N=300))
    y = rng.uniform(0.0, 5.0, inv.N)
    assert assert_dia_band_matches_csr(inv.jacobian(y, 12.0),
                                       "banded") == [1, 0]
    # At rest every coupling is zero (stored as -0.0): the band shrinks to
    # the diagonal, as for the CSR form, which drops the zeros.
    J = inv.jacobian(inv.y0, 0.0)
    assert J.format == "dia" and not J.data[1].any()
    assert assert_dia_band_matches_csr(J, "banded") == [0, 0]
    burgers = bench.make_burgers(bench.BurgersParams(N=300))
    J = burgers.jacobian(bench.burgers_initial(bench.BurgersParams(N=300)),
                         0.0)
    assert J.format == "dia"
    assert assert_dia_band_matches_csr(J, "banded") == [1, 1]


def test_dia_band_ignores_padding_and_zero_diagonals():
    n = 50
    rng = np.random.default_rng(9)
    data = rng.normal(size=(5, n + 3))
    offsets = [0, -1, 2, -3, 7]
    data[3] = 0.0            # offset -3 is all zero
    data[4, 7:] = 0.0        # offset 7 is zero inside the matrix
    # Garbage in the padding outside the matrix (and past column n).
    data[1, n - 1:] = np.nan
    data[2, :2] = 1e300
    data[4, :7] = np.inf
    data[0, n:] = np.nan
    J = sp.dia_array((data, offsets), shape=(n, n))
    assert assert_dia_band_matches_csr(J, "banded") == [1, 2]
    # A zero main diagonal with one nonzero sub-diagonal entry.
    J = sp.dia_array((np.array([np.zeros(n), np.eye(1, n, 3)[0]]), [0, -2]),
                     shape=(n, n))
    assert assert_dia_band_matches_csr(J, "banded") == [2, 0]
    # Data rows shorter than n, and a diagonal wholly outside the matrix.
    data = rng.normal(size=(3, n - 5))
    J = sp.dia_array((data, [0, 1, -n]), shape=(n, n))
    assert assert_dia_band_matches_csr(J, "banded") == [0, 1]


def test_dia_beyond_banded_limit_goes_to_superlu():
    n = 60
    rng = np.random.default_rng(10)
    offsets = [-3, -1, 0, 1, 2]
    data = rng.normal(size=(len(offsets), n))
    data[offsets.index(0)] -= 4.0
    J = sp.dia_array((data, offsets), shape=(n, n))
    assert assert_dia_band_matches_csr(J, "sparse") == [3, 2]


def test_band_storage_sums_duplicate_entries():
    n = 5
    rng = np.random.default_rng(12)
    rows, cols = [0, 1, 2, 3, 4, 2, 1], [0, 1, 2, 3, 4, 2, 0]
    vals = rng.normal(size=len(rows))
    b = rng.normal(size=n)
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    # The same entries as a CSR matrix with a duplicate in row 2.
    csr = sp.csr_matrix((vals[[0, 6, 1, 2, 5, 3, 4]],
                         [0, 0, 1, 2, 2, 3, 4], [0, 1, 3, 5, 6, 7]),
                        shape=(n, n))
    assert not csr.has_canonical_format
    A = np.eye(n) - 0.1 * coo.toarray()
    for J in (coo, csr):
        data = J.data.copy()
        cache = JacobianCache(None, SolverConfig())
        cache.J = J
        x = cache.solve(0.1, b)
        assert cache._fac[0] == "banded" and cache._band[:2] == (1, 0)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-14,
                                   atol=1e-14)
        # The caller's matrix keeps its duplicates.
        assert J.nnz == len(rows) and J.data.tobytes() == data.tobytes()


@pytest.fixture
def dtbtrs_calls(monkeypatch):
    """The ``uplo`` of every ``lapack.dtbtrs`` call made during a test."""
    calls = []
    real = lapack.dtbtrs

    def spy(*args, **kwargs):
        calls.append(kwargs.get("uplo", "U"))
        return real(*args, **kwargs)
    monkeypatch.setattr(lapack, "dtbtrs", spy)
    return calls


@pytest.fixture
def band_lu_calls(monkeypatch):
    """The names of the ``dgbtrf``/``dgbtrs`` calls made during a test."""
    calls = []
    for name in ("dgbtrf", "dgbtrs"):
        real = getattr(lapack, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(lapack, name, spy)
    return calls


def componentwise_backward_error(A, x, b):
    """max_i |b - A x|_i / (|A| |x| + |b|)_i (Oettli and Prager), the
    residual taken in extended precision."""
    Ae, xe, be = (np.asarray(v, dtype=np.longdouble) for v in (A, x, b))
    r = np.abs(be - Ae @ xe)
    scale = np.abs(Ae) @ np.abs(xe) + np.abs(be)
    return float(np.max(r / scale))


TRIANGULAR_BANDS = ([(kl, 0) for kl in range(1, newton.BANDED_LIMIT + 1)]
                    + [(0, ku) for ku in range(1, newton.BANDED_LIMIT + 1)])


@pytest.mark.parametrize("kl, ku", TRIANGULAR_BANDS)
def test_triangular_band_is_one_dtbtrs_per_solve(kl, ku, dtbtrs_calls,
                                                 band_lu_calls):
    """Each solve of a triangular band is one ``dtbtrs`` substitution of
    the right triangle, with no LU, even where an off-diagonal entry beats
    its diagonal by 50x (where partial pivoting would swap rows), and its
    componentwise backward error is at most (kl + ku + 2) eps against the
    dense I - hg J."""
    rng = np.random.default_rng(30 + 10 * kl + ku)
    solves = 0
    for trial in range(30):
        n = int(rng.integers(kl + ku + 2, 80))
        hg = float(rng.uniform(0.05, 3.0))
        J = random_banded(rng, n, kl, ku).tolil()
        if trial % 2:
            # Entry (i, j) off the diagonal, 50 times the diagonal entry
            # of column j in I - hg J.
            k = int(rng.integers(1, kl + ku + 1))
            j = int(rng.integers(0, n - k))
            i, j = (j + k, j) if kl else (j, j + k)
            J[i, j] = 50.0 * (1.0 - hg * J[j, j]) / hg
        J = J.tocsr()
        A = np.eye(n) - hg * J.toarray()
        cache = JacobianCache(None, SolverConfig())
        cache.J = J
        for _ in range(3):
            b = rng.normal(size=n)
            x = cache.solve(hg, b)
            solves += 1
            assert cache._fac[0] == "banded" and x.shape == b.shape
            assert (componentwise_backward_error(A, x, b)
                    <= (kl + ku + 2) * np.finfo(float).eps)
    assert dtbtrs_calls == ["L" if ku == 0 else "U"] * solves
    assert band_lu_calls == []


def test_lower_band_with_zero_diagonal_raises(dtbtrs_calls):
    """A zero diagonal entry of a lower or an upper band I - hg J fails
    when the band is factored, naming its 1-based position, before any
    substitution."""
    n = 6
    diag = np.full(n, -1.0)
    off = np.full(n - 1, 0.25)
    # With hg = 1, I - J has a zero diagonal entry, and the off-diagonal
    # entry next to it is zero too.
    diag[3], off[3] = 1.0, 0.0
    for offset, band in ((-1, (1, 0)), (1, (0, 1))):
        cache = JacobianCache(None, SolverConfig())
        cache.J = sp.diags([diag, off], [0, offset], format="csr")
        assert newton._band_storage(cache.J)[:2] == band
        with pytest.raises(ConvergenceFailure,
                           match="singular iteration matrix "
                                 r"\(zero pivot 4 on the diagonal\)"):
            cache.solve(1.0, np.ones(n))
    assert dtbtrs_calls == []


def inverter_run(mode):
    from mrrk import bench
    from mrrk.adapt import integrate
    from mrrk.tableaux import get_method
    prob = bench.make_inverter_chain(bench.InverterChainParams(
        N=50, t_span=(0.0, 8.0)))
    cfg = SolverConfig(rtol=1e-5, atol=1e-5, mode=mode, phi=0.05,
                       t_eval=np.linspace(5.0, 8.0, 61))
    return integrate(prob, get_method("esdirk3"), cfg)


def test_inverter_jacobian_reaches_triangular_branch(dtbtrs_calls,
                                                     monkeypatch):
    bands = []
    real = newton._triangular_solver

    def spy(ab, ku):
        bands.append((ab.shape[0] - 1 - ku, ku))
        return real(ab, ku)
    monkeypatch.setattr(newton, "_triangular_solver", spy)
    res = inverter_run("single")
    # The chain's lower-bidiagonal I - h a_ii J, once the input moves it.
    assert (1, 0) in bands and dtbtrs_calls.count("L") > \
        res.stats.accepted_global


# I - 1.0 J is exactly singular for each J below: the zero matrix, a lower
# bidiagonal matrix with a zero diagonal, and a tridiagonal one with two
# equal rows.
SINGULAR_AT_HG_1 = {
    "dense": np.eye(4),
    "banded": sp.csr_matrix(np.eye(4) - np.diag([0.5, 0.5, 0.5], -1)),
    "tridiagonal": sp.csr_matrix(np.eye(4) - np.array(
        [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
         [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])),
}


@pytest.mark.parametrize("path", sorted(SINGULAR_AT_HG_1))
def test_singular_iteration_matrix_raises_on_every_path(path):
    cache = JacobianCache(None, SolverConfig())
    cache.J = SINGULAR_AT_HG_1[path]
    with pytest.raises(ConvergenceFailure, match="singular"):
        cache.solve(1.0, np.ones(4))


@pytest.mark.parametrize("path", sorted(SINGULAR_AT_HG_1))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_iteration_matrix_raises_on_every_path(path, bad):
    J = SINGULAR_AT_HG_1[path].copy()
    J[1, 0] = bad
    cache = JacobianCache(None, SolverConfig())
    cache.J = J
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        cache.solve(0.5, np.ones(4))


def test_factorization_keyed_on_jacobian_object():
    """A factorization and a band serve the J of one refresh."""
    n = 8
    prob, L = tridiag_problem(n)
    rng = np.random.default_rng(4)
    b = rng.normal(size=n)
    cache = JacobianCache(prob, SolverConfig())
    cache.refresh(np.ones(n), 0.0)
    cache.solve(0.05, b)
    fac = cache._fac
    # The problem returns the same J object; refresh still refactors.
    cache.refresh(np.ones(n), 0.0)
    cache.solve(0.05, b)
    assert cache._fac is not fac
    # A sparse J's band storage is taken once and serves every h_gamma.
    J = sp.csr_matrix(L)
    cache = JacobianCache(replace(prob, jacobian=lambda y, t: J),
                          SolverConfig())
    cache.refresh(np.ones(n), 0.0)
    cache.solve(0.05, b)
    band, fac = cache._band, cache._fac
    x = cache.solve(0.07, b)
    assert cache._band is band and cache._fac is not fac
    np.testing.assert_allclose(x, np.linalg.solve(np.eye(n) - 0.07 * L, b),
                               rtol=1e-12)
    cache.refresh(np.ones(n), 0.0)
    cache.solve(0.07, b)
    assert cache._band is not band


def test_refresh_drops_band_of_jacobian_updated_in_place():
    n = 8
    _, L = tridiag_problem(n)
    J = sp.csr_matrix(L)
    prob = OdeProblem(N=n, rhs=lambda y, t, out: None, t_span=(0, 1),
                      y0=np.zeros(n), dependency=lambda i: (i,),
                      jacobian=lambda y, t: J)
    cache = JacobianCache(prob, SolverConfig())
    cache.refresh(np.ones(n), 0.0)
    b = np.ones(n)
    cache.solve(0.1, b)
    J.data *= 2.0
    cache.refresh(np.ones(n), 0.0)
    x = cache.solve(0.1, b)
    np.testing.assert_allclose(x, np.linalg.solve(np.eye(n) - 0.2 * L, b),
                               rtol=1e-12)


def test_solve_stage_linear_exact():
    """On y' = Ly one Newton iteration lands on the exact stage value."""
    prob, L = tridiag_problem(6)
    cfg = SolverConfig(newton_max_iters=10, rtol=1e-11, atol=1e-11)
    cache = JacobianCache(prob, cfg)
    cache.refresh(np.ones(6), 0.0)
    base = np.linspace(0.5, 1.5, 6)
    h, a_ii = 0.2, 0.3
    prob, calls = counting_problem(prob)
    U = solve_stage(prob, 0.0, h, a_ii, base, cache)
    U_ref = np.linalg.solve(np.eye(6) - h * a_ii * L, base)
    np.testing.assert_allclose(U, U_ref, atol=1e-11)
    assert cache.evals == 1                 # no refresh inside the solve
    assert calls["rhs"] <= 3


def test_linear_stage_with_exact_jacobian_takes_one_newton_step():
    """With the exact J of y' = Ly the first Newton step lands on the stage
    value to round-off.  A fresh cache cannot predict the step's error,
    so the residual there ends the solve.  After a fast solve, a first
    step within the tolerance returns without that residual; a larger
    one is still checked by it."""
    prob, L = tridiag_problem(6)
    cfg = SolverConfig(rtol=1e-6, atol=1e-6)
    cache = JacobianCache(prob, cfg)
    cache.refresh(np.ones(6), 0.0)
    base = np.linspace(0.5, 1.5, 6)
    hg = 0.06
    U_ref = np.linalg.solve(np.eye(6) - hg * L, base)
    # A rate that starts the solve 0.2 tolerances from the root.
    near = (U_ref - base) / hg + 0.2e-6 * (np.abs(U_ref) + 1.0) / hg
    prob, calls = counting_problem(prob)
    for rate, eta, rhs_calls in ((None, 1.0, 2), (near, 0.0, 1),
                                 (None, 0.0, 2)):
        cache.eta = eta
        calls["rhs"] = cache.solves = 0
        U = solve_stage(prob, 0.0, hg, 1.0, base, cache, rate)
        assert (cache.solves, calls["rhs"]) == (1, rhs_calls)
        np.testing.assert_allclose(U, U_ref, rtol=1e-14, atol=0)
    assert cache.evals == 1


def test_nonlinear_stage_stops_within_kappa_of_the_root():
    """A frozen J away from the root makes Newton converge linearly.  The
    solve stops on the rate test, before a residual at the returned U, and
    that U lies within KAPPA of the root in the weighted norm."""
    def rhs(y, t, out):
        np.negative(y ** 3, out=out)
        out[:-1] += 0.5 * y[1:]

    def jac(y, t):
        return np.diag(-3.0 * y ** 2) + np.diag(np.full(2, 0.5), 1)
    prob = OdeProblem(N=3, rhs=rhs, t_span=(0, 1), y0=np.ones(3),
                      dependency=lambda i: (i, i + 1) if i < 2 else (i,),
                      jacobian=jac)
    base = np.array([1.0, 1.5, 2.0])
    hg = 0.2
    cache = JacobianCache(prob, SolverConfig(rtol=1e-6, atol=1e-6))
    # J at a fifth below the root: each step shrinks the error fourfold.
    cache.refresh(np.array([0.75, 1.0, 1.15]), 0.0)
    counted, calls = counting_problem(prob)
    U = solve_stage(counted, 0.0, hg, 1.0, base, cache)
    steps = cache.solves
    assert steps >= 3 and cache.evals == 1
    # One start residual and one undamped trial per step but the last:
    # the last step returned without a residual.
    assert calls["rhs"] == steps
    # The root by full Newton with the exact Jacobian.
    U_ref, f = base.copy(), np.empty(3)
    for _ in range(30):
        rhs(U_ref, 0.0, f)
        U_ref -= np.linalg.solve(np.eye(3) - hg * jac(U_ref, 0.0),
                                 U_ref - base - hg * f)
    rhs(U_ref, 0.0, f)
    np.testing.assert_allclose(U_ref, base + hg * f, rtol=1e-15)
    err = np.abs(U - U_ref) / (1e-6 * np.abs(U_ref) + 1e-6)
    assert 0.0 < err.max() <= newton.KAPPA


def test_solve_stage_nonlinear_scalar():
    def rhs(y, t, out):
        out[0] = -y[0] ** 3
    prob = OdeProblem(N=1, rhs=rhs, t_span=(0, 1), y0=np.ones(1),
                      dependency=lambda i: (0,),
                      jacobian=lambda y, t: np.array([[-3 * y[0] ** 2]]))
    cfg = SolverConfig(newton_max_iters=30, rtol=1e-10, atol=1e-10)
    cache = JacobianCache(prob, cfg)
    cache.refresh(np.ones(1), 0.0)
    base = np.array([1.0])
    h, a_ii = 0.5, 0.25
    U = solve_stage(prob, 0.0, h, a_ii, base, cache)
    # Root of U = 1 - h a_ii U^3.
    assert U[0] + h * a_ii * U[0] ** 3 == pytest.approx(1.0, abs=1e-10)


def test_solve_stage_iteration_cap(monkeypatch):
    monkeypatch.setattr(newton, "MAX_REFRESHES", 0)

    def rhs(y, t, out):
        out[0] = 1e6 * np.cos(1e3 * y[0])
    prob = OdeProblem(N=1, rhs=rhs, t_span=(0, 1), y0=np.zeros(1),
                      dependency=lambda i: (0,))
    cfg = SolverConfig(newton_max_iters=3, rtol=1e-12, atol=1e-12)
    cache = JacobianCache(prob, cfg)
    cache.refresh(np.zeros(1), 0.0)
    with pytest.raises(ConvergenceFailure):
        solve_stage(prob, 0.0, 1.0, 0.5, np.zeros(1), cache)


def _scalar_problem(rhs, J):
    return OdeProblem(N=1, rhs=rhs, t_span=(0, 1), y0=np.ones(1),
                      dependency=lambda i: (0,),
                      jacobian=lambda y, t: np.array([[J]]))


def test_solve_stage_nonfinite_rhs_at_start_fails():
    def rhs(y, t, out):
        out[0] = np.nan
    prob = _scalar_problem(rhs, -1.0)
    cache = JacobianCache(prob, SolverConfig())
    cache.refresh(np.ones(1), 0.0)
    with pytest.raises(ConvergenceFailure, match="non-finite RHS"):
        solve_stage(prob, 0.0, 0.1, 0.5, np.ones(1), cache)


def test_solve_stage_nonfinite_trial_is_damped():
    """A NaN RHS on the undamped trial halves the step; the solve goes on
    to the root the NaN-free solve finds."""
    def cubic(y, t, out):
        out[0] = -y[0] ** 3

    def nan_on_first_trial(y, t, out):
        calls.append(float(y[0]))
        cubic(y, t, out)
        if len(calls) == 2:     # the start residual, then the first trial
            out[0] = np.nan

    cfg = SolverConfig(newton_max_iters=30, rtol=1e-10, atol=1e-10)
    base = np.array([1.0])
    roots = []
    for rhs in (cubic, nan_on_first_trial):
        calls = []
        prob = _scalar_problem(rhs, -3.0)
        cache = JacobianCache(prob, cfg)
        cache.refresh(np.ones(1), 0.0)
        roots.append(solve_stage(prob, 0.0, 0.5, 0.25, base, cache))
    U_clean, U_nan = roots
    # From U = base = 1 the residual is h a_ii = 0.125 and the frozen
    # direction dU = -0.125 / (1 - h a_ii J).  The second call is the
    # undamped trial, the third the trial at half of it, and the damped
    # step re-evaluates the Jacobian.
    dU = -0.125 / (1.0 + 0.125 * 3.0)
    assert calls[1] == 1.0 + dU and calls[2] == 1.0 + 0.5 * dU
    assert cache.evals > 1
    np.testing.assert_allclose(U_nan, U_clean, rtol=1e-11)
    assert U_nan[0] + 0.125 * U_nan[0] ** 3 == pytest.approx(1.0, abs=1e-10)


def test_solve_stage_nonfinite_linear_solve_fails():
    """A finite residual whose Newton direction overflows is rejected by
    the cache's solve check."""
    J = np.nextafter(1.0, 0.0)          # 1 - h a_ii J = 2**-53 with h a_ii = 1

    def rhs(y, t, out):
        out[0] = J * y[0] + 1e295
    prob = _scalar_problem(rhs, J)
    cache = JacobianCache(prob, SolverConfig())
    cache.refresh(np.ones(1), 0.0)
    with pytest.raises(ConvergenceFailure, match="singular"):
        solve_stage(prob, 0.0, 1.0, 1.0, np.ones(1), cache)


def test_solve_stage_finite_direction_with_overflowing_norm_is_not_singular():
    """A finite Newton direction whose weighted norm overflows goes on to
    the line search; only a non-finite direction is reported as singular.

    U = f(U) with f(y) = J y + c, J = 1 - 2**-20 and h a_ii = 1, from
    base = 0: the direction is c 2**20 = 2**930, finite, but its norm
    2**930 / atol = 2**1030 overflows.  Every value is a power of two or
    a short sum of them, so the one step lands on the root exactly."""
    J, c = 1.0 - 2.0**-20, 2.0**910

    def rhs(y, t, out):
        out[0] = J * y[0] + c
    prob = _scalar_problem(rhs, J)
    cache = JacobianCache(prob, SolverConfig(rtol=0.0, atol=2.0**-100))
    cache.refresh(np.zeros(1), 0.0)
    U = solve_stage(prob, 0.0, 1.0, 1.0, np.zeros(1), cache)
    assert U[0] == 2.0**930 and cache.solves == 1


def test_solve_stage_rejects_explicit_stage():
    prob, _ = tridiag_problem(2)
    with pytest.raises(ValueError):
        solve_stage(prob, 0.0, 0.1, 0.0, np.ones(2),
                    JacobianCache(prob, SolverConfig()))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), hg=st.floats(0.01, 0.3))
def test_solve_stage_linear_property(seed, hg):
    rng = np.random.default_rng(seed)
    import _oracles
    L = _oracles.random_stable_matrix(rng, 4)
    prob = make_linear_problem(L)
    cfg = SolverConfig(newton_max_iters=20, rtol=1e-11, atol=1e-11)
    cache = JacobianCache(prob, cfg)
    cache.refresh(np.ones(4), 0.0)
    base = rng.normal(size=4)
    U = solve_stage(prob, 0.0, hg, 1.0, base, cache)
    np.testing.assert_allclose(U, np.linalg.solve(np.eye(4) - hg * L, base),
                               atol=1e-10)
