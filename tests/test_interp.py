import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrrk import _linops
from mrrk.adapt import SolverConfig, _make_interpolant, _step_interpolant
from mrrk.interp import (DENSE, HERMITE, LINEAR, InterpolatorKind,
                         power_rows, slow_interpolant)
from mrrk.newton import JacobianCache
from mrrk.odecore import OdeProblem, rk_step
from mrrk.tableaux import get_method

from _oracles import (dense_weights, interp_Q, random_stable_matrix,
                      single_rate_R)
from conftest import interp_round_off


def linear_problem(L):
    n = L.shape[0]
    return OdeProblem(
        N=n,
        rhs=lambda y, t, out: np.matmul(L, y, out=out),
        t_span=(0.0, 1.0),
        y0=np.ones(n),
        dependency=lambda i: tuple(range(n)),
        jacobian=lambda y, t: L,
        name="linear",
    )


def data_rows(kind, u0, u1, tau, h=None, f_n=None, f_next=None, K=None,
              dense=None):
    """The data form at each tau of a scalar or 1-D array, all columns."""
    C = slow_interpolant(kind, u0, u1, h, f_n, f_next, K, dense)
    return power_rows(C, np.atleast_1d(tau))


def controller_interp(prob, m, kind, u0, u1, t0, h, K):
    """The controller's row evaluator of ``kind``, as the output sampler
    gets it."""
    C = _step_interpolant(prob, m, SolverConfig(interp=kind), u0, u1, t0, h,
                          K)
    return _make_interpolant(C)(slice(None))


def operator(kind, L, h, m, tau):
    """Q(tau) of one step of size h on y' = Ly, from the operator form."""
    return _linops.interp_matrices(kind.kind, L[None], np.array([h]), m,
                                   np.array([tau]))[0, 0]


def test_kind_validation():
    with pytest.raises(ValueError):
        InterpolatorKind("cubic")
    assert LINEAR.kind == "linear"
    assert HERMITE.kind == "hermite"
    assert DENSE.kind == "dense"


def test_endpoint_identities_data_form():
    """tau = 0 gives u_n bit for bit, and tau = 1 gives u_next."""
    rng = np.random.default_rng(0)
    u0, u1 = rng.normal(size=3), rng.normal(size=3)
    f0, f1 = rng.normal(size=3), rng.normal(size=3)
    for kind, kw in ((LINEAR, {}), (HERMITE, dict(f_n=f0, f_next=f1, h=0.3))):
        assert data_rows(kind, u0, u1, 0.0, **kw)[0].tobytes() == u0.tobytes()
        np.testing.assert_allclose(
            data_rows(kind, u0, u1, 1.0, **kw)[0], u1, atol=1e-15)


@pytest.mark.parametrize("name,kind", [
    ("erk4", "linear"), ("erk4", "hermite"),
    ("erk4-owren", "dense"), ("esdirk3", "dense"), ("esdirk4", "dense"),
])
def test_operator_matches_oracle(name, kind):
    rng = np.random.default_rng(7)
    m = get_method(name)
    for _ in range(5):
        L = random_stable_matrix(rng, 4)
        h = rng.uniform(0.05, 0.6)
        for tau in (0.0, 0.3, 0.77, 1.0):
            Q = operator(InterpolatorKind(kind), L, h, m, tau)
            np.testing.assert_allclose(
                Q, interp_Q(L, h, m, kind, tau), atol=1e-11)


@pytest.mark.parametrize("name", ["erk4", "esdirk3", "esdirk4"])
def test_operator_endpoint_identities(name):
    m = get_method(name)
    L = np.array([[-1.0, 0.5], [0.2, -2.0]])
    h = 0.3
    kinds = ["linear", "hermite"] + (["dense"] if m.dense is not None else [])
    Rh = single_rate_R(L, h, m)
    for kind in kinds:
        Q0 = operator(InterpolatorKind(kind), L, h, m, 0.0)
        Q1 = operator(InterpolatorKind(kind), L, h, m, 1.0)
        np.testing.assert_allclose(Q0, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(Q1, Rh, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), tau=st.floats(0.0, 1.0),
       name=st.sampled_from(["erk4-owren", "esdirk3", "esdirk4"]))
def test_duality_data_vs_operator(seed, tau, name):
    """On y' = Ly the data form applied to a real step equals the operator
    form applied to u_n, for every kind, to round-off.  The controller's
    slow interpolant is the data form of the same kind, bit for bit."""
    rng = np.random.default_rng(seed)
    L = random_stable_matrix(rng, 3)
    h = rng.uniform(0.05, 0.4)
    u0 = rng.normal(size=3)
    m = get_method(name)
    prob = linear_problem(L)
    cache = None if m.is_explicit else JacobianCache(
        prob, SolverConfig(newton_max_iters=50, rtol=1e-12, atol=1e-12))
    u1, _, K = rk_step(prob, u0, 0.0, h, m, cache)
    f0, f1 = L @ u0, L @ u1
    for kind, kw in ((LINEAR, {}),
                     (HERMITE, dict(f_n=f0, f_next=f1, h=h)),
                     (DENSE, dict(K=K, dense=m.dense, h=h))):
        v = data_rows(kind, u0, u1, tau, **kw)[0]
        Q = operator(kind, L, h, m, tau)
        np.testing.assert_allclose(v, Q @ u0, atol=5e-10)
        one_tau = np.array([tau])
        whole = controller_interp(prob, m, kind, u0, u1, 0.0, h, K)(one_tau)
        assert whole[0].tobytes() == v.tobytes(), kind


@pytest.mark.parametrize("name", ["erk4-owren", "esdirk3", "esdirk4"])
def test_dense_coefficients_are_the_stage_sums_on_python_floats(name):
    """The dense coefficients of each column are h times the sum over the
    stages, in stage order from 0.0, of b*_k K_k on Python floats, highest
    power first, then u_n, bit for bit for an index array and a slice of
    the columns, and for the interpolant of those columns' data alone:
    the fast fill of a multirate step reads them, and MR runs are bitwise
    only if their arithmetic stays fixed.  Zero and negative-zero products
    included."""
    m = get_method(name)
    rng = np.random.default_rng(11)
    u0, K, h = rng.normal(size=9), rng.normal(size=(m.s, 9)), 0.07
    K[:, 0] = 0.0
    K[1, 1] = -0.0
    # Every product of the highest power is -0.0, so only a sum started
    # from 0.0 gives +0.0 there.
    K[:, 4] = np.copysign(0.0, -m.dense[:, -1])
    C = slow_interpolant(DENSE, u0, None, h, K=K, dense=m.dense)
    for cols in (np.array([0, 1, 4, 8]), slice(None)):
        ref = []
        for j in np.arange(9)[cols]:
            col = []
            for row in m.dense.T.tolist()[::-1]:
                v = 0.0
                for b, k in zip(row, K[:, j].tolist()):
                    v += b * k
                col.append(h * v)
            ref.append(col + [u0[j]])
        ref = np.array(ref).T.tobytes()
        assert C[:, cols].tobytes() == ref
        assert slow_interpolant(DENSE, u0[cols], None, h, K=K[:, cols],
                                dense=m.dense).tobytes() == ref


def test_array_tau_rows():
    u0, u1 = np.zeros(3), np.ones(3)
    taus = np.array([0.0, 0.5, 1.0])
    out = data_rows(LINEAR, u0, u1, taus)
    assert out.shape == (3, 3)
    np.testing.assert_allclose(out[1], 0.5 * np.ones(3))


@pytest.mark.parametrize("name", ["esdirk3", "esdirk4", "erk4-owren"])
def test_array_tau_is_one_evaluation_matching_scalar_rows(name):
    """An array of tau gives the scalar rows from one evaluation, also
    into ``out`` through the controller's interpolant of that kind, bit
    for bit for all three kinds.
    A scalar tau's row is the textbook formula of its kind within the
    kind's round-off bound, and u_n bit for bit at tau = 0."""
    from mrrk import bench
    prob = bench.make_burgers(bench.BurgersParams(N=30, t_span=(0.0, 1.0)))
    m = get_method(name)
    cache = None if m.is_explicit else JacobianCache(prob, SolverConfig())
    h = 0.3
    u0 = prob.y0 + 0.1
    u1, _, K = rk_step(prob, u0, 0.2, h, m, cache)
    f0, f1 = np.empty(prob.N), np.empty(prob.N)
    prob.rhs(u0, 0.2, f0)
    prob.rhs(u1, 0.2 + h, f1)
    taus = np.concatenate([[0.0, 1.0], np.random.default_rng(5).random(9)])
    scalar = {
        LINEAR: lambda t: (1.0 - t) * u0 + t * u1,
        HERMITE: lambda t: ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * u0
                            + (3.0 - 2.0 * t) * t**2 * u1
                            + h * t * (1.0 - t) ** 2 * f0
                            + h * (t - 1.0) * t**2 * f1),
        DENSE: lambda t: u0 + h * (dense_weights(m, t) @ K),
    }
    for kind, kw in ((LINEAR, {}),
                     (HERMITE, dict(f_n=f0, f_next=f1, h=h)),
                     (DENSE, dict(K=K, dense=m.dense, h=h))):
        rows = np.array(
            [data_rows(kind, u0, u1, t, **kw)[0] for t in taus])
        bound = interp_round_off(kind, u0, u1, **kw)
        for t, row in zip(taus, rows):
            assert np.all(np.abs(row - scalar[kind](float(t))) <= bound), kind
        assert rows[0].tobytes() == u0.tobytes(), kind
        out = np.full(rows.shape, np.nan)
        controller_interp(prob, m, kind, u0, u1, 0.2, h, K)(taus, out)
        batch = data_rows(kind, u0, u1, taus, **kw)
        assert batch.tobytes() == rows.tobytes(), kind
        assert out.tobytes() == rows.tobytes(), kind
