import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrrk.adapt import SolverConfig, _make_interpolant
from mrrk.interp import DENSE, HERMITE, LINEAR, InterpolatorKind, interp_operator, interp_value
from mrrk.newton import JacobianCache
from mrrk.odecore import OdeProblem, rk_step
from mrrk.tableaux import get_method

from _oracles import interp_Q, random_stable_matrix, single_rate_R


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


def test_kind_validation():
    with pytest.raises(ValueError):
        InterpolatorKind("cubic")
    assert LINEAR.kind == "linear"
    assert HERMITE.kind == "hermite"
    assert DENSE.kind == "dense"


def test_tau_domain():
    u0, u1 = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError):
        interp_value(LINEAR, u0, u1, tau=1.2)
    with pytest.raises(ValueError):
        interp_value(LINEAR, u0, u1, tau=-0.1)
    m = get_method("esdirk3")
    with pytest.raises(ValueError):
        interp_operator(LINEAR, -np.eye(2), 0.1, m, 1.5)


def test_hermite_requires_derivatives_and_h():
    u0, u1 = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError):
        interp_value(HERMITE, u0, u1, tau=0.5)
    with pytest.raises(ValueError):
        interp_value(HERMITE, u0, u1, f_n=u0, f_next=u1, tau=0.5)


def test_dense_requires_stages():
    with pytest.raises(ValueError):
        interp_value(DENSE, np.zeros(2), np.ones(2), tau=0.5)


def test_endpoint_identities_data_form():
    rng = np.random.default_rng(0)
    u0, u1 = rng.normal(size=3), rng.normal(size=3)
    f0, f1 = rng.normal(size=3), rng.normal(size=3)
    for kind, kw in ((LINEAR, {}), (HERMITE, dict(f_n=f0, f_next=f1, h=0.3))):
        np.testing.assert_allclose(
            interp_value(kind, u0, u1, tau=0.0, **kw), u0, atol=1e-15)
        np.testing.assert_allclose(
            interp_value(kind, u0, u1, tau=1.0, **kw), u1, atol=1e-15)


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
            Q = interp_operator(InterpolatorKind(kind), L, h, m, tau)
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
        Q0 = interp_operator(InterpolatorKind(kind), L, h, m, 0.0)
        Q1 = interp_operator(InterpolatorKind(kind), L, h, m, 1.0)
        np.testing.assert_allclose(Q0, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(Q1, Rh, atol=1e-12)


def controller_kind(kind, m):
    """The kind `_make_interpolant` uses when ``kind`` is asked for: dense
    only for a method with an embedded pair, else Hermite."""
    return HERMITE if kind is DENSE and m.b_hat is None else kind


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), tau=st.floats(0.0, 1.0),
       name=st.sampled_from(["erk4-owren", "esdirk3", "esdirk4"]))
def test_duality_data_vs_operator(seed, tau, name):
    """On y' = Ly the data form applied to a real step equals the operator
    form applied to u_n, for every kind, to round-off.  The controller's
    column-restricted slow interpolant is the data form of the kind it
    uses: bitwise for the linear and hermite kinds, and for dense up to
    the summation order of w @ K, which the column layout may change."""
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
    cols = np.array([0, 2])
    data = {}
    for kind, kw in ((LINEAR, {}),
                     (HERMITE, dict(f_n=f0, f_next=f1, h=h)),
                     (DENSE, dict(K=K, dense=m.dense, h=h))):
        data[kind] = v = interp_value(kind, u0, u1, tau=tau, **kw)
        Q = interp_operator(kind, L, h, m, tau)
        np.testing.assert_allclose(v, Q @ u0, atol=5e-10)
    for kind in data:
        make = _make_interpolant(prob, m, SolverConfig(interp=kind), u0, u1,
                                 0.0, h, K)
        row = make(cols)(np.array([tau]))[0]
        used = controller_kind(kind, m)
        if used is DENSE:
            np.testing.assert_allclose(row, data[used][cols], rtol=0,
                                       atol=1e-14)
        else:
            np.testing.assert_array_equal(row, data[used][cols])


def test_array_tau_rows():
    u0, u1 = np.zeros(3), np.ones(3)
    taus = np.array([0.0, 0.5, 1.0])
    out = interp_value(LINEAR, u0, u1, tau=taus)
    assert out.shape == (3, 3)
    np.testing.assert_allclose(out[1], 0.5 * np.ones(3))


@pytest.mark.parametrize("name", ["esdirk3", "esdirk4", "erk4-owren"])
def test_array_tau_is_one_evaluation_matching_scalar_rows(name):
    """An array of tau gives the scalar rows from one evaluation, also
    into ``out`` through the controller's interpolant of the kind it
    uses, bit for bit for all three kinds.  A scalar tau is the one-row
    formula, bit for bit."""
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
        # The interpolant reads K column-major (see slow_interpolant).
        DENSE: lambda t: u0 + h * (m.dense.weights(np.array([t]))[0]
                                   @ np.asfortranarray(K)),
    }
    rows_of = {}
    for kind, kw in ((LINEAR, {}),
                     (HERMITE, dict(f_n=f0, f_next=f1, h=h)),
                     (DENSE, dict(K=K, dense=m.dense, h=h))):
        rows_of[kind] = rows = np.array(
            [interp_value(kind, u0, u1, tau=t, **kw) for t in taus])
        for t, row in zip(taus, rows):
            assert row.tobytes() == scalar[kind](float(t)).tobytes(), kind
        cols = np.array([2, 3, 17])
        interp = _make_interpolant(prob, m, SolverConfig(interp=kind), u0,
                                   u1, 0.2, h, K)(cols)
        out = np.full((len(taus), len(cols)), np.nan)
        interp(taus, out)
        batch = interp_value(kind, u0, u1, tau=taus, **kw)
        assert batch.tobytes() == rows.tobytes(), kind
        used = rows_of[controller_kind(kind, m)]
        assert out.tobytes() == used[:, cols].tobytes(), kind
    with pytest.raises(ValueError, match="1-D"):
        interp_value(LINEAR, u0, u1, tau=np.zeros((2, 2)))
