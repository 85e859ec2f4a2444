import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrrk import newton
from mrrk.adapt import SolverConfig
from mrrk.interp import DENSE, power_rows, slow_interpolant
from mrrk.newton import ConvergenceFailure, JacobianCache
from mrrk.odecore import OdeProblem, error_quotients, new_step_size, rk_step
from mrrk.tableaux import get_method

from _oracles import random_stable_matrix, single_rate_R, stage_ops
from conftest import counting_problem, make_linear_problem

ALL = ["erk4", "erk4-owren", "esdirk3", "esdirk4"]


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        OdeProblem(N=3, rhs=lambda y, t, out: None, t_span=(0, 1),
                   y0=np.zeros(2), dependency=lambda i: (i,))
    for n in (0, -1, 2.0, True):
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            OdeProblem(N=n, rhs=lambda y, t, out: None, t_span=(0, 1),
                       y0=np.zeros(max(int(n), 0)),
                       dependency=lambda i: (i,))


@pytest.mark.parametrize("t_span", [(0.0, 0.0), (1.0, 0.0), (0.0, np.inf),
                                    (np.nan, 1.0)])
def test_problem_rejects_empty_reversed_or_nonfinite_span(t_span):
    with pytest.raises(ValueError, match="t_span"):
        OdeProblem(N=1, rhs=lambda y, t, out: None, t_span=t_span,
                   y0=np.zeros(1), dependency=lambda i: (i,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_nonfinite_y0(bad):
    with pytest.raises(ValueError, match="y0 must be finite"):
        OdeProblem(N=2, rhs=lambda y, t, out: None, t_span=(0, 1),
                   y0=np.array([0.0, bad]), dependency=lambda i: (i,))


def test_default_restricted_rhs_matches_full():
    L = np.array([[-1.0, 0.5], [0.0, -2.0]])
    prob = make_linear_problem(L)
    y = np.array([1.0, 2.0])
    full = np.empty(2)
    prob.rhs(y, 0.0, full)
    out = np.zeros(1)
    prob.rhs_restricted(y, 0.0, np.array([1]), out)
    assert out[0] == full[1]


@pytest.mark.parametrize("name", ["esdirk3", "esdirk4"])
def test_implicit_stage_starts_from_the_last_stage_rate(name):
    """On y' = c the start base + h a_kk K[k-1] of every implicit stage is
    its solution, so each stage costs its one RHS call and no Newton step;
    from base alone, a stage needs one."""
    c = np.array([3.0, -2.0])
    prob, calls = counting_problem(OdeProblem(
        N=2, rhs=lambda y, t, out: np.copyto(out, c), t_span=(0.0, 1.0),
        y0=np.ones(2), dependency=lambda i: (i,),
        jacobian=lambda y, t: np.zeros((2, 2))))
    m = get_method(name)
    cache = JacobianCache(prob, SolverConfig())
    u1, _, K = rk_step(prob, np.ones(2), 0.0, 0.1, m, cache)
    assert (calls["rhs"], cache.solves) == (m.s, 0)
    np.testing.assert_allclose(K, np.tile(c, (m.s, 1)), rtol=1e-15)
    newton.solve_stage(prob, 0.0, 0.1, m.A[1, 1], np.ones(2), cache)
    assert cache.solves == 1


@pytest.mark.parametrize("name", ALL)
def test_rk_step_linear_matches_operator(name, tight_newton):
    """One step on y' = Ly must reproduce R(hL) u_n for every method."""
    rng = np.random.default_rng(3)
    m = get_method(name)
    for _ in range(4):
        L = random_stable_matrix(rng, 4)
        u0 = rng.normal(size=4)
        h = rng.uniform(0.05, 0.5)
        prob, calls = counting_problem(make_linear_problem(L))
        u1, u_hat, K = rk_step(
            prob, u0, 0.0, h, m,
            None if m.is_explicit else JacobianCache(prob, tight_newton))
        np.testing.assert_allclose(u1, single_rate_R(L, h, m) @ u0,
                                   atol=1e-10)
        if m.b_hat is not None:
            emb = np.eye(4) + h * sum(
                bi * (L @ Ri)
                for bi, Ri in zip(m.b_hat, stage_ops(L, h, m.A)))
            np.testing.assert_allclose(u_hat, emb @ u0, atol=1e-10)
        else:
            assert u_hat is None
        assert calls["rhs"] > 0
        assert K.shape == (m.s, 4)


def test_rk_step_rejects_nonpositive_h():
    prob = make_linear_problem(-np.eye(2))
    with pytest.raises(ValueError):
        rk_step(prob, np.ones(2), 0.0, 0.0, get_method("erk4"))


def test_implicit_requires_newton_config():
    prob = make_linear_problem(-np.eye(2))
    with pytest.raises(ValueError):
        rk_step(prob, np.ones(2), 0.0, 0.1, get_method("esdirk3"))


def test_blowup_detected():
    prob = OdeProblem(N=1, rhs=lambda y, t, out: out.fill(np.nan),
                      t_span=(0, 1), y0=np.zeros(1),
                      dependency=lambda i: (0,))
    with pytest.raises(ConvergenceFailure):
        rk_step(prob, np.zeros(1), 0.0, 0.1, get_method("erk4"))


def test_convergence_failure_surfaces(tight_newton):
    """A stage whose equation has no nearby root must fail, not loop."""
    def rhs(y, t, out):
        out[0] = y[0] ** 2 + 1e8
    prob = OdeProblem(N=1, rhs=rhs, t_span=(0, 1), y0=np.zeros(1),
                      dependency=lambda i: (0,))
    cfg = SolverConfig(newton_max_iters=5, rtol=1e-10, atol=1e-10)
    with pytest.raises(ConvergenceFailure):
        rk_step(prob, np.zeros(1), 0.0, 10.0, get_method("esdirk4"),
                JacobianCache(prob, cfg))


def test_dense_eval_domain_and_endpoints(tight_newton):
    m = get_method("esdirk4")
    L = np.array([[-1.0, 0.3], [0.1, -0.5]])
    prob = make_linear_problem(L)
    u0 = np.array([1.0, -0.5])
    u1, _, K = rk_step(prob, u0, 0.0, 0.2, m,
                       JacobianCache(prob, tight_newton))

    C = slow_interpolant(DENSE, u0, None, 0.2, K=K, dense=m.dense)
    assert power_rows(C, np.array([0.0]))[0].tobytes() == u0.tobytes()
    np.testing.assert_allclose(power_rows(C, np.array([1.0]))[0], u1,
                               atol=1e-12)
    out = power_rows(C, np.array([0.25, 0.75]))
    assert out.shape == (2, 2)


def test_error_quotients_formula():
    u = np.array([2.0, -1.0, 0.0])
    u_hat = np.array([2.1, -1.0, 0.05])
    eta = error_quotients(u, u_hat, rtol=1e-2, atol=1e-3)
    np.testing.assert_allclose(
        eta, [0.1 / (0.02 + 1e-3), 0.0, 0.05 / 1e-3])


def test_error_quotients_need_positive_tolerance():
    with pytest.raises(ValueError):
        error_quotients(np.ones(1), np.ones(1), rtol=0.0, atol=0.0)


def test_new_step_size_clamps():
    s = SolverConfig()
    assert new_step_size(1.0, 0.0, 3, s) == pytest.approx(1.2)
    assert new_step_size(1.0, 1e12, 3, s) == pytest.approx(0.5)
    # Unclamped region: h * alpha * eta^(-1/(q+1)).
    assert new_step_size(2.0, 1.0, 3, s) == pytest.approx(2.0 * 0.9)
    with pytest.raises(ValueError):
        new_step_size(0.0, 1.0, 3, s)


def test_step_safety_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha_min=1.5)


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(0, 1e8), q=st.integers(1, 5),
       h=st.floats(1e-8, 1e3))
def test_new_step_size_bounds_property(eta, q, h):
    s = SolverConfig()
    h_new = new_step_size(h, eta, q, s)
    assert s.alpha_min * h <= h_new <= s.alpha_max * h


@pytest.mark.parametrize("name,expected_p", [
    ("erk4", 4), ("erk4-owren", 4), ("esdirk3", 3), ("esdirk4", 4)])
def test_local_order_on_scalar_problem(name, expected_p, tight_newton):
    """Local error of one step scales like h^(p+1)."""
    m = get_method(name)
    prob = make_linear_problem(np.array([[-1.0]]))
    u0 = np.array([1.0])
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        u1, _, _ = rk_step(
            prob, u0, 0.0, h, m,
            None if m.is_explicit else JacobianCache(prob, tight_newton))
        errs.append(abs(u1[0] - np.exp(-h)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(expected_p + 1, abs=0.35)
