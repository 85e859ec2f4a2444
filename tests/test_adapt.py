import pathlib
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import mrrk.adapt as adapt
from mrrk import bench
from mrrk.adapt import (IntegrationFailure, SolverConfig, integrate,
                        select_partition)
from mrrk.interp import DENSE, HERMITE, LINEAR, slow_interpolant
from mrrk.newton import ConvergenceFailure
from mrrk.odecore import OdeProblem, new_step_size
from mrrk.tableaux import get_method

from conftest import counting_problem, make_linear_problem


def stiff_pair_problem(t_span=(0.0, 2.0)):
    """One slow and one strongly contracting fast component."""
    L = np.array([[-1.0, 0.0], [1000.0, -1000.0]])
    return make_linear_problem(L, y0=np.array([1.0, 2.0]), t_span=t_span,
                               name="stiff-pair"), L


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(phi=0.0)
    with pytest.raises(ValueError):
        SolverConfig(phi=1.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha_min=1.2)
    with pytest.raises(ValueError):
        SolverConfig(beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mode="dual")
    for field, value in [("rtol", np.nan), ("rtol", -1.0), ("rtol", np.inf),
                         ("atol", 0.0), ("atol", np.nan), ("atol", np.inf),
                         ("h0", -1.0), ("h0", 0.0), ("h0", np.nan),
                         ("h_min", -1.0), ("h_min", np.nan),
                         ("newton_max_iters", 0),
                         ("jacobian_strategy", "JacC"),
                         ("alpha", np.nan), ("alpha", -1.0), ("alpha", 0.0),
                         ("beta", np.inf), ("beta", np.nan),
                         ("newton_max_iters", 2.5), ("max_steps", 1.5),
                         ("max_steps", 0), ("max_steps", -1),
                         ("t_eval", np.array([1.0, 0.0])),
                         ("t_eval", np.array([0.0, np.nan])),
                         ("t_eval", np.zeros((2, 2)))]:
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
    # Fast sub-runs pass the (possibly empty) slice of the output grid.
    SolverConfig(t_eval=np.array([]))
    SolverConfig(t_eval=np.array([0.0, 0.5, 0.5, 1.0]))


def test_stage_solve_reads_run_config():
    """A stage solve weights its residual with one hundredth of the run's
    step tolerances and stops at the run's ``newton_max_iters``."""
    from mrrk.newton import ConvergenceFailure, solve_stage
    cfg = SolverConfig(rtol=1e-4, atol=1e-6, newton_max_iters=33)
    base = np.array([0.0, 1e4])
    # |r_i| / (1e-6 |U_i| + 1e-8) <= 1 accepts the start U = base.
    w = np.array([1e-8, 1e-6 * 1e4 + 1e-8])

    def solve(c):
        """U = base + f(U) with f = c: the start residual is -c, and one
        Newton step (J = 0) reaches base + c."""
        prob = OdeProblem(N=2, rhs=lambda y, t, out: np.copyto(out, c),
                          t_span=(0.0, 1.0), y0=base,
                          dependency=lambda i: (i,),
                          jacobian=lambda y, t: np.zeros((2, 2)))
        cache = adapt.JacobianCache(prob, cfg)
        cache.refresh(base, 0.0)
        return solve_stage(prob, 0.0, 1.0, 1.0, base, cache)

    inside, outside = w * (1.0 - 1e-6), w * (1.0 + 1e-6)
    np.testing.assert_array_equal(solve(inside), base)
    for c in (np.array([outside[0], inside[1]]),      # the atol weight
              np.array([inside[0], outside[1]])):     # the rtol weight
        np.testing.assert_array_equal(solve(c), base + c)

    # With J = 0 for f(y) = -y the residual shrinks by h a_ii = 0.5 per
    # iteration, so the solve needs a fixed number of iterations.
    iters = []
    prob = OdeProblem(N=1, rhs=lambda y, t, out: np.negative(y, out=out),
                      t_span=(0.0, 1.0), y0=np.ones(1),
                      dependency=lambda i: (0,),
                      jacobian=lambda y, t: np.zeros((1, 1)))

    def stage(cap):
        cache = adapt.JacobianCache(prob, replace(cfg, newton_max_iters=cap))
        cache.refresh(prob.y0, 0.0)
        solve_linear = cache.solve
        cache.solve = lambda *a: iters.append(1) or solve_linear(*a)
        return solve_stage(prob, 0.0, 1.0, 0.5, prob.y0, cache)

    stage(cfg.newton_max_iters)
    # n Newton steps take n + 1 passes: the last one only checks.
    needed = len(iters) + 1
    assert 2 < needed < cfg.newton_max_iters
    stage(needed)
    with pytest.raises(ConvergenceFailure,
                       match=f"in {needed - 1} iterations"):
        stage(needed - 1)


def test_select_partition_accept():
    eta = np.array([0.1, 0.5, 0.2, 0.9])
    decision, fast, eta_s, eta_f = select_partition(eta, phi=0.5, beta=1.0)
    assert decision == "accept"
    assert fast.size == 0
    assert np.array_equal(np.delete(np.arange(4), fast), np.arange(4))
    # m = floor(0.5 * 4) = 2; top two are indices 3 and 1.
    assert eta_f == pytest.approx(0.9)
    assert eta_s == pytest.approx(0.2)


def test_select_partition_reject():
    eta = np.array([2.0, 0.1, 3.0, 1.5])
    decision, fast, eta_s, _ = select_partition(eta, phi=0.25, beta=1.0)
    # m = 1, so only index 2 can be fast; index 0 still violates.
    assert decision == "reject"
    assert eta_s == pytest.approx(2.0)
    assert fast.size == 0


def test_select_partition_multirate():
    eta = np.array([0.2, 5.0, 0.8, 3.0])
    decision, fast, eta_s, eta_f = select_partition(eta, phi=0.5, beta=1.0)
    assert decision == "go_multirate"
    assert np.array_equal(fast, [1, 3])
    assert np.array_equal(np.delete(np.arange(4), fast), [0, 2])
    assert eta_f == pytest.approx(5.0)
    assert eta_s == pytest.approx(0.8)


def test_select_partition_only_violators_fast():
    # Both top-m slots exist but only one component violates beta.
    eta = np.array([0.2, 5.0, 0.8, 0.9])
    decision, fast, _, _ = select_partition(eta, phi=0.5, beta=1.0)
    assert decision == "go_multirate"
    assert np.array_equal(fast, [1])


def test_select_partition_tie_break_ascending_index():
    eta = np.array([2.0, 2.0, 2.0, 0.1])
    decision, _, eta_s, _ = select_partition(eta, phi=0.5, beta=1.0)
    # Ties broken by ascending index: indices 0 and 1 enter the top-2,
    # index 2 stays outside and forces rejection.
    assert decision == "reject"
    assert eta_s == pytest.approx(2.0)
    eta2 = np.array([2.0, 2.0, 0.3, 0.1])
    decision2, fast2, _, _ = select_partition(eta2, phi=0.5, beta=1.0)
    assert decision2 == "go_multirate"
    assert np.array_equal(fast2, [0, 1])


def test_select_partition_rejects_nonfinite():
    with pytest.raises(ConvergenceFailure, match="non-finite error"):
        select_partition(np.array([1.0, np.nan]), phi=0.5, beta=1.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 40),
       phi=st.floats(0.01, 0.99), beta=st.floats(0.1, 10.0))
def test_select_partition_properties(seed, n, phi, beta):
    rng = np.random.default_rng(seed)
    eta = rng.exponential(scale=beta, size=n)
    decision, fast, eta_s, eta_f = select_partition(eta, phi, beta)
    m = int(np.floor(phi * n))
    assert len(fast) <= m
    # Distinct state indices in ascending order.
    assert fast.dtype.kind == "i" and np.all(np.diff(fast) > 0)
    assert np.all((0 <= fast) & (fast < n))
    # eta_s is the largest quotient outside the fast set's rank window.
    order = np.argsort(-eta, kind="stable")
    assert eta_s == pytest.approx(np.max(eta[order[m:]]))
    if decision == "reject":
        assert eta_s > beta
    elif decision == "accept":
        assert eta_f <= beta or m == 0
        assert fast.size == 0
    else:
        assert eta_s <= beta < eta_f
        assert np.all(eta[fast] > beta)
        assert np.all(np.isin(fast, order[:m]))
    # Determinism: identical input yields an identical partition.
    d2, fast2, s2, f2 = select_partition(eta, phi, beta)
    assert d2 == decision and s2 == eta_s and f2 == eta_f
    assert np.array_equal(fast2, fast)


@pytest.mark.parametrize("name", ["erk4", "esdirk3", "esdirk4"])
def test_single_rate_accuracy_scalar_decay(name):
    prob = make_linear_problem(np.array([[-1.0]]), y0=np.array([1.0]),
                               t_span=(0.0, 3.0))
    cfg = SolverConfig(rtol=1e-7, atol=1e-9)
    res = integrate(prob, get_method(name), cfg)
    assert res.t[-1] == pytest.approx(3.0, abs=1e-12)
    assert res.y[-1][0] == pytest.approx(np.exp(-3.0), abs=1e-5)
    assert res.stats.accepted_global == len(res.t) - 1
    assert res.stats.accepted_global == len(res.activity)
    assert all(r.kind == "global" for r in res.activity)
    assert res.stats.global_rhs_calls > 0


def test_single_rate_h0_override_and_step_growth():
    prob = make_linear_problem(np.array([[-0.1]]), t_span=(0.0, 1.0))
    cfg = SolverConfig(rtol=1e-3, atol=1e-3, h0=5.0)
    res = integrate(prob, get_method("erk4"), cfg)
    # The first step is clipped to the span and accepted in one go.
    assert res.stats.accepted_global == 1


def test_t_eval_sampler_constant_problem():
    prob = OdeProblem(N=2, rhs=lambda y, t, out: out.fill(0.0),
                      t_span=(0.0, 10.0), y0=np.array([3.0, -1.0]),
                      dependency=lambda i: (i,))
    grid = np.linspace(0.0, 10.0, 33)
    cfg = SolverConfig(rtol=1e-6, atol=1e-6, t_eval=grid)
    res = integrate(prob, get_method("erk4"), cfg)
    np.testing.assert_array_equal(res.t_out, grid)
    np.testing.assert_allclose(res.y_out, np.tile([3.0, -1.0], (33, 1)),
                               atol=1e-14)


@pytest.mark.parametrize("grid", [[0.0, 1.5, 2.0], [1.0, 1.5, 2.0, 5.0],
                                  [0.0, 1.5, 2.0, 5.0]],
                         ids=["below", "above", "both"])
@pytest.mark.parametrize("mode", ["single", "multi"])
def test_t_eval_outside_span_is_rejected(grid, mode):
    """A grid point outside t_span raises ValueError naming the span, not
    an output row made up from the initial or final state."""
    prob = make_linear_problem(np.diag([-1.0, -50.0]), t_span=(1.0, 2.0))
    cfg = SolverConfig(mode=mode, phi=0.5, t_eval=np.array(grid))
    with pytest.raises(ValueError, match=r"t_span \[1\.0, 2\.0\]"):
        integrate(prob, get_method("esdirk3"), cfg)


def test_t_eval_round_off_past_span_is_sampled():
    """Points past either end by round-off, as the last point of an
    np.arange grid can be, are kept: the start row holds y0 and the end
    row the final state."""
    prob = make_linear_problem(np.array([[-1.0]]), t_span=(1.0, 2.0))
    grid = np.array([1.0 - 1e-12, 1.5, 2.0 + 1.5e-12])
    res = integrate(prob, get_method("esdirk3"),
                    SolverConfig(rtol=1e-8, atol=1e-10, t_eval=grid))
    assert res.y_out[0, 0] == prob.y0[0]
    np.testing.assert_allclose(res.y_out[:, 0], np.exp(1.0 - grid),
                               atol=1e-6)


def test_t_eval_sampler_matches_solution():
    prob = make_linear_problem(np.array([[-1.0]]), y0=np.array([1.0]),
                               t_span=(0.0, 4.0))
    grid = np.linspace(0.0, 4.0, 81)
    cfg = SolverConfig(rtol=1e-8, atol=1e-10, t_eval=grid)
    res = integrate(prob, get_method("esdirk4"), cfg)
    np.testing.assert_allclose(res.y_out[:, 0], np.exp(-grid), atol=1e-6)


def test_multirate_engages_and_is_accurate():
    prob, L = stiff_pair_problem()
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5)
    res = integrate(prob, get_method("esdirk3"), cfg)
    assert res.stats.accepted_fast > 0
    exact = scipy.linalg.expm(2.0 * L) @ prob.y0
    np.testing.assert_allclose(res.y[-1], exact, atol=1e-4)
    kinds = {r.kind for r in res.activity}
    assert kinds == {"global", "fast"}


def test_multirate_slow_components_bitwise(monkeypatch):
    """Accepted multi-rate steps keep the tentative slow values bitwise."""
    prob, _ = stiff_pair_problem()
    seen = []
    orig = adapt.multirate_step

    def spy(problem, method, config, u_n, t_n, h_n, u_tentative, fast,
            *args, **kw):
        out = orig(problem, method, config, u_n, t_n, h_n, u_tentative,
                   fast, *args, **kw)
        seen.append((u_tentative.copy(), fast, out.copy()))
        return out

    monkeypatch.setattr(adapt, "multirate_step", spy)
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5)
    integrate(prob, get_method("esdirk3"), cfg)
    assert seen
    for u_tent, fast, u_next in seen:
        assert np.array_equal(np.delete(u_next, fast),
                              np.delete(u_tent, fast))
        assert not np.array_equal(u_next[fast], u_tent[fast])


@pytest.mark.parametrize("name", ["esdirk3", "erk4"])
def test_fast_phase_is_single_rate_integrate_on_fast_subproblem(
        monkeypatch, name):
    """multirate_step = integrate(fast sub-problem, mode="single", h0)."""
    prob, _ = stiff_pair_problem()
    orig = adapt.multirate_step
    checked = []

    def spy(problem, method, config, u_n, t_n, h_n, u_tentative, fast,
            eta_f, make_interp, stats, activity, step_index, *args, **kw):
        before, n_act = asdict(stats), len(activity)
        out = orig(problem, method, config, u_n, t_n, h_n, u_tentative,
                   fast, eta_f, make_interp, stats, activity,
                   step_index, *args, **kw)
        sub = adapt._fast_subproblem(problem, fast, u_n, t_n, h_n,
                                     make_interp)
        h0 = new_step_size(h_n, eta_f, method.q, config)
        ref = integrate(sub, method, replace(config, mode="single", h0=h0))
        np.testing.assert_array_equal(out[fast], ref.y[-1])
        after = asdict(stats)
        delta = {k: after[k] - before[k] for k in before if k != "wall_time"}
        assert delta == dict(
            accepted_global=0, rejected_global_error=0,
            rejected_global_convergence=0, global_rhs_calls=0,
            global_jacobians=0,
            accepted_fast=ref.stats.accepted_global,
            rejected_fast_error=ref.stats.rejected_global_error,
            rejected_fast_convergence=ref.stats.rejected_global_convergence,
            local_rhs_calls=ref.stats.global_rhs_calls,
            local_jacobians=ref.stats.global_jacobians)
        recs = activity[n_act:]
        assert [(r.step_index, r.t_start, r.t_end, r.kind) for r in recs] == [
            (step_index, r.t_start, r.t_end, "fast") for r in ref.activity]
        assert all(r.active_indices is fast for r in recs)
        checked.append(step_index)
        return out

    monkeypatch.setattr(adapt, "multirate_step", spy)
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5)
    res = integrate(prob, get_method(name), cfg)
    assert checked and res.stats.accepted_fast > 0


def test_fast_subproblem_interpolates_slow_columns_once_per_time():
    """Each RHS or Jacobian call equals a fresh sub-problem's evaluation at
    its t, while the slow columns are interpolated only when t changes."""
    problem = bench.make_inverter_chain(bench.InverterChainParams(N=20))
    rng = np.random.default_rng(5)
    u_n, u_next = rng.uniform(0.0, 5.0, 20), rng.uniform(0.0, 5.0, 20)
    t_n, h = 9.0, 0.5                     # inside the input ramp
    fast = np.array([0, 5, 6, 12])
    make = slow_interpolant(LINEAR, u_n, u_next, h)
    taus = []

    def counting_make(cols):
        interp = make(cols)

        def counted(tau, out=None):
            taus.extend(tau.tolist())
            return interp(tau, out)
        return counted

    sub = adapt._fast_subproblem(problem, fast, u_n, t_n, h, counting_make)
    t1, t2 = 9.1, 9.35
    for t in (t1, t1, t2, t1):
        yf = rng.uniform(0.0, 5.0, len(fast))
        out, ref = np.empty(len(fast)), np.empty(len(fast))
        sub.rhs(yf, t, out)
        fresh = adapt._fast_subproblem(problem, fast, u_n, t_n, h, make)
        fresh.rhs(yf, t, ref)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(sub.jacobian(yf, t),
                                      fresh.jacobian(yf, t))
    assert taus == [(t - t_n) / h for t in (t1, t2, t1)]


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_linear_output_costs_no_rhs_calls(mode):
    """Linear interpolation reads no derivatives, so a grid is free."""
    prob, _ = stiff_pair_problem()
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode=mode, phi=0.5,
                       interp=LINEAR)
    plain = integrate(prob, get_method("erk4"), cfg)
    gridded = integrate(prob, get_method("erk4"),
                        replace(cfg, t_eval=np.linspace(0.0, 2.0, 41)))
    np.testing.assert_array_equal(plain.y, gridded.y)
    s1, s2 = asdict(plain.stats), asdict(gridded.stats)
    s1.pop("wall_time")
    s2.pop("wall_time")
    assert s1 == s2
    assert gridded.stats.global_rhs_calls > 0


@pytest.mark.parametrize("name", ["erk4", "erk4-owren", "esdirk3",
                                  "esdirk4"])
def test_interpolant_ends_at_accepted_state(name):
    """Every kind `_make_interpolant` picks ends at the accepted state:
    interp(1) equals u_next within 1e-9 in the weighted norm, also for a
    method that accepts the two half steps of step doubling."""
    prob = bench.make_burgers(bench.BurgersParams(N=100))
    m = get_method(name)
    cfg = SolverConfig()
    t, h, u = prob.t_span[0], 0.02, prob.y0
    cache = None if m.is_explicit else adapt.JacobianCache(prob, cfg)
    if cache is not None:
        cache.begin_global_step(u, t)
    u_next, _, K = adapt._attempt_step(prob, u, t, h, m, cfg, cache)
    for kind in (None, LINEAR, HERMITE, DENSE):
        make = adapt._make_interpolant(prob, m, replace(cfg, interp=kind),
                                       u, u_next, t, h, K)
        end = make(slice(None))(np.array([1.0]))[0]
        gap = np.abs(end - u_next) / (cfg.rtol * np.abs(u_next) + cfg.atol)
        assert gap.max() <= 1e-9, kind


def test_multirate_activity_tiling_and_counters():
    prob, _ = stiff_pair_problem()
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5)
    res = integrate(prob, get_method("esdirk3"), cfg)
    glob = {r.step_index: r for r in res.activity if r.kind == "global"}
    fast = [r for r in res.activity if r.kind == "fast"]
    assert len(glob) == res.stats.accepted_global
    assert len(fast) == res.stats.accepted_fast
    by_step = {}
    for r in fast:
        by_step.setdefault(r.step_index, []).append(r)
    assert by_step  # the stiff pair must trigger at least one fast phase
    for idx, recs in by_step.items():
        g = glob[idx]
        recs.sort(key=lambda r: r.t_start)
        assert recs[0].t_start == pytest.approx(g.t_start, abs=1e-12)
        for a, b in zip(recs, recs[1:]):
            assert b.t_start == pytest.approx(a.t_end, abs=1e-12)
        assert recs[-1].t_end == pytest.approx(g.t_end, abs=1e-12)


def test_multirate_t_eval_overlays_fast_components():
    prob, L = stiff_pair_problem()
    grid = np.linspace(0.0, 2.0, 101)
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5,
                       t_eval=grid)
    res = integrate(prob, get_method("esdirk3"), cfg)
    exact = np.array([scipy.linalg.expm(t * L) @ prob.y0 for t in grid])
    np.testing.assert_allclose(res.y_out, exact, atol=2e-3)


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_one_point_grid_pays_one_interpolant(mode):
    """Only a step whose window holds a grid row builds an interpolant.

    erk4 falls back to Hermite output, which costs one RHS call for the
    right endpoint of each interpolated step, global or fast.  A one-point
    grid lies in one global step: accepted whole, it pays that call; gone
    multirate, it builds its interpolant anyway, and the one fast sub-step
    that holds the point pays it.
    """
    prob = bench.make_burgers(bench.BurgersParams(N=100, t_span=(0.0, 2.0)))
    cfg = SolverConfig(rtol=1e-6, atol=1e-6, phi=0.2, mode=mode)
    plain = integrate(prob, get_method("erk4"), cfg)
    point = integrate(prob, get_method("erk4"),
                      replace(cfg, t_eval=np.array([1.0])))
    np.testing.assert_array_equal(plain.t, point.t)
    np.testing.assert_array_equal(plain.y, point.y)
    if mode == "multi":
        assert plain.stats.accepted_fast > 0
    a, b = asdict(plain.stats), asdict(point.stats)
    extra = {k: b[k] - a[k] for k in a if k != "wall_time"}
    assert extra.pop("global_rhs_calls") + extra.pop("local_rhs_calls") == 1
    assert not any(extra.values())


def test_failed_fast_phase_rejects_global_step():
    """A fast phase whose every sub-step fails halves the global step.

    The restricted RHS writes NaN, so no fast sub-step succeeds: each
    multirate attempt ends in a global convergence rejection until the
    step is small enough to be accepted whole.
    """
    prob, L = stiff_pair_problem()

    def nan_rhs(y, t, indices, out):
        out.fill(np.nan)
    prob, calls = counting_problem(replace(
        prob, rhs_restricted=nan_rhs,
        jacobian_restricted=lambda y, t, idx: L[np.ix_(idx, idx)]))
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5,
                       h_min=1e-6)
    res = integrate(prob, get_method("esdirk3"), cfg)
    assert res.t[-1] == pytest.approx(2.0)
    assert {r.kind for r in res.activity} == {"global"}
    s = res.stats
    assert s.rejected_global_convergence > 0
    assert s.accepted_fast == 0 and s.rejected_fast_convergence > 0
    assert s.local_rhs_calls == calls["rhs_restricted"] > 0
    assert s.local_jacobians == calls["jacobian_restricted"] > 0


def test_multirate_matches_single_rate_on_easy_problem():
    prob = make_linear_problem(np.array([[-1.0, 0.2], [0.1, -0.5]]),
                               t_span=(0.0, 2.0))
    m = get_method("esdirk4")
    r1 = integrate(prob, m, SolverConfig(rtol=1e-8, atol=1e-8))
    r2 = integrate(prob, m, SolverConfig(rtol=1e-8, atol=1e-8,
                                         mode="multi"))
    np.testing.assert_allclose(r1.y[-1], r2.y[-1], atol=1e-6)
    # Nothing here is stiff enough to trigger a fast phase.
    assert r2.stats.accepted_fast == 0


def test_integration_failure_carries_state():
    def rhs(y, t, out):
        out[0] = np.nan
    prob = OdeProblem(N=1, rhs=rhs, t_span=(0.0, 1.0), y0=np.ones(1),
                      dependency=lambda i: (0,))
    cfg = SolverConfig(rtol=1e-6, atol=1e-6, h0=0.1, h_min=1e-6)
    with pytest.raises(IntegrationFailure) as exc:
        integrate(prob, get_method("erk4"), cfg)
    err = exc.value
    assert err.t == pytest.approx(0.0)
    assert err.stats.rejected_global_convergence > 0
    assert err.stats.accepted_global == 0


@pytest.mark.parametrize("mode", ["single", "multi"])
@pytest.mark.parametrize("name", ["erk4", "esdirk3"])
def test_nonfinite_rhs_at_start_fails_fast(name, mode):
    """A NaN RHS at (y0, t0) makes the initial step NaN; the h_min guards
    must still end the run instead of halving a NaN step forever, and the
    message names the cause."""
    def rhs(y, t, out):
        out[:] = np.nan
    prob = OdeProblem(N=2, rhs=rhs, t_span=(0.0, 1.0), y0=np.ones(2),
                      dependency=lambda i: (0, 1))
    cfg = SolverConfig(rtol=1e-6, atol=1e-6, mode=mode, phi=0.5)
    start = time.perf_counter()
    with pytest.raises(IntegrationFailure, match="h_min") as exc:
        integrate(prob, get_method(name), cfg)
    assert time.perf_counter() - start < 1.0
    assert "non-finite" in str(exc.value)
    assert exc.value.stats.wall_time > 0.0
    assert exc.value.stats.accepted_global == 0


@pytest.mark.parametrize("mode", ["single", "multi"])
@pytest.mark.parametrize("name", ["erk4", "esdirk3"])
@pytest.mark.parametrize("t_span,h_min", [((1e5, 2e5), 1e-12),
                                          ((0.0, 1.0), 0.0)],
                         ids=["default-h_min", "zero-h_min"])
def test_step_that_cannot_advance_t_ends_the_run(name, mode, t_span, h_min):
    """A NaN RHS from mid-span on: the failed steps halve h below the
    spacing of t, where a step of h_min or more cannot move t.  The run
    ends there, naming the condition and the failed step's cause, instead
    of accepting steps that leave t in place until the step budget."""
    t_nan = 0.5 * (t_span[0] + t_span[1])

    def rhs(y, t, out):
        out[:] = -y / t_span[1] if t < t_nan else np.nan
    prob = OdeProblem(N=2, rhs=rhs, t_span=t_span, y0=np.ones(2),
                      dependency=lambda i: (i,))
    cfg = SolverConfig(h_min=h_min, max_steps=1000, mode=mode, phi=0.5)
    with pytest.raises(IntegrationFailure,
                       match="cannot advance t after a failed step") as exc:
        integrate(prob, get_method(name), cfg)
    assert "non-finite" in str(exc.value)
    t = exc.value.t
    assert t < t_nan and not t + np.spacing(t) < t_nan
    s = exc.value.stats
    assert (s.accepted_global + s.rejected_global_error
            + s.rejected_global_convergence) <= 200


@pytest.mark.parametrize("mode", ["single", "multi"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_error_estimate_is_a_failed_step(mode):
    """Finite stages whose error quotients overflow are rejected as a
    failed step and halve h, so the run ends in IntegrationFailure."""
    def rhs(y, t, out):
        out[:] = 1.7e308 * np.sign(np.sin(1e3 * t + np.arange(2)))
    prob = OdeProblem(N=2, rhs=rhs, t_span=(0.0, 1.0), y0=np.zeros(2),
                      dependency=lambda i: (i,))
    cfg = SolverConfig(h0=0.9, mode=mode, phi=0.5)
    with pytest.raises(IntegrationFailure, match="h_min") as exc:
        integrate(prob, get_method("erk4"), cfg)
    assert exc.value.stats.rejected_global_convergence > 0


def test_step_budget_exhaustion():
    prob = make_linear_problem(np.array([[-1.0]]), t_span=(0.0, 100.0))
    cfg = SolverConfig(rtol=1e-10, atol=1e-12, max_steps=5)
    with pytest.raises(IntegrationFailure, match="budget"):
        integrate(prob, get_method("erk4"), cfg)


@pytest.mark.parametrize("mode", ["single", "multi"])
@pytest.mark.parametrize("cause,cfg", [
    ("budget", SolverConfig(rtol=1e-10, atol=1e-12, max_steps=5)),
    # The first attempt is rejected and its successor 0.5 is below h_min.
    ("h_min", SolverConfig(rtol=1e-10, atol=1e-12, h0=1.0, h_min=0.6)),
], ids=["budget", "h_min"])
def test_integration_failures_carry_wall_time(mode, cause, cfg):
    prob = make_linear_problem(np.array([[-1.0]]), t_span=(0.0, 100.0))
    with pytest.raises(IntegrationFailure, match=cause) as exc:
        integrate(prob, get_method("erk4"), replace(cfg, mode=mode))
    assert exc.value.stats.wall_time > 0.0


@pytest.mark.parametrize("name", ["esdirk3", "esdirk4", "erk4"])
@pytest.mark.parametrize("with_grid", [False, True], ids=["plain", "t_eval"])
def test_single_rate_is_multirate_with_fast_cap_zero(name, with_grid):
    """phi * N < 1 leaves no fast slot: MR must reproduce SR bitwise."""
    prob = bench.make_burgers(bench.BurgersParams(N=60, t_span=(0.0, 2.0)))
    grid = np.linspace(0.0, 2.0, 41) if with_grid else None
    cfg = SolverConfig(rtol=1e-4, atol=1e-4, phi=0.01, t_eval=grid)
    sr = integrate(prob, get_method(name), cfg)
    mr = integrate(prob, get_method(name), replace(cfg, mode="multi"))
    np.testing.assert_array_equal(sr.t, mr.t)
    np.testing.assert_array_equal(sr.y, mr.y)
    if with_grid:
        np.testing.assert_array_equal(sr.y_out, mr.y_out)
    else:
        assert sr.y_out is None and mr.y_out is None
    s1, s2 = asdict(sr.stats), asdict(mr.stats)
    s1.pop("wall_time")
    s2.pop("wall_time")
    assert s1 == s2
    assert len(sr.activity) == len(mr.activity)
    for a, b in zip(sr.activity, mr.activity):
        assert ((a.step_index, a.t_start, a.t_end, a.kind)
                == (b.step_index, b.t_start, b.t_end, b.kind))
        np.testing.assert_array_equal(a.active_indices, b.active_indices)
    if name != "erk4":
        assert sr.stats.rejected_global_error > 0


def test_benchmark_tracing_patch_points_are_reached(monkeypatch):
    """The benchmark's outside-in tracer still sees every adapt layer."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench import tracing
    prob, _ = stiff_pair_problem()
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5,
                       t_eval=np.linspace(0.0, 2.0, 21))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        integrate(prob, get_method("esdirk3"), cfg)
    calls = {name: v[0] for name, v in tracer.layer_totals().items()}
    for name in ("adapt.select_partition", "adapt.multirate_step",
                 "odecore.rk_step.fast", "odecore.rk_step.global",
                 "interp.slow_value", "adapt._OutputSampler.commit_step"):
        assert calls[name] > 0, name
    # The benchmark problems' own callables, wrapped by `wrap_problem`
    # under the field names that `run.py --trace 1` reports.
    for prob in (
            bench.make_inverter_chain(
                bench.InverterChainParams(N=20, t_span=(0.0, 6.5))),
            bench.make_burgers(bench.BurgersParams(N=100,
                                                   t_span=(0.0, 2.0))),
            bench.make_heating(bench.HeatingParams(N=5,
                                                   t_span=(0.0, 30000.0)))):
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            res = integrate(tracer.wrap_problem(prob), get_method("esdirk3"),
                            SolverConfig(rtol=1e-6, atol=1e-6, mode="multi",
                                         phi=0.2))
        assert res.stats.accepted_fast > 0, prob.name
        calls = {name: v[0] for name, v in tracer.layer_totals().items()}
        for name in ("bench.rhs", "bench.rhs_restricted",
                     "bench.jacobian_restricted"):
            assert calls[name] > 0, (prob.name, name)


@pytest.mark.parametrize("mode,max_steps", [
    ("single", None), ("single", 100), ("multi", None), ("multi", 130)])
def test_work_counters_equal_problem_calls(mode, max_steps):
    """The four work counters are the problem's own call counts, failed
    attempts included, in results and in `IntegrationFailure` alike.

    A 20-stage inverter chain over [0, 7.6] has global convergence
    rejections in both modes and a fast one in MR; the step budgets stop
    each run after its rejections."""
    prob, calls = counting_problem(bench.make_inverter_chain(
        bench.InverterChainParams(N=20, t_span=(0.0, 7.6))))
    cfg = SolverConfig(rtol=1e-5, atol=1e-5, mode=mode, phi=0.1)
    if max_steps is None:
        stats = integrate(prob, get_method("esdirk3"), cfg).stats
    else:
        with pytest.raises(IntegrationFailure, match="budget") as info:
            integrate(prob, get_method("esdirk3"),
                      replace(cfg, max_steps=max_steps))
        stats = info.value.stats
    assert stats.rejected_global_convergence > 0
    assert (stats.rejected_fast_convergence > 0) == (mode == "multi")
    assert (stats.global_rhs_calls, stats.global_jacobians,
            stats.local_rhs_calls, stats.local_jacobians) == (
        calls["rhs"], calls["jacobian"], calls["rhs_restricted"],
        calls["jacobian_restricted"])


def test_integrate_dispatches_on_mode():
    """On one problem, "single" accepts every step whole and "multi"
    re-integrates the fast component."""
    prob, _ = stiff_pair_problem()
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, phi=0.5)
    sr = integrate(prob, get_method("esdirk3"), cfg)
    mr = integrate(prob, get_method("esdirk3"), replace(cfg, mode="multi"))
    assert sr.stats.accepted_fast == 0
    assert {r.kind for r in sr.activity} == {"global"}
    assert mr.stats.accepted_fast > 0
    assert {r.kind for r in mr.activity} == {"global", "fast"}


def batched(f):
    """An array-tau interpolant that writes f(tau) row by row into out."""
    def interp(tau, out):
        out[:] = [f(x) for x in tau]
    return interp


def test_output_sampler_unit():
    s = adapt._OutputSampler(np.array([0.0, 0.5, 1.0, 1.5, 2.0]), 1,
                             0.0, np.array([7.0]))
    assert s.filled == 1  # t = 0 pinned to the initial state
    s.commit_step(0.0, 1.0, batched(lambda tau: np.array([10.0 * tau])))
    s.commit_step(1.0, 0.6, batched(lambda tau: np.array([100.0 + tau])))
    t, y = s.finish(np.array([-1.0]))
    np.testing.assert_allclose(
        y[:, 0], [7.0, 5.0, 10.0, 100.0 + 0.5 / 0.6, -1.0])


def test_output_sampler_fast_overlay_unit():
    s = adapt._OutputSampler(np.array([0.25, 0.75]), 2, 0.0,
                             np.zeros(2))
    assert s.window(0.0, 1.0) == (0, 2)
    # The fast sub-run's samples on the step's rows fill column 1.
    s.commit_step(0.0, 1.0, batched(lambda tau: np.array([tau, tau])),
                  np.array([1]), np.array([[0.25], [42.0]]))
    _, y = s.finish(np.zeros(2))
    np.testing.assert_allclose(y[0], [0.25, 0.25])
    np.testing.assert_allclose(y[1], [0.75, 42.0])


@pytest.mark.parametrize("name", ["esdirk3", "erk4"])
def test_output_sampler_batched_commit_matches_rows(name):
    """One commit equals row-by-row evaluation of the step's interpolant;
    rows up to t0 stay as they were and fast columns take ``y_fast``."""
    prob = bench.make_burgers(bench.BurgersParams(N=40, t_span=(0.0, 1.0)))
    m = get_method(name)
    cache = None
    if not m.is_explicit:
        cache = adapt.JacobianCache(prob, SolverConfig())
    t0, h = 0.3, 0.25
    u0 = prob.y0
    u1, _, K = adapt.rk_step(prob, u0, t0, h, m, cache)
    make = adapt._make_interpolant(prob, m, SolverConfig(), u0, u1, t0, h,
                                   K)
    grid = np.linspace(0.0, 1.0, 101)
    s = adapt._OutputSampler(grid, prob.N, 0.0, u0)
    s.filled = lo = int(np.searchsorted(grid, t0, side="right"))
    s.y[:lo] = before = np.arange(lo * prob.N, dtype=float).reshape(
        lo, prob.N)
    fast = np.array([3, 17, 18])
    hi = int(np.searchsorted(grid, t0 + h, side="right"))
    y_fast = np.full((hi - lo, len(fast)), -5.0)
    s.commit_step(t0, h, make(slice(None)), fast, y_fast)
    assert s.filled == hi
    assert s.y[:lo].tobytes() == before.tobytes()
    interp = make(slice(None))
    ref = np.array([interp(np.array([(t - t0) / h]))[0]
                    for t in grid[lo:hi]])
    ref[:, fast] = y_fast
    np.testing.assert_allclose(s.y[lo:hi], ref, rtol=1e-14,
                               atol=1e-14 * np.abs(ref).max())
    assert s.y[lo:hi, fast].tobytes() == y_fast.tobytes()


def test_output_sampler_clamps_tau_and_closes_round_off_gap():
    taus = []

    def interp(tau, out):
        taus.append(tau.copy())
        out[:, 0] = tau
    # t0 + h rounds up to 0.30000000000000004, a grid point whose tau is
    # 1 + 2**-52 unclamped.
    grid = np.array([0.0, 0.05, 0.1 + 0.2, 0.4, 0.5])
    s = adapt._OutputSampler(grid, 1, 0.0, np.zeros(1))
    assert (grid[2] - 0.1) / 0.2 > 1.0
    # Row 1 (t = 0.05) lies before the step: the sampler was left behind
    # by round-off, so the step fills it with tau clamped to 0.
    assert s.window(0.1, 0.2) == (1, 3)
    s.commit_step(0.1, 0.2, interp)
    np.testing.assert_array_equal(taus[-1], [0.0, 1.0])
    np.testing.assert_array_equal(s.y[:3, 0], [0.0, 0.0, 1.0])
    assert s.filled == 3
    s.commit_step(0.3, 0.2, interp)
    assert s.filled == 5


@pytest.mark.parametrize("mode", ["single", "multi"])
@pytest.mark.parametrize("make", [
    lambda: bench.make_inverter_chain(
        bench.InverterChainParams(N=50, t_span=(0.0, 8.0))),
    lambda: bench.make_burgers(bench.BurgersParams(N=100,
                                                   t_span=(0.0, 2.0))),
], ids=["inverter", "burgers"])
def test_dia_jacobian_runs_equal_csr_runs(make, mode):
    """The problems' DIA Jacobians and their CSR copies give the same run:
    trajectory, activity and counters bitwise, dense output to 1e-12."""
    prob = make()
    as_csr = replace(prob, jacobian=lambda y, t, jac=prob.jacobian:
                     jac(y, t).tocsr())
    cfg = SolverConfig(rtol=1e-5, atol=1e-5, mode=mode, phi=0.1,
                       t_eval=np.linspace(*prob.t_span, 301))
    dia = integrate(prob, get_method("esdirk3"), cfg)
    csr = integrate(as_csr, get_method("esdirk3"), cfg)
    assert dia.t.tobytes() == csr.t.tobytes()
    assert dia.y.tobytes() == csr.y.tobytes()
    s1, s2 = asdict(dia.stats), asdict(csr.stats)
    s1.pop("wall_time")
    s2.pop("wall_time")
    assert s1 == s2
    assert (s1["accepted_fast"] > 0) == (mode == "multi")
    assert len(dia.activity) == len(csr.activity)
    for a, b in zip(dia.activity, csr.activity):
        assert ((a.step_index, a.t_start, a.t_end, a.kind)
                == (b.step_index, b.t_start, b.t_end, b.kind))
        assert a.active_indices.tobytes() == b.active_indices.tobytes()
    np.testing.assert_allclose(dia.y_out, csr.y_out, rtol=1e-12, atol=1e-12)
