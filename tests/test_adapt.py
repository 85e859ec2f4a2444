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
from mrrk.interp import (DENSE, HERMITE, LINEAR, InterpolatorKind,
                         power_rows, slow_interpolant)
from mrrk.newton import ConvergenceFailure
from mrrk.odecore import OdeProblem, new_step_size, predictive_step_size
from mrrk.tableaux import get_method

from conftest import (counting_problem, interp_round_off,
                      make_linear_problem)


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
                         ("interp", 3), ("interp", "cubic"),
                         ("alpha", np.nan), ("alpha", -1.0), ("alpha", 0.0),
                         ("beta", np.inf), ("beta", np.nan),
                         ("newton_max_iters", 2.5), ("max_steps", 1.5),
                         ("max_steps", 0), ("max_steps", -1),
                         ("newton_max_iters", True), ("max_steps", True),
                         ("t_eval", np.array([1.0, 0.0])),
                         ("t_eval", np.array([0.0, np.nan])),
                         ("t_eval", np.zeros((2, 2)))]:
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
    # A kind name becomes its kind, as OdeProblem's y0 becomes an array.
    cfg = SolverConfig(interp="dense")
    assert cfg.interp == DENSE and type(cfg.interp) is InterpolatorKind
    # Fast sub-runs pass the (possibly empty) slice of the output grid.
    SolverConfig(t_eval=np.array([]))
    SolverConfig(t_eval=np.array([0.0, 0.5, 0.5, 1.0]))


def test_stage_solve_reads_run_config():
    """A stage solve weights its residual and its Newton steps with the
    run's step tolerances, returns at a residual of
    ``RESIDUAL_TOL_FACTOR`` or a predicted error of ``KAPPA`` in that
    norm, and takes at most the run's ``newton_max_iters`` Newton steps."""
    from mrrk.newton import RESIDUAL_TOL_FACTOR, KAPPA, solve_stage
    cfg = SolverConfig(rtol=1e-4, atol=1e-6, newton_max_iters=33)
    base = np.array([0.0, 1e4])
    # |r_i| / (1e-4 |U_i| + 1e-6) <= 0.01 accepts the start U = base.
    w = RESIDUAL_TOL_FACTOR * np.array([1e-6, 1e-4 * 1e4 + 1e-6])

    def solve(c):
        """U = base + f(U) with f = c: the start residual is -c, and one
        Newton step (J = 0) reaches base + c."""
        prob = OdeProblem(N=2, rhs=lambda y, t, out: np.copyto(out, c),
                          t_span=(0.0, 1.0), y0=base,
                          dependency=lambda i: (i,),
                          jacobian=lambda y, t: np.zeros((2, 2)))
        cache = adapt.JacobianCache(prob, cfg)
        cache.refresh(base, 0.0)
        return solve_stage(prob, 0.0, 1.0, 1.0, base, cache), cache.solves

    inside, outside = w * (1.0 - 1e-6), w * (1.0 + 1e-6)
    U, steps = solve(inside)
    np.testing.assert_array_equal(U, base)
    assert steps == 0
    # The first step of a fresh cache predicts an error of its own norm,
    # 0.01 here, so the solve returns base + c without a second residual.
    for c in (np.array([outside[0], inside[1]]),      # the atol weight
              np.array([inside[0], outside[1]]),      # the rtol weight
              np.array([KAPPA / RESIDUAL_TOL_FACTOR * inside[0], 0.0])):
        U, steps = solve(c)
        np.testing.assert_array_equal(U, base + c)
        assert steps == 1

    # With J = 0 for f(y) = -y each Newton step halves the error
    # (h a_ii = 0.5), so the solve needs a fixed number of steps.
    prob = OdeProblem(N=1, rhs=lambda y, t, out: np.negative(y, out=out),
                      t_span=(0.0, 1.0), y0=np.ones(1),
                      dependency=lambda i: (0,),
                      jacobian=lambda y, t: np.zeros((1, 1)))

    def stage(cap):
        cache = adapt.JacobianCache(prob, replace(cfg, newton_max_iters=cap))
        cache.refresh(prob.y0, 0.0)
        solve_stage(prob, 0.0, 1.0, 0.5, prob.y0, cache)
        return cache.solves

    # A cap of n allows n Newton steps.
    needed = stage(cfg.newton_max_iters)
    assert 2 < needed < cfg.newton_max_iters
    assert stage(needed) == needed
    with pytest.raises(ConvergenceFailure,
                       match=f"in {needed - 1} Newton steps"):
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


@pytest.mark.parametrize("where", [0, 1], ids=["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("phi", [0.1, 0.5], ids=["cap-0", "cap-1"])
def test_select_partition_rejects_nonfinite(phi, bad, where):
    """A NaN or +Inf quotient anywhere fails the step, on the cap-0 path
    (floor(phi N) = 0 for N = 2 and phi = 0.1) and on the cap > 0 one."""
    eta = np.array([1.0, 0.5])
    eta[where] = bad
    with pytest.raises(ConvergenceFailure, match="non-finite error"):
        select_partition(eta, phi=phi, beta=1.0)


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
        seen.append((u_tentative.copy(), fast, out[0].copy()))
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
    """multirate_step = integrate(fast sub-problem, mode="single", h0);
    the run records the sub-run's steps as "fast" records of the global
    step."""
    prob, _ = stiff_pair_problem()
    orig = adapt.multirate_step
    checked = []

    def spy(problem, method, config, u_n, t_n, h_n, u_tentative, fast,
            eta_f, C, stats, *args, **kw):
        before = asdict(stats)
        out = orig(problem, method, config, u_n, t_n, h_n, u_tentative,
                   fast, eta_f, C, stats, *args, **kw)
        sub = adapt._fast_subproblem(problem, fast, u_n, t_n, h_n, C)
        h0 = h_n * min(config.alpha_max,
                       config.alpha * eta_f ** (-1.0 / (method.q + 1)))
        ref = integrate(sub, method, replace(config, mode="single", h0=h0))
        np.testing.assert_array_equal(out[0][fast], ref.y[-1])
        np.testing.assert_array_equal(out[1].y, ref.y)
        after = asdict(stats)
        delta = {k: after[k] - before[k] for k in before if k != "wall_time"}
        assert delta == dict(
            accepted_global=0, rejected_global_error=0,
            rejected_global_convergence=0, global_rhs_calls=0,
            global_jacobians=0, global_solves=0,
            accepted_fast=ref.stats.accepted_global,
            rejected_fast_error=ref.stats.rejected_global_error,
            rejected_fast_convergence=ref.stats.rejected_global_convergence,
            local_rhs_calls=ref.stats.global_rhs_calls,
            local_jacobians=ref.stats.global_jacobians,
            local_solves=ref.stats.global_solves)
        checked.append((t_n, fast, ref.activity))
        return out

    monkeypatch.setattr(adapt, "multirate_step", spy)
    cfg = SolverConfig(rtol=1e-6, atol=1e-8, mode="multi", phi=0.5)
    res = integrate(prob, get_method(name), cfg)
    assert checked and res.stats.accepted_fast > 0
    step_of = {r.t_start: r.step_index for r in res.activity
               if r.kind == "global"}
    for t_n, fast, ref_activity in checked:
        step_index = step_of[t_n]
        recs = [r for r in res.activity
                if r.kind == "fast" and r.step_index == step_index]
        assert [(r.step_index, r.t_start, r.t_end, r.kind) for r in recs] == [
            (step_index, r.t_start, r.t_end, "fast") for r in ref_activity]
        assert all(r.active_indices is fast for r in recs)


def small_inverter():
    """A 20-stage chain driven past its input ramp."""
    return bench.make_inverter_chain(bench.InverterChainParams(
        N=20, t_span=(0.0, 6.5)))


def record_attempts(monkeypatch):
    """Spy on `adapt._attempt_step`: (N, t, h, eta) of every attempt at
    every level, in order; eta is None for an attempt that raised."""
    seen = []
    orig = adapt._attempt_step

    def spy(problem, u_n, t_n, h, *args):
        seen.append((problem.N, t_n, h, None))
        out = orig(problem, u_n, t_n, h, *args)
        seen[-1] = (problem.N, t_n, h, out[1])
        return out

    monkeypatch.setattr(adapt, "_attempt_step", spy)
    return seen


def accepted_proposals(attempts, problem, res, cfg):
    """(h, eta_s, h_next) of each accepted global step of ``res``, the run
    of ``problem``, whose next attempt on the same problem came straight
    after it, unclipped.

    h_next is then the step size the controller proposed after (h, eta_s);
    a step the loop clipped to the end of the span shows nothing and is
    left out.  ``attempts`` come from `record_attempts`.
    """
    N, T = problem.N, problem.t_span[1]
    phi = cfg.phi if cfg.mode == "multi" else 0.0
    accepted = {(r.t_start, r.t_end) for r in res.activity
                if r.kind == "global"}
    own = [a for a in attempts if a[0] == N]
    out = []
    for (_, t, h, eta), (_, t_next, h_next, _) in zip(own, own[1:]):
        if (t, t + h) in accepted and h_next < T - t_next:
            out.append((h, select_partition(eta, phi, cfg.beta)[2], h_next))
    return out


def test_predictive_step_size_only_cuts_a_rising_error():
    """A rising eta pair gives the predictive formula, below the plain
    rule's h_I; a falling pair gives h_I."""
    cfg, q, h, h_prev = SolverConfig(), 2, 0.1, 0.08
    eta_prev, eta = 0.3, 0.8
    h_i = new_step_size(h, eta, q, cfg)
    h_new = predictive_step_size(h, eta, h_prev, eta_prev, q, cfg)
    assert h_new == h * (cfg.alpha * (h / h_prev) * eta ** (-1 / (q + 1))
                         * (eta_prev / eta) ** (1 / (q + 1)))
    assert h_new < h_i
    assert predictive_step_size(h, eta_prev, h_prev, eta, q, cfg) == (
        new_step_size(h, eta_prev, q, cfg))
    # eta_prev is floored at 1e-2, and the cut at alpha_min.
    floored = predictive_step_size(h, 0.5, h / 2, 1e-2, q, cfg)
    assert cfg.alpha_min * h < floored < new_step_size(h, 0.5, q, cfg)
    assert predictive_step_size(h, 0.5, h / 2, 1e-9, q, cfg) == floored
    assert predictive_step_size(h, 0.9, 100 * h, 0.1, q, cfg) == (
        h * cfg.alpha_min)


@pytest.mark.parametrize("mode,phi", [("single", 0.1), ("multi", 0.01)],
                         ids=["single", "cap-zero-multi"])
def test_cap_zero_run_follows_the_error_trend(monkeypatch, mode, phi):
    """With fast cap 0, the step after a run's first accepted step is
    exactly `new_step_size`, and each later one `predictive_step_size`
    from it and the accepted step before, which cuts h below the plain
    rule somewhere in the run."""
    attempts = record_attempts(monkeypatch)
    cfg = SolverConfig(rtol=1e-4, atol=1e-4, mode=mode, phi=phi)
    method = get_method("esdirk3")
    prob = small_inverter()
    res = integrate(prob, method, cfg)
    steps = accepted_proposals(attempts, prob, res, cfg)
    (h, eta, h_next), rest = steps[0], steps[1:]
    assert res.activity[0].t_end == res.activity[0].t_start + h
    assert h_next == new_step_size(h, eta, method.q, cfg)
    cuts = 0
    for (h_prev, eta_prev, _), (h, eta, h_next) in zip(steps, rest):
        assert h_next == predictive_step_size(h, eta, h_prev, eta_prev,
                                              method.q, cfg)
        cuts += h_next < new_step_size(h, eta, method.q, cfg)
    assert len(rest) > 50 and cuts >= 5


def test_multirate_global_level_keeps_the_plain_rule(monkeypatch):
    """With a nonzero fast cap, every global proposal is `new_step_size`,
    also where the error trend would have cut it."""
    attempts = record_attempts(monkeypatch)
    cfg = SolverConfig(rtol=1e-4, atol=1e-4, mode="multi", phi=0.1)
    method = get_method("esdirk3")
    prob = small_inverter()
    res = integrate(prob, method, cfg)
    assert res.stats.accepted_fast > 0
    steps = accepted_proposals(attempts, prob, res, cfg)
    trend_cuts = 0
    for (h_prev, eta_prev, _), (h, eta, h_next) in zip(steps, steps[1:]):
        h_i = new_step_size(h, eta, method.q, cfg)
        assert h_next == h_i
        trend_cuts += predictive_step_size(
            h, eta, h_prev, eta_prev, method.q, cfg) < h_i
    assert len(steps) > 30 and trend_cuts >= 2


def test_fast_sub_run_starts_without_the_alpha_min_floor(monkeypatch):
    """A sub-run's first step is h_n min(alpha_max, alpha eta_f^(-1/(q+1))),
    below alpha_min h_n when eta_f is large."""
    attempts = record_attempts(monkeypatch)
    starts = []
    orig = adapt.multirate_step

    def spy(problem, method, config, u_n, t_n, h_n, u_tentative, fast,
            eta_f, *args, **kw):
        first = len(attempts)
        out = orig(problem, method, config, u_n, t_n, h_n, u_tentative,
                   fast, eta_f, *args, **kw)
        starts.append((h_n, eta_f, attempts[first][2]))
        return out

    monkeypatch.setattr(adapt, "multirate_step", spy)
    cfg = SolverConfig(rtol=1e-4, atol=1e-4, mode="multi", phi=0.1)
    method = get_method("esdirk3")
    integrate(small_inverter(), method, cfg)
    for h_n, eta_f, h_first in starts:
        assert h_first == h_n * min(
            cfg.alpha_max, cfg.alpha * eta_f ** (-1.0 / (method.q + 1)))
    assert any(h_first < cfg.alpha_min * h_n for h_n, _, h_first in starts)


def _fast_subproblem_case(kind):
    """A 20-stage chain's fast set [0, 5, 6, 12], whose slow closure
    columns are 4 and 11, and one step's interpolant of ``kind`` from
    seeded data: (problem, fast, u_n, t_n, h, C, bound), where
    ``bound`` is the kind's round-off bound per column."""
    problem = bench.make_inverter_chain(bench.InverterChainParams(N=20))
    m = get_method("esdirk3")
    rng = np.random.default_rng(5)
    u_n, u_next = rng.uniform(0.0, 5.0, 20), rng.uniform(0.0, 5.0, 20)
    f_n, f_next = rng.normal(0.0, 50.0, (2, 20))
    K = rng.normal(0.0, 50.0, (m.s, 20))
    t_n, h = 9.0, 0.5                     # inside the input ramp
    data = (u_n, u_next, h, f_n, f_next, K, m.dense)
    return (problem, np.array([0, 5, 6, 12]), u_n, t_n, h,
            slow_interpolant(kind, *data), interp_round_off(kind, *data))


@pytest.mark.parametrize("kind", [LINEAR, HERMITE, DENSE],
                         ids=str)
def test_fast_subproblem_fills_slow_columns_by_horner(kind):
    """The slow columns the restricted RHS reads are the output sampler's
    row of the same coefficients at tau = (t - t_n)/h within the kind's
    round-off bound (`conftest.interp_round_off`), and u_n exactly at
    t = t_n."""
    problem, fast, u_n, t_n, h, C, bound = _fast_subproblem_case(kind)
    states = []

    def rhs_restricted(y, t, indices, out):
        states.append(y.copy())
        problem.rhs_restricted(y, t, indices, out)

    sub = adapt._fast_subproblem(
        replace(problem, rhs_restricted=rhs_restricted), fast, u_n, t_n, h,
        C)
    cols = np.array([4, 11])
    rng = np.random.default_rng(6)
    out = np.empty(len(fast))
    for t in (t_n, *(t_n + h * rng.uniform(0.0, 1.0, 20)), t_n + h):
        sub.rhs(rng.uniform(0.0, 5.0, len(fast)), t, out)
        slow = states[-1][cols]
        if t == t_n:
            assert slow.tobytes() == u_n[cols].tobytes()
        row = power_rows(C[:, cols], np.array([(t - t_n) / h]))[0]
        assert np.all(np.abs(slow - row) <= bound[cols]), t


def test_fast_subproblem_forms_slow_coefficients_once():
    """A sub-problem takes its slow columns' coefficients once, when it is
    built: each RHS or Jacobian call equals a fresh sub-problem's
    evaluation at its t, whichever t came before, though the coefficient
    array it was built from has since been overwritten."""
    problem, fast, u_n, t_n, h, C, _ = _fast_subproblem_case(DENSE)
    given = C.copy()
    sub = adapt._fast_subproblem(problem, fast, u_n, t_n, h, given)
    given[...] = np.nan
    rng = np.random.default_rng(7)
    for t in (9.1, 9.1, 9.35, 9.1, t_n):
        yf = rng.uniform(0.0, 5.0, len(fast))
        out, ref = np.empty(len(fast)), np.empty(len(fast))
        sub.rhs(yf, t, out)
        fresh = adapt._fast_subproblem(problem, fast, u_n, t_n, h, C)
        fresh.rhs(yf, t, ref)
        assert out.tobytes() == ref.tobytes()
        assert (sub.jacobian(yf, t).tobytes()
                == fresh.jacobian(yf, t).tobytes())


@pytest.mark.parametrize("n, fast, seed", [
    (6, [0, 2, 7, 9, 13], 8),
    (12, [0, 1, 5, 13, 17, 25], 4),
], ids=["heating-6", "heating-12"])
def test_fast_subproblem_without_hook_takes_full_rhs_entries(n, fast, seed):
    """Heating has no ``rhs_restricted``, so its fast sub-problem takes
    entries of the full RHS: at t = t_n, each call writes exactly
    len(fast) values, bitwise the full RHS's at ``fast`` of u_n with the
    fast iterate in place, call after call on one sub-problem."""
    prob = bench.make_heating(bench.HeatingParams(N=n))
    assert prob.rhs_restricted is None
    rng = np.random.default_rng(seed)
    u_n = prob.y0 * (1.0 + 0.1 * rng.standard_normal(prob.N)) + 0.05
    u_n[1:n + 1] = rng.uniform(0.0, 200.0, n)
    t_n, h = 8.5 * 3600.0, 60.0       # the switches are under way
    fast = np.array(fast)
    C = slow_interpolant(LINEAR, u_n, u_n + 1.0, h)
    sub = adapt._fast_subproblem(prob, fast, u_n, t_n, h, C)
    for _ in range(3):
        y = u_n.copy()
        y[fast] += rng.normal(scale=1.0, size=len(fast))
        full = np.empty(prob.N)
        prob.rhs(y, t_n, full)
        guard = np.full(len(fast) + 2, np.nan)
        sub.rhs(y[fast], t_n, guard[1:-1])
        assert np.isnan(guard[0]) and np.isnan(guard[-1])
        assert guard[1:-1].tobytes() == full[fast].tobytes()


def forced_relaxations(c):
    """20 decoupled relaxations y_i' = -D_i (y_i - c sin t), D_i from 1 to
    1e4, with a Jacobian but no restricted hooks: the stiffest ones go
    multirate."""
    D = np.logspace(0.0, 4.0, 20)

    def rhs(y, t, out):
        np.multiply(-D, y - c * np.sin(t), out=out)
    return OdeProblem(N=20, rhs=rhs, t_span=(0.0, 3.0), y0=np.zeros(20),
                      dependency=lambda i: (i,),
                      jacobian=lambda y, t: np.diag(-D), name="relax")


RELAX_MR = SolverConfig(rtol=1e-6, atol=1e-6, mode="multi", phi=0.2,
                        t_eval=np.linspace(0.0, 3.0, 31))


def assert_same_run(a, b):
    """Two results have bitwise equal t, y, y_out and activity and equal
    counters apart from ``wall_time``."""
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.y, b.y)
    assert (a.y_out is None) == (b.y_out is None)
    if a.y_out is not None:
        assert a.y_out.tobytes() == b.y_out.tobytes()
    s1, s2 = asdict(a.stats), asdict(b.stats)
    s1.pop("wall_time")
    s2.pop("wall_time")
    assert s1 == s2
    assert len(a.activity) == len(b.activity)
    for x, y in zip(a.activity, b.activity):
        assert ((x.step_index, x.t_start, x.t_end, x.kind)
                == (y.step_index, y.t_start, y.t_end, y.kind))
        np.testing.assert_array_equal(x.active_indices, y.active_indices)


def test_replaced_rhs_reaches_the_fast_phase():
    """An MR run of `replace(p, rhs=g)`, p without ``rhs_restricted``, is
    bitwise the run of a problem built with g: every fast phase evaluates
    the RHS the run was given, not the one p was built with."""
    m = get_method("esdirk3")
    fresh = integrate(forced_relaxations(2.0), m, RELAX_MR)
    swapped = integrate(replace(forced_relaxations(1.0),
                                rhs=forced_relaxations(2.0).rhs),
                        m, RELAX_MR)
    assert fresh.stats.accepted_fast > 0
    assert_same_run(swapped, fresh)


def test_full_rhs_fallback_counts_as_local_work():
    """Without ``rhs_restricted``, each RHS call of a fast sub-run is one
    call of the problem's ``rhs``, counted once, as local work."""
    prob, calls = counting_problem(forced_relaxations(1.0))
    stats = integrate(prob, get_method("esdirk3"), RELAX_MR).stats
    assert stats.accepted_fast > 0 and stats.local_rhs_calls > 0
    assert calls["rhs"] == stats.global_rhs_calls + stats.local_rhs_calls


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
    """Every kind `integrate` lets `_step_interpolant` use ends at the
    accepted state: interp(1) equals u_next within 1e-9 in the weighted
    norm, also for a method that accepts the two half steps of step
    doubling.  The dense kind needs continuous output and an embedded
    pair."""
    prob = bench.make_burgers(bench.BurgersParams(N=100))
    m = get_method(name)
    cfg = SolverConfig()
    t, h, u = prob.t_span[0], 0.02, prob.y0
    cache = None if m.is_explicit else adapt.JacobianCache(prob, cfg)
    if cache is not None:
        cache.begin_global_step(u, t)
    u_next, _, K = adapt._attempt_step(prob, u, t, h, m, cfg, cache)
    kinds = (LINEAR, HERMITE)
    if m.dense is not None and m.b_hat is not None:
        kinds += (DENSE,)
    for kind in kinds:
        C = adapt._step_interpolant(prob, m, kind, u, u_next, t, h, K)
        interp = adapt._make_interpolant(C)(slice(None))
        end = interp(np.array([1.0]))[0]
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


def test_newton_cap_of_one_allows_one_newton_step():
    """``newton_max_iters`` counts Newton steps: with a cap of 1 each stage
    of esdirk3 on y' = -y takes its one step, which solves the linear
    stage, so the run finishes in a few dozen steps."""
    prob = make_linear_problem(np.array([[-1.0]]), t_span=(0.0, 1.0))
    res = integrate(prob, get_method("esdirk3"),
                    SolverConfig(newton_max_iters=1, max_steps=1000))
    s = res.stats
    assert res.t[-1] == 1.0
    assert s.accepted_global < 50 and s.rejected_global_convergence <= 2
    assert s.global_solves > 0


@pytest.mark.parametrize("name", ["erk4", "erk4-owren"])
def test_dense_kind_needs_continuous_output_and_a_pair(name):
    """interp='dense' with a method that has no continuous output (erk4)
    or no embedded pair (erk4-owren) raises ValueError naming the method
    before the run starts; left unset, the kind falls back to Hermite."""
    prob, calls = counting_problem(
        make_linear_problem(np.array([[-1.0]]), t_span=(0.0, 1.0)))
    m = get_method(name)
    for mode in ("single", "multi"):
        cfg = SolverConfig(interp=DENSE, mode=mode)
        with pytest.raises(ValueError, match=f"method '{name}' has no "
                           "dense output"):
            integrate(prob, m, cfg)
    assert calls["rhs"] == 0
    res = integrate(prob, m, SolverConfig(t_eval=np.linspace(0, 1, 5)))
    assert abs(res.y_out[-1, 0] - np.exp(-1.0)) < 1e-5


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
    cfg = SolverConfig(rtol=1e-4, atol=1e-4, phi=0.01, h0=0.5, t_eval=grid)
    sr = integrate(prob, get_method(name), cfg)
    mr = integrate(prob, get_method(name), replace(cfg, mode="multi"))
    assert_same_run(sr, mr)
    assert (sr.y_out is None) != with_grid
    if name != "erk4":
        assert sr.stats.rejected_global_error > 0


def small_chain():
    """A 20-stage chain over [0, 6.5], into its input ramp."""
    return bench.make_inverter_chain(
        bench.InverterChainParams(N=20, t_span=(0.0, 6.5)))


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
    # Every commit evaluates its rows once, multirate steps' included: the
    # inverter's steps with a fast phase hold grid rows.
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        res = integrate(small_chain(), get_method("esdirk3"),
                        SolverConfig(rtol=1e-6, atol=1e-6, mode="multi",
                                     phi=0.2,
                                     t_eval=np.linspace(0.0, 6.5, 651)))
    assert res.stats.accepted_fast > 0
    calls = {name: v[0] for name, v in tracer.layer_totals().items()}
    assert (calls["interp.slow_value"]
            == calls["adapt._OutputSampler.commit_step"] > 0)
    # The benchmark problems' own callables, wrapped by `wrap_problem`
    # under the field names that `run.py --trace 1` reports.
    for prob in (
            small_chain(),
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
        for name in ("bench.rhs", "bench.jacobian_restricted"):
            assert calls[name] > 0, (prob.name, name)
        if prob.name != "heating":
            assert calls["bench.rhs_restricted"] > 0, prob.name
            continue
        # Heating has no restricted RHS, so its fast phase takes entries of
        # the full one: each of its RHS calls is a `bench.rhs` span inside
        # `adapt.multirate_step`.
        spans = tracer.arrays()
        names, parent = spans["names"].tolist(), spans["parent"]
        rhs_id, step_id = (names.index("bench.rhs"),
                           names.index("adapt.multirate_step"))

        def in_fast_phase(i):
            while i >= 0 and spans["name"][i] != step_id:
                i = parent[i]
            return i >= 0
        assert calls["bench.rhs_restricted"] == 0
        assert sum(in_fast_phase(i) for i in
                   np.flatnonzero(spans["name"] == rhs_id)) == (
            res.stats.local_rhs_calls) > 0


@pytest.mark.parametrize("mode,max_steps", [
    ("single", None), ("single", 100), ("multi", None), ("multi", 130)])
def test_work_counters_equal_problem_calls(mode, max_steps, monkeypatch):
    """The six work counters are the problem's own call counts and the
    linear solves of the run's caches, failed attempts included, in
    results and in `IntegrationFailure` alike.

    A 20-stage inverter chain over [0, 24] at tolerances of 1e-3, through
    the whole input pulse, has global convergence rejections in both
    modes and fast ones in MR; the step budgets stop each run after its
    rejections."""
    prob, calls = counting_problem(bench.make_inverter_chain(
        bench.InverterChainParams(N=20, t_span=(0.0, 24.0))))
    solves = {"global": 0, "local": 0}
    solve = adapt.JacobianCache.solve

    def counted_solve(cache, *args):
        # A fast sub-run's cache holds the fast sub-problem.
        solves["local" if cache.problem.N < prob.N else "global"] += 1
        return solve(cache, *args)
    monkeypatch.setattr(adapt.JacobianCache, "solve", counted_solve)
    cfg = SolverConfig(rtol=1e-3, atol=1e-3, mode=mode, phi=0.1)
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
    assert (stats.global_solves, stats.local_solves) == (
        solves["global"], solves["local"])
    assert stats.global_solves > 0


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
    s.commit_step(s.window(0.0, 1.0), 0.0, 1.0,
                  batched(lambda tau: np.array([10.0 * tau])))
    s.commit_step(s.window(1.0, 0.6), 1.0, 0.6,
                  batched(lambda tau: np.array([100.0 + tau])))
    t, y = s.finish(np.array([-1.0]))
    np.testing.assert_allclose(
        y[:, 0], [7.0, 5.0, 10.0, 100.0 + 0.5 / 0.6, -1.0])


def test_output_sampler_fast_overlay_unit():
    s = adapt._OutputSampler(np.array([0.25, 0.75]), 2, 0.0,
                             np.zeros(2))
    assert s.window(0.0, 1.0) == (0, 2)
    # The fast sub-run's samples on the step's rows fill column 1.
    s.commit_step((0, 2), 0.0, 1.0,
                  batched(lambda tau: np.array([tau, tau])),
                  np.array([1]), np.array([[0.25], [42.0]]))
    _, y = s.finish(np.zeros(2))
    np.testing.assert_allclose(y[0], [0.25, 0.25])
    np.testing.assert_allclose(y[1], [0.75, 42.0])


@pytest.mark.parametrize("name", ["esdirk3", "erk4"])
def test_output_sampler_batched_commit_matches_rows(name):
    """One commit equals row-by-row evaluation of the step's interpolant
    bit for bit; rows up to t0 stay as they were and fast columns take
    ``y_fast``."""
    prob = bench.make_burgers(bench.BurgersParams(N=40, t_span=(0.0, 1.0)))
    m = get_method(name)
    cache = None
    if not m.is_explicit:
        cache = adapt.JacobianCache(prob, SolverConfig())
    t0, h = 0.3, 0.25
    u0 = prob.y0
    u1, _, K = adapt.rk_step(prob, u0, t0, h, m, cache)
    make = adapt._make_interpolant(adapt._step_interpolant(
        prob, m, DENSE if m.dense is not None and m.b_hat is not None
        else HERMITE, u0, u1, t0, h, K))
    grid = np.linspace(0.0, 1.0, 101)
    s = adapt._OutputSampler(grid, prob.N, 0.0, u0)
    s.filled = lo = int(np.searchsorted(grid, t0, side="right"))
    s.y[:lo] = before = np.arange(lo * prob.N, dtype=float).reshape(
        lo, prob.N)
    fast = np.array([3, 17, 18])
    hi = int(np.searchsorted(grid, t0 + h, side="right"))
    y_fast = np.full((hi - lo, len(fast)), -5.0)
    assert s.window(t0, h) == (lo, hi)
    s.commit_step((lo, hi), t0, h, make(slice(None)), fast, y_fast)
    assert s.filled == hi
    assert s.y[:lo].tobytes() == before.tobytes()
    interp = make(slice(None))
    # The commit clamps tau to [0, 1]: here the last row's is 1 + 2**-52.
    ref = np.array([interp(np.array([min((t - t0) / h, 1.0)]))[0]
                    for t in grid[lo:hi]])
    ref[:, fast] = y_fast
    assert s.y[lo:hi].tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", [LINEAR, HERMITE, DENSE],
                         ids=str)
def test_output_sampler_slow_columns_match_the_fast_fill(monkeypatch,
                                                         kind):
    """In the multirate steps that hold grid rows, the sampler's values of
    the slow columns a fast sub-problem reads equal the sub-problem's
    Horner fill at the same t, within the kind's round-off bound: the two
    evaluate the same coefficients."""
    base = small_chain()
    filled = []

    def rhs_restricted(y, t, indices, out):
        filled.append(y.copy())
        base.rhs_restricted(y, t, indices, out)
    steps = {}
    step_interpolant = adapt._step_interpolant

    def spy(problem, method, kind, u_n, u_next, t_n, h, K):
        C = step_interpolant(problem, method, kind, u_n, u_next, t_n, h, K)
        steps[t_n, t_n + h] = (u_n, u_next, h, K, C)
        return C
    monkeypatch.setattr(adapt, "_step_interpolant", spy)
    m = get_method("esdirk3")
    grid = np.linspace(0.0, 6.5, 651)
    res = integrate(base, m, SolverConfig(rtol=1e-6, atol=1e-6, mode="multi",
                                          phi=0.2, interp=kind,
                                          t_eval=grid))
    glob = {r.step_index: (r.t_start, r.t_end) for r in res.activity
            if r.kind == "global"}
    fast_sets = {r.step_index: r.active_indices for r in res.activity
                 if r.kind == "fast"}
    prob = replace(base, rhs_restricted=rhs_restricted)
    checked = 0
    for index, fast in fast_sets.items():
        t_n, t_end = glob[index]
        u_n, u_next, h, K, C = steps[t_n, t_end]
        f_n, f_next = np.empty(base.N), np.empty(base.N)
        base.rhs(u_n, t_n, f_n)
        base.rhs(u_next, t_n + h, f_next)
        bound = interp_round_off(kind, u_n, u_next, h, f_n, f_next, K,
                                 m.dense)
        cols = sorted(set().union(*(base.dependency(int(i)) for i in fast))
                      - set(fast.tolist()))
        sub = adapt._fast_subproblem(prob, fast, u_n, t_n, h, C)
        out = np.empty(len(fast))
        for row in np.nonzero((grid > t_n) & (grid < t_end))[0]:
            sub.rhs(u_n[fast], grid[row], out)
            gap = np.abs(filled[-1][cols] - res.y_out[row, cols])
            assert np.all(gap <= bound[cols]), (index, row)
            checked += 1
    assert checked > 20


def test_multirate_step_never_commits_to_the_run_sampler(monkeypatch):
    """A step's grid rows are committed by `integrate` after its fast
    phase: no commit to an N-column sampler happens while `multirate_step`
    runs, only the fast sub-runs' own commits, and every multirate step
    holding grid rows is committed once with its fast columns."""
    base = small_chain()
    running = [False]
    commits = []
    multirate_step = adapt.multirate_step
    commit_step = adapt._OutputSampler.commit_step

    def spy_step(*args, **kw):
        running[0] = True
        try:
            return multirate_step(*args, **kw)
        finally:
            running[0] = False

    def spy_commit(sampler, window, t0, h, interp, fast=None, y_fast=None):
        commits.append((running[0], sampler.y.shape[1], t0,
                        y_fast is not None))
        return commit_step(sampler, window, t0, h, interp, fast, y_fast)

    monkeypatch.setattr(adapt, "multirate_step", spy_step)
    monkeypatch.setattr(adapt._OutputSampler, "commit_step", spy_commit)
    res = integrate(base, get_method("esdirk3"),
                    SolverConfig(rtol=1e-6, atol=1e-6, mode="multi", phi=0.2,
                                 t_eval=np.linspace(0.0, 6.5, 651)))
    assert res.stats.accepted_fast > 0
    assert all(width < base.N for inside, width, _, _ in commits if inside)
    assert any(inside for inside, _, _, _ in commits)
    glob = {r.step_index: r.t_start for r in res.activity
            if r.kind == "global"}
    mr_starts = {glob[r.step_index] for r in res.activity if r.kind == "fast"}
    overlaid = [t0 for inside, width, t0, fast in commits
                if not inside and width == base.N and fast]
    assert sorted(overlaid) == sorted(mr_starts)


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
    s.commit_step((1, 3), 0.1, 0.2, interp)
    np.testing.assert_array_equal(taus[-1], [0.0, 1.0])
    np.testing.assert_array_equal(s.y[:3, 0], [0.0, 0.0, 1.0])
    assert s.filled == 3
    s.commit_step(s.window(0.3, 0.2), 0.3, 0.2, interp)
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
