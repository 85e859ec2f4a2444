import numpy as np
import pytest

from mrrk.bench import (BurgersParams, HeatingParams, InverterChainParams,
                        _input_fn, burgers_initial, external_temperature,
                        heating_schedule, inverter_g, make_burgers,
                        make_heating, make_inverter_chain, smooth_sat,
                        smooth_step)
from mrrk.newton import fd_jacobian

from _oracles import inverter_restricted


def dense_jac(problem, y, t):
    J = problem.jacobian(y, t)
    return J.toarray() if hasattr(J, "toarray") else np.asarray(J)


def check_restricted_consistency(problem, y, t, indices, atol=1e-12):
    full = np.empty(problem.N)
    problem.rhs(y, t, full)
    out = np.zeros(len(indices))
    problem.rhs_restricted(y, t, np.asarray(indices), out)
    np.testing.assert_allclose(out, full[indices], atol=atol)


def strip_jacobian(problem):
    from mrrk.odecore import OdeProblem
    return OdeProblem(N=problem.N, rhs=problem.rhs, t_span=problem.t_span,
                      y0=problem.y0, dependency=problem.dependency,
                      name=problem.name)


def check_jacobian_vs_fd(problem, y, t, rtol=2e-4, atol=1e-4):
    J = dense_jac(problem, y, t)
    J_fd = fd_jacobian(strip_jacobian(problem), y, t)
    J_fd = J_fd.toarray() if hasattr(J_fd, "toarray") else J_fd
    np.testing.assert_allclose(J, J_fd, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# Inverter chain


def test_inverter_params_validation():
    with pytest.raises(ValueError):
        InverterChainParams(U_tau=6.0)
    with pytest.raises(ValueError):
        InverterChainParams(Gamma=0.0)


def test_inverter_g_values():
    assert inverter_g(np.array([0.5]), np.array([0.0]), 1.0)[0] == 0.0
    assert inverter_g(np.array([2.0]), np.array([5.0]), 1.0)[0] == 1.0
    # y - z - U_tau > 0 branch subtracts the second square.
    assert inverter_g(np.array([3.0]), np.array([0.5]),
                      1.0)[0] == pytest.approx(4.0 - 2.25)


def test_inverter_input_pulse():
    u = _input_fn(InverterChainParams())
    assert u(0.0) == 0.0
    assert u(7.5) == pytest.approx(2.5)
    assert u(12.5) == pytest.approx(5.0)
    assert u(17.5) == pytest.approx(2.5)
    assert u(30.0) == 0.0


def test_inverter_initial_state_pattern():
    prob = make_inverter_chain()
    assert prob.N == 1000
    assert prob.y0[0] == 1.0
    assert prob.y0[1] == pytest.approx(6.247e-3)
    np.testing.assert_allclose(prob.y0[::2], 1.0)
    np.testing.assert_allclose(prob.y0[1::2], 6.247e-3)


def test_inverter_restricted_and_jacobian():
    p = InverterChainParams(N=50)
    prob = make_inverter_chain(p)
    rng = np.random.default_rng(1)
    y = rng.uniform(0.0, 5.0, p.N)
    t = 12.0
    check_restricted_consistency(prob, y, t, np.array([0, 3, 4, 17, 49]))
    check_jacobian_vs_fd(prob, y, t)
    idx = np.array([0, 3, 4, 17])
    Jr = prob.jacobian_restricted(y, t, idx)
    J = dense_jac(prob, y, t)
    np.testing.assert_allclose(Jr, J[np.ix_(idx, idx)], atol=1e-12)


def test_inverter_dependency_bidiagonal():
    prob = make_inverter_chain(InverterChainParams(N=10))
    assert prob.dependency(0) == (0,)
    assert prob.dependency(5) == (4, 5)


# ---------------------------------------------------------------------------
# Burgers


def test_burgers_params_validation():
    with pytest.raises(ValueError):
        BurgersParams(nu=-1e-3)
    with pytest.raises(ValueError):
        BurgersParams(N=2)


def test_burgers_initial_profile():
    p = BurgersParams()
    y0 = burgers_initial(p)
    assert y0.shape == (1000,)
    # The pulse peaks at 1 at mid-domain; the even grid has no node
    # exactly at 12.5, so the sampled maximum sits just below 1.
    x = np.linspace(0.0, p.L_dom, p.N)
    assert y0.max() == pytest.approx(1.0, abs=1e-3)
    assert y0[np.argmin(np.abs(x - 12.5))] == pytest.approx(1.0, abs=1e-3)
    assert y0[0] < 1e-100 and y0[-1] < 1e-100


def test_burgers_frozen_boundaries():
    prob = make_burgers(BurgersParams(N=64))
    rng = np.random.default_rng(2)
    y = rng.uniform(0.0, 1.0, 64)
    out = np.empty(64)
    prob.rhs(y, 0.0, out)
    assert out[0] == 0.0 and out[-1] == 0.0
    J = dense_jac(prob, y, 0.0)
    assert np.all(J[0] == 0.0) and np.all(J[-1] == 0.0)


def test_burgers_restricted_and_jacobian():
    p = BurgersParams(N=64)
    prob = make_burgers(p)
    rng = np.random.default_rng(3)
    y = rng.uniform(0.0, 1.0, p.N)
    check_restricted_consistency(prob, y, 0.5,
                                 np.array([0, 1, 20, 21, 22, 63]))
    check_jacobian_vs_fd(prob, y, 0.5)
    idx = np.array([10, 11, 12, 40])
    Jr = prob.jacobian_restricted(y, 0.5, idx)
    J = dense_jac(prob, y, 0.5)
    np.testing.assert_allclose(Jr, J[np.ix_(idx, idx)], atol=1e-12)


@pytest.mark.parametrize("make, params, sets", [
    (make_inverter_chain, InverterChainParams(N=30), [[0, 1, 7, 8, 29]]),
    (make_inverter_chain, InverterChainParams(N=30), [[3, 4, 17]]),
    (make_inverter_chain, InverterChainParams(N=30), [[0]]),
    # One problem, called with two index arrays in turn, then with the
    # second changed in place: a new coupling, then index 0 dropped.
    (make_inverter_chain, InverterChainParams(N=30),
     [[0, 1, 7, 8, 29], [3, 4, 17], [0, 1, 7, 8, 29], [0, 1, 7, 9, 29],
      [1, 2, 3, 4, 5], [3, 4, 17], [1, 2, 3, 4, 5]]),
    (make_burgers, BurgersParams(N=40), [[0, 1, 2, 20, 38, 39]]),
    (make_burgers, BurgersParams(N=40), [[0]]),
    (make_burgers, BurgersParams(N=40), [[39]]),
    (make_burgers, BurgersParams(N=40), [[5, 6, 30]]),
    (make_heating, HeatingParams(N=6), [[0, 2, 7, 9, 13]]),
], ids=["inverter-with-0", "inverter-without-0", "inverter-only-0",
        "inverter-alternating-and-in-place", "burgers-both-boundaries",
        "burgers-left", "burgers-right", "burgers-interior",
        "heating-fallback"])
def test_restricted_rhs_writes_compact_values_bitwise(make, params, sets):
    """rhs_restricted writes exactly len(indices) values, in index order,
    bitwise equal to the full RHS at those indices, for each index set of
    ``sets`` in turn on one problem.  A set as long as the last one is
    written into the last one's array in place."""
    prob = make(params)
    rng = np.random.default_rng(8)
    y = prob.y0 * (1.0 + 0.1 * rng.standard_normal(prob.N)) + 0.05
    # At t = 12 the inverter's input is on its plateau; heating's switches
    # are under way at 8.5 h.
    t = 8.5 * 3600.0 if prob.name == "heating" else 12.0
    full = np.empty(prob.N)
    prob.rhs(y, t, full)
    idx = None
    for indices in sets:
        if idx is not None and len(idx) == len(indices):
            idx[:] = indices
        else:
            idx = np.array(indices)
        guard = np.full(len(idx) + 2, np.nan)
        prob.rhs_restricted(y, t, idx, guard[1:-1])
        assert np.isnan(guard[0]) and np.isnan(guard[-1])
        assert guard[1:-1].tobytes() == full[idx].tobytes(), indices


@pytest.mark.parametrize("make, params", [
    (make_inverter_chain, InverterChainParams(N=60)),
    (make_burgers, BurgersParams(N=60)),
])
def test_restricted_jacobian_bitwise_equals_full_block(make, params):
    """The vectorized restricted Jacobian is the full one's block, exactly."""
    prob = make(params)
    n = params.N
    rng = np.random.default_rng(7)
    sets = [np.array([0]), np.array([n - 1]), np.array([0, n - 1]),
            np.arange(0, 6), np.arange(n - 5, n), np.arange(n),
            np.concatenate([np.arange(0, 3), np.arange(20, 26),
                            np.arange(n - 2, n)])]
    for _ in range(30):
        k = int(rng.integers(1, n + 1))
        sets.append(np.sort(rng.choice(n, size=k, replace=False)))

    def check(idx):
        y = rng.uniform(0.0, 5.0, n)
        t = float(rng.uniform(0.0, 25.0))
        Jr = prob.jacobian_restricted(y, t, idx)
        ref = prob.jacobian(y, t).toarray()[np.ix_(idx, idx)]
        assert Jr.shape == ref.shape
        assert Jr.tobytes() == ref.tobytes(), idx

    for idx in sets:
        check(idx)
    # Two index arrays in turn, one of them changed in place between
    # calls: couplings appear and vanish, and index 0 comes and goes.
    idx, other = np.array([0, 1, 2, 5]), np.array([3, 4, n - 1])
    for new in ([0, 1, 3, 5], [1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 2, 5]):
        check(other)
        check(idx)
        idx[:] = new
        check(idx)


def _special_states(p, rng, count=8):
    """Seeded inverter states with NaN, +-inf, -0.0, stages at U_tau and
    neighbour pairs whose difference is U_tau, where max(x, 0.0) sees a
    NaN or a zero."""
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, p.U_tau]
    states = []
    for _ in range(count):
        y = rng.uniform(-1.0, 6.0, p.N)
        hit = rng.choice(p.N, size=p.N // 10, replace=False)
        y[hit] = rng.choice(specials, size=len(hit))
        i = rng.choice(np.arange(1, p.N), size=p.N // 20, replace=False)
        y[i] = y[i - 1] - p.U_tau
        states.append(y)
    return states


@pytest.mark.parametrize("indices", [
    [0], [1], [999], [0, 1, 2, 3, 4], [0, 2, 4, 6], [0, 1, 5, 6, 7, 40],
    [3, 4, 17, 18, 500, 998, 999], list(range(100, 150)),
    list(range(0, 1000, 20))],
    ids=["only-0", "singleton", "last", "run-from-0", "non-adjacent-with-0",
         "runs-with-0", "runs-without-0", "50-run", "50-non-adjacent"])
def test_inverter_scalar_hooks_equal_vector_oracle_bitwise(indices):
    """The restricted inverter hooks, which loop on Python floats, equal
    the numpy vector formulas of `_oracles.inverter_restricted`, the full
    RHS's entries and the full Jacobian's dense block bit for bit, +0.0
    couplings and NaNs included.  The 50-entry sets are phi N for phi =
    0.05 on the benchmark's 1000-stage chain."""
    p = InverterChainParams(N=1000)
    prob = make_inverter_chain(p)
    idx = np.array(indices)
    rng = np.random.default_rng(26)
    for y in _special_states(p, rng):
        # Before, on and after the input ramp, and at a breakpoint.
        for t in (2.0, 7.5, 10.0, 12.0):
            with np.errstate(invalid="ignore"):
                ref_rhs, ref_jac = inverter_restricted(p, y, t, idx)
                full = np.empty(p.N)
                prob.rhs(y, t, full)
                block = prob.jacobian(y, t).toarray()[np.ix_(idx, idx)]
            out = np.empty(len(idx))
            prob.rhs_restricted(y, t, idx, out)
            J = prob.jacobian_restricted(y, t, idx)
            assert out.tobytes() == ref_rhs.tobytes() == full[idx].tobytes()
            assert J.tobytes() == ref_jac.tobytes() == block.tobytes()


def test_burgers_rhs_against_stencil():
    p = BurgersParams(N=11, nu=0.1, L_dom=1.0)
    prob = make_burgers(p)
    y = np.linspace(0.0, 1.0, 11) ** 2
    out = np.empty(11)
    prob.rhs(y, 0.0, out)
    dx = 0.1
    i = 5
    expect = (-y[i] * (y[i + 1] - y[i - 1]) / (2 * dx)
              + 0.1 * (y[i + 1] - 2 * y[i] + y[i - 1]) / dx**2)
    assert out[i] == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# Heating


def test_smooth_helpers():
    assert smooth_step(10.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert smooth_step(-10.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-8)
    assert smooth_step(0.0, 0.0, 1.0) == pytest.approx(0.5)
    assert smooth_sat(0.0, 0.0, 1.0) == pytest.approx(0.11920292202211755)
    assert smooth_sat(10.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert smooth_sat(0.5, 0.0, 1.0) == pytest.approx(0.5)


def test_external_temperature_peak_at_14h():
    assert external_temperature(14 * 3600.0) == pytest.approx(286.15)
    assert external_temperature(2 * 3600.0) == pytest.approx(270.15)


def test_heating_params_validation():
    with pytest.raises(ValueError, match="at least one unit"):
        HeatingParams(N=0)


def test_heating_schedule_seeded_and_in_range():
    p = HeatingParams()
    up1, down1 = heating_schedule(p)
    up2, down2 = heating_schedule(p)
    np.testing.assert_array_equal(up1, up2)
    np.testing.assert_array_equal(down1, down2)
    assert np.all((up1 >= 6 * 3600) & (up1 <= 12 * 3600))
    assert np.all((down1 >= 15 * 3600) & (down1 <= 22 * 3600))
    up3, _ = heating_schedule(HeatingParams(rng_seed=7))
    assert not np.array_equal(up1, up3)


def test_heating_structure_and_initial_state():
    p = HeatingParams()
    prob = make_heating(p)
    assert prob.N == 202
    assert prob.y0[0] == pytest.approx(343.15)
    np.testing.assert_allclose(prob.y0[1:101], 0.0)
    np.testing.assert_allclose(prob.y0[101:201], 288.15)
    assert prob.y0[201] == 0.0
    assert p.Q_max == pytest.approx(0.7 * 100 * 200 * 50.0)
    assert p.C_s == pytest.approx(2e8)
    C_u = p.C_u()
    assert C_u[0] == pytest.approx((1 + 0.348 / 100) * 1e7)
    assert C_u[-1] == pytest.approx(1.348e7)


def test_heating_energy_row_integrates_supply():
    prob = make_heating()
    out = np.empty(202)
    prob.rhs(prob.y0, 0.0, out)
    # At the initial state T_s = T_s0, so the supply command is zero and
    # saturates to a small positive value.
    assert out[201] > 0.0
    assert out[201] == pytest.approx(
        smooth_sat(0.0, 0.0, HeatingParams().Q_max), rel=1e-12)


def test_heating_restricted_and_jacobian():
    p = HeatingParams(N=12)
    prob = make_heating(p)
    rng = np.random.default_rng(4)
    y = prob.y0 + rng.normal(scale=1.0, size=prob.N)
    y[1:13] = rng.uniform(0.0, 200.0, 12)
    t = 8.5 * 3600.0
    check_restricted_consistency(prob, y, t,
                                 np.array([0, 1, 5, 13, 17, 25]),
                                 atol=1e-9)
    idx = np.array([0, 2, 14, 25])
    Jr = prob.jacobian_restricted(y, t, idx)
    J = dense_jac(prob, y, t)
    np.testing.assert_allclose(Jr, J[np.ix_(idx, idx)], atol=1e-12)


def test_heating_jacobian_vs_fd_small():
    p = HeatingParams(N=6)
    prob = make_heating(p)
    rng = np.random.default_rng(5)
    y = prob.y0.copy()
    y[0] = 330.0
    y[1:7] = rng.uniform(10.0, 150.0, 6)
    y[7:13] = rng.uniform(285.0, 295.0, 6)
    t = 10 * 3600.0
    J = dense_jac(prob, y, t)
    J_fd = fd_jacobian(strip_jacobian(prob), y, t)
    np.testing.assert_allclose(J, J_fd, rtol=5e-4, atol=5e-4)


def test_heating_dependency_closure():
    p = HeatingParams(N=5)
    prob = make_heating(p)
    assert prob.dependency(0) == (0,) + tuple(range(1, 11))
    assert prob.dependency(3) == (3, 8)      # G_h row reads its T_u
    assert prob.dependency(8) == (0, 3, 8)   # T_u row reads T_s and G_h
    assert prob.dependency(11) == (0,)       # energy row reads T_s
