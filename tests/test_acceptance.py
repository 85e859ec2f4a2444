"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Frozen reference constants were computed offline; each records its
provenance next to its definition.  Everything else is computed in-test.
"""

import time

import numpy as np
import pytest

import mrrk.adapt as adapt
from mrrk.adapt import SolverConfig, integrate, select_partition
from mrrk.bench import make_burgers, make_heating, make_inverter_chain
from mrrk.interp import InterpolatorKind
from mrrk.stability import (model_2dof, model_4dof, propagator_errors,
                            table_entry)
from mrrk.tableaux import get_method

from conftest import make_linear_problem
from _oracles import brute_force_multirate_R

IK = {k: InterpolatorKind(k) for k in ("linear", "hermite", "dense")}
GE = "GE"          # table sentinel: stable on the whole scanned grid
M_COLS = (2, 4, 8, 16, 32, 64, 128)

# --------------------------------------------------------------------------
# Expected integer max-C tables (2-DOF model, erk4 + Hermite).  Rows are
# kappa = 0.9e-5 ... 0.9; columns M = 2 ... 128.

TABLE_2DOF_ERK4 = {
    1: [[3, 3, 3, 3, 3, 3, 3],
        [3, 3, 3, 3, 3, 3, 3],
        [3, 3, 3, 3, 3, 3, 3],
        [3, 3, 3, 3, 3, 3, 3],
        [4, 4, 4, 4, 4, 4, 4],
        [3, 3, 3, 3, 3, 3, 3]],
    10: [[6, 12, 23, 28, 28, 28, 28],
         [6, 12, 23, 28, 28, 28, 28],
         [6, 12, 23, 27, 26, 26, 26],
         [6, 12, 16, 15, 15, 15, 15],
         [6, 11, 10, 10, 10, 10, 10],
         [5, 10, 7, 7, 7, 7, 7]],
    100: [[6, 12, 23, 45, 90, GE, GE],
          [6, 12, 23, 45, 76, 74, 74],
          [6, 12, 23, 45, 43, 43, 43],
          [6, 12, 23, 25, 25, 25, 25],
          [6, 12, 16, 15, 15, 15, 15],
          [6, 10, 10, 10, 10, 10, 10]],
    1000: [[6, 12, 23, 45, 90, GE, GE],
           [6, 12, 23, 45, 90, GE, GE],
           [6, 12, 23, 45, 76, 74, 74],
           [6, 12, 23, 45, 43, 43, 43],
           [6, 12, 23, 25, 25, 25, 25],
           [6, 12, 16, 15, 15, 15, 15]],
}
KAPPAS_2DOF = (0.9e-5, 0.9e-4, 0.9e-3, 0.9e-2, 0.9e-1, 0.9)

# 4-DOF model, esdirk4 + dense output; gamma1 = 0.01, beta = 1.
TABLE_4DOF_ESDIRK4 = {
    1: [[GE] * 7,
        [GE] * 7,
        [GE] * 7,
        [GE] * 7,
        [GE, 7, 7, 7, 7, 7, 7],
        [4, 4, 4, 4, 4, 4, 4]],
    10: [[GE] * 7,
         [GE] * 7,
         [GE] * 7,
         [GE, 5, 5, 5, 5, 5, 5],
         [3, 3, 3, 3, 3, 3, 3],
         [2, 2, 2, 2, 2, 2, 2]],
    100: [[GE] * 7,
          [GE] * 7,
          [GE, GE, 5, 5, 5, 5, 5],
          [GE, 3, 3, 3, 3, 3, 3],
          [2, 2, 2, 2, 2, 2, 2],
          [1, 1, 1, 1, 1, 1, 1]],
    1000: [[GE] * 7,
           [GE, GE, 5, 5, 5, 5, 5],
           [3, 3, 3, 3, 3, 3, 3],
           [2, 2, 2, 2, 2, 2, 2],
           [1, 1, 1, 1, 1, 1, 1],
           [1, 1, 1, 1, 1, 1, 1]],
}
KAPPAS_4DOF = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

# --------------------------------------------------------------------------
# Frozen references (offline runs; scripts in this repo's history).

# Single-rate inverter chain, esdirk3, rtol = atol = 1e-5, JacB,
# newton_max_iters = 60: accepted global steps over t in [0, 200].
INVERTER_SR_ACCEPTED = 72870

# Falling-edge crossing time of y_1000 through 2.5 from an independent
# variable-order BDF integration at rtol = atol = 1e-9 with the analytic
# sparse Jacobian (scipy solve_ivp), linearly interpolated on a 1e-3 grid.
INVERTER_REF_CROSSING = 187.94075620923414

# Heating benchmark final energy E = y[201] at t = 172800 s from a
# single-rate esdirk4 run at rtol = atol = 1e-9 (seed 42 schedules).
HEATING_REF_E = 34097512096.043716


def report(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def entry(model, method, kind, M):
    e = table_entry(model, method, IK[kind], M)
    return GE if isinstance(e, str) else e


def compare_tables(expected, computed):
    """(#cells, #exact, max int deviation, mismatches list)."""
    total = exact = 0
    max_dev = 0
    mismatches = []
    for key in expected:
        for i, row in enumerate(expected[key]):
            for j, want in enumerate(row):
                got = computed[key][i][j]
                total += 1
                if got == want:
                    exact += 1
                    continue
                mismatches.append((key, i, j, want, got))
                if got == GE or want == GE:
                    max_dev = np.inf
                else:
                    max_dev = max(max_dev, abs(got - want))
    return total, exact, max_dev, mismatches


def test_criterion_1_stability_table_erk4_hermite_2dof():
    t0 = time.perf_counter()
    m = get_method("erk4")
    computed = {
        a: [[entry(model_2dof(alpha=a, kappa=k), m, "hermite", M)
             for M in M_COLS] for k in KAPPAS_2DOF]
        for a in TABLE_2DOF_ERK4}
    total, exact, max_dev, mism = compare_tables(TABLE_2DOF_ERK4, computed)
    el = time.perf_counter() - t0
    ok = exact / total >= 0.95 and max_dev <= 1
    report(1, ok,
           f"{exact}/{total} exact, max deviation {max_dev}, "
           f"{el:.1f}s; mismatches: {mism}")


def test_criterion_2_esdirk4_unconditional_2dof():
    t0 = time.perf_counter()
    m = get_method("esdirk4")
    bad = []
    for a in (1, 10, 100, 1000):
        for k in KAPPAS_2DOF:
            model = model_2dof(alpha=a, kappa=k)
            for M in M_COLS:
                e = entry(model, m, "dense", M)
                if e != GE:
                    bad.append((a, k, M, e))
    el = time.perf_counter() - t0
    report(2, not bad,
           f"all {4 * len(KAPPAS_2DOF) * len(M_COLS)} cells stable to "
           f"C = 100 ({el:.1f}s)" if not bad else f"unstable cells: {bad}")


def test_criterion_3_stability_table_esdirk4_dense_4dof():
    t0 = time.perf_counter()
    m = get_method("esdirk4")
    computed = {
        a: [[entry(model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=a,
                              beta_ratio=1.0, kappa=k), m, "dense", M)
             for M in M_COLS] for k in KAPPAS_4DOF]
        for a in TABLE_4DOF_ESDIRK4}
    total, exact, max_dev, mism = compare_tables(TABLE_4DOF_ESDIRK4,
                                                 computed)
    el = time.perf_counter() - t0
    ok = exact / total >= 0.95 and max_dev <= 1
    report(3, ok,
           f"{exact}/{total} exact, max deviation {max_dev}, "
           f"{el:.1f}s; mismatches: {mism}")


def test_criterion_4_oracle_equivalence():
    from mrrk.stability import PartitionedLinearModel, multirate_R
    from _oracles import random_stable_matrix
    combos = []
    for name in ("erk4", "erk4-owren", "esdirk3", "esdirk4"):
        meth = get_method(name)
        kinds = ["linear", "hermite"] + (["dense"] if meth.dense is not None
                                         else [])
        for kind in kinds:
            for M in (1, 2, 3, 5):
                combos.append((meth, kind, M))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        meth, kind, M = combos[trial % len(combos)]
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n))
        L = random_stable_matrix(rng, n)
        h = rng.uniform(0.05, 0.5)
        model = PartitionedLinearModel(L, d=d)
        R = multirate_R(model, h, M, meth, IK[kind])
        R_ref = brute_force_multirate_R(L, d, h, M, meth, kind)
        worst = max(worst, float(np.max(np.abs(R - R_ref))))
    report(4, worst < 1e-11,
           f"200 randomized systems, all methods and interp kinds, "
           f"M in (1,2,3,5); worst deviation {worst:.2e}")


def test_criterion_5_convergence_orders():
    model = model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=2.0,
                       beta_ratio=1.0, kappa=0.1)
    t_final = 4.0 / model.Lam
    results = {}
    ok = True
    for name in ("erk4", "erk4-owren", "esdirk3", "esdirk4"):
        m = get_method(name)
        ns = (8, 16, 32, 64, 128)
        errs = []
        for n in ns:
            C = model.Lam * t_final / n
            errs.append(propagator_errors(model, m, IK["hermite"], 1, C,
                                          n)[0])
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        results[name] = -slope
        ok = ok and abs(-slope - m.p) <= 0.15
    report(5, ok, "observed orders " + ", ".join(
        f"{k}={v:.3f}" for k, v in results.items()))


@pytest.mark.slow
def test_criterion_6_inverter_efficiency_and_edge():
    t0 = time.perf_counter()
    prob = make_inverter_chain()
    grid = np.arange(185.0, 191.0 + 1e-9, 0.001)
    cfg = SolverConfig(rtol=1e-5, atol=1e-5, mode="multi", phi=0.05,
                       jacobian_strategy="JacB", newton_max_iters=60,
                       t_eval=grid)
    res = integrate(prob, get_method("esdirk3"), cfg)
    el = time.perf_counter() - t0
    ratio = res.stats.accepted_global / INVERTER_SR_ACCEPTED
    y1000 = res.y_out[:, 999]
    s = np.sign(y1000 - 2.5)
    idx = np.nonzero(np.diff(s) != 0)[0]
    cross = None
    for i in idx:
        t1, t2 = res.t_out[i], res.t_out[i + 1]
        v1, v2 = y1000[i], y1000[i + 1]
        if v2 < v1:
            cross = t1 + (2.5 - v1) * (t2 - t1) / (v2 - v1)
    shift = np.inf if cross is None else abs(cross - INVERTER_REF_CROSSING)
    ok = ratio <= 0.05 and shift <= 5e-3 and el < 300
    report(6,
           ok,
           f"global steps {res.stats.accepted_global} "
           f"({100 * ratio:.2f}% of single-rate {INVERTER_SR_ACCEPTED}), "
           f"falling edge {cross}, shift {shift:.2e} vs reference "
           f"{INVERTER_REF_CROSSING}, runtime {el:.0f}s")


@pytest.mark.slow
def test_criterion_7_burgers_accuracy():
    t0 = time.perf_counter()
    prob = make_burgers()
    ref = integrate(prob, get_method("esdirk4"),
                    SolverConfig(rtol=1e-9, atol=1e-9, mode="single",
                                 jacobian_strategy="JacA"))
    errs = {}
    for phi in (0.2, 0.04):
        res = integrate(prob, get_method("esdirk3"),
                        SolverConfig(rtol=1e-6, atol=1e-6, mode="multi",
                                     phi=phi, jacobian_strategy="JacA"))
        errs[phi] = float(np.max(np.abs(res.y[-1] - ref.y[-1])))
    el = time.perf_counter() - t0
    ok = all(e <= 1e-4 for e in errs.values()) and el < 60
    report(7, ok,
           "max-abs deviation at t = 5 vs tol-1e-9 single-rate: "
           + ", ".join(f"phi={p}: {e:.2e}" for p, e in errs.items())
           + f", runtime {el:.0f}s")


@pytest.mark.slow
def test_criterion_8_heating_energy_consistency():
    t0 = time.perf_counter()
    prob = make_heating()
    res = integrate(prob, get_method("esdirk4"),
                    SolverConfig(rtol=1e-5, atol=1e-5, mode="multi",
                                 phi=0.05, jacobian_strategy="JacB"))
    E = float(res.y[-1][201])
    rel = abs(E - HEATING_REF_E) / abs(HEATING_REF_E)
    el = time.perf_counter() - t0
    ok = rel <= 1e-4 and el < 180
    report(8, ok,
           f"final energy {E:.10e} vs reference {HEATING_REF_E:.10e}, "
           f"relative error {rel:.2e}, runtime {el:.0f}s")


def _random_trace_problem(rng):
    """Small linear system with a strongly contracting fast tail."""
    n = int(rng.integers(3, 8))
    d = int(rng.integers(1, 3))
    A = rng.uniform(-1.0, 1.0, (n, n))
    L = A - (np.abs(A).sum(axis=1).max() + 1.0) * np.eye(n)
    lam_f = rng.uniform(30.0, 120.0)
    for i in range(n - d, n):
        L[i, i] -= lam_f
    y0 = rng.uniform(0.5, 2.0, n)
    return make_linear_problem(L, y0=y0, t_span=(0.0, 0.3))


def test_criterion_9_controller_invariants(monkeypatch):
    rng = np.random.default_rng(99)
    n_traces = 500
    n_runs = 0
    steps_seen = 0

    orig = adapt.multirate_step
    checked = {"bitwise": 0}

    def spy(problem, method, config, u_n, t_n, h_n, u_tentative, fast,
            *args, **kw):
        out = orig(problem, method, config, u_n, t_n, h_n, u_tentative,
                   fast, *args, **kw)
        assert np.array_equal(np.delete(out[0], fast),
                              np.delete(u_tentative, fast))
        checked["bitwise"] += 1
        return out

    monkeypatch.setattr(adapt, "multirate_step", spy)

    from mrrk._linops import interp_matrices
    from _oracles import random_stable_matrix

    for trace in range(n_traces):
        # Deterministic tie-breaking: repeated partition of one quotient
        # vector (including exact ties) gives identical results.
        n = int(rng.integers(2, 30))
        eta = np.round(rng.exponential(1.0, n), 1)   # force ties
        phi = float(rng.uniform(0.05, 0.95))
        d1, fast1, s1, f1 = select_partition(eta, phi, 1.0)
        d2, fast2, s2, f2 = select_partition(eta.copy(), phi, 1.0)
        assert d1 == d2 and s1 == s2 and f1 == f2
        assert np.array_equal(fast1, fast2)

        # Q(0) = I and Q(1) = R(hL) for every interpolant kind.
        name = ("erk4", "erk4-owren", "esdirk3", "esdirk4")[trace % 4]
        meth = get_method(name)
        L = random_stable_matrix(rng, 3)
        h = rng.uniform(0.05, 0.4)
        from mrrk.stability import single_rate_R
        Rh = single_rate_R(L, h, meth)
        kinds = ["linear", "hermite"] + (["dense"] if meth.dense is not None
                                         else [])
        for kind in kinds:
            Q0, Q1 = interp_matrices(kind, L[None], np.array([h]), meth,
                                     np.array([0.0, 1.0]))[:, 0]
            np.testing.assert_allclose(Q0, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(Q1, Rh, atol=1e-11)

        if trace % 5 == 0:
            # A real integration: bitwise slow equality is asserted by the
            # spy; fast sub-steps must tile each global step to 1e-12.
            prob = _random_trace_problem(rng)
            cfg = SolverConfig(rtol=1e-5, atol=1e-6, mode="multi",
                               phi=float(rng.uniform(0.2, 0.6)))
            res = adapt.integrate(prob, get_method("erk4"), cfg)
            glob = {r.step_index: r for r in res.activity
                    if r.kind == "global"}
            by_step = {}
            for r in res.activity:
                if r.kind == "fast":
                    by_step.setdefault(r.step_index, []).append(r)
            for idx, recs in by_step.items():
                g = glob[idx]
                recs.sort(key=lambda r: r.t_start)
                assert abs(recs[0].t_start - g.t_start) <= 1e-12
                for a, b in zip(recs, recs[1:]):
                    assert abs(b.t_start - a.t_end) <= 1e-12
                assert abs(recs[-1].t_end - g.t_end) <= 1e-12
            n_runs += 1
            steps_seen += res.stats.accepted_global

    report(9, checked["bitwise"] > 0 and n_runs == 100,
           f"{n_traces} randomized controller traces ({n_runs} full "
           f"multi-rate integrations, {steps_seen} global steps, "
           f"{checked['bitwise']} bitwise slow-equality checks)")
