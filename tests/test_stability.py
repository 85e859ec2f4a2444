import warnings

import numpy as np
import pytest

from mrrk import _linops, stability
from mrrk.stability import (PartitionedLinearModel, model_2dof, model_4dof,
                            multirate_R, propagator_errors, rho_curve,
                            scan_cell, single_rate_R, table_entry)
from mrrk.interp import InterpolatorKind
from mrrk.tableaux import get_method

import _oracles

IK_H = InterpolatorKind("hermite")
IK_D = InterpolatorKind("dense")


def test_model_2dof_structure():
    m = model_2dof(alpha=10.0, kappa=0.01)
    np.testing.assert_allclose(m.L, [[-1.0, 1.0], [-0.1, -10.0]])
    assert m.d == 1
    ev = np.linalg.eigvals(m.L)
    assert np.all(np.real(ev) < 0)
    assert m.Lam == pytest.approx(np.max(np.abs(ev)))


def test_model_4dof_structure():
    m = model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=50.0,
                   beta_ratio=1.0, kappa=1e-3)
    assert m.L.shape == (4, 4) and m.d == 2
    a2 = 50.0 ** 2
    np.testing.assert_allclose(m.L[1], [-(1 + a2 * 1e-3), -0.01, 1e-3 * a2,
                                        0.0])
    np.testing.assert_allclose(m.L[3], [a2, 0.0, -a2, -0.01])
    assert np.all(np.real(np.linalg.eigvals(m.L)) < 0)


def test_model_validation():
    with pytest.raises(ValueError):
        model_2dof(alpha=10.0, kappa=1.5)
    with pytest.raises(ValueError):
        model_2dof(alpha=-1.0, kappa=0.1)
    # A non-finite L fails at construction, not later in eigvals.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PartitionedLinearModel(np.array([[-1.0, 0.0], [bad, -2.0]]), d=1)
    with pytest.raises(ValueError, match="finite"):
        model_2dof(alpha=np.nan, kappa=0.1)
    with pytest.raises(ValueError, match="finite"):
        model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=np.nan,
                   beta_ratio=1.0, kappa=1e-3)


@pytest.mark.parametrize("model, name, bad", [
    (model_2dof, "alpha", np.nan),
    (model_2dof, "alpha", 0.0),
    (model_4dof, "omega1", np.inf),
    (model_4dof, "omega1", -1.0),
    (model_4dof, "gamma1", np.nan),
    (model_4dof, "gamma1", -0.01),
    (model_4dof, "alpha_ratio", np.inf),
    (model_4dof, "beta_ratio", np.nan),
    (model_4dof, "beta_ratio", 0.0),
])
def test_model_parameter_errors_name_the_parameter(model, name, bad):
    """A bad model parameter is named in the error, not reported later as
    a non-finite L."""
    params = ({"alpha": 10.0, "kappa": 0.1} if model is model_2dof else
              {"omega1": 1.0, "gamma1": 0.01, "alpha_ratio": 50.0,
               "beta_ratio": 1.0, "kappa": 1e-3})
    params[name] = bad
    sign = "nonnegative" if name == "gamma1" else "positive"
    with pytest.raises(ValueError,
                       match=f"^{name} must be finite and {sign}, got"):
        model(**params)


@pytest.mark.parametrize("d", [1.5, True, 0, 3],
                         ids=["d1.5", "dtrue", "d0", "dN+1"])
def test_fast_dimension_must_be_a_count_up_to_N(d):
    """d indexes and slices L, so it must be an integer in [1, N], not a
    bool; a bad d fails at construction, not in a later scan."""
    with pytest.raises(ValueError, match="d must"):
        PartitionedLinearModel(np.diag([-1.0, -2.0]), d=d)


@pytest.mark.parametrize("kappa", [-2.0, -1.0])
def test_model_2dof_rejects_kappa_at_or_below_minus_one(kappa):
    """det L = alpha (1 + kappa): kappa <= -1 puts an eigenvalue at or right
    of zero (kappa = -2, alpha = 10 gives +0.84)."""
    L = np.array([[-1.0, 1.0], [-kappa * 10.0, -10.0]])
    assert np.max(np.real(np.linalg.eigvals(L))) >= -1e-12
    with pytest.raises(ValueError, match=r"kappa must lie in \(-1, 1\)"):
        model_2dof(alpha=10.0, kappa=kappa)


@pytest.mark.parametrize("name", ["erk4", "erk4-owren", "esdirk3", "esdirk4"])
def test_single_rate_R_matches_oracle(name):
    rng = np.random.default_rng(11)
    m = get_method(name)
    for _ in range(3):
        L = _oracles.random_stable_matrix(rng, 5)
        h = rng.uniform(0.05, 0.8)
        np.testing.assert_allclose(single_rate_R(L, h, m),
                                   _oracles.single_rate_R(L, h, m),
                                   atol=1e-11)


def test_single_rate_stability_function_scalar():
    """For y' = lambda*y the update must equal the rational stability
    function evaluated at z = h*lambda."""
    m = get_method("erk4")
    z = -0.7
    R = single_rate_R(np.array([[z]]), 1.0, m)[0, 0]
    assert R == pytest.approx(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24,
                              abs=1e-14)
    es = get_method("esdirk4")
    # L-stability: |R(z)| -> 0 as z -> -inf.
    big = single_rate_R(np.array([[-1e8]]), 1.0, es)[0, 0]
    assert abs(big) < 1e-6


@pytest.mark.parametrize("name,kind", [
    ("erk4", "hermite"), ("erk4", "linear"), ("erk4-owren", "dense"),
    ("esdirk3", "dense"), ("esdirk4", "dense")])
@pytest.mark.parametrize("M", [1, 2, 3, 5, 100])
def test_multirate_R_matches_brute_force(name, kind, M):
    """The matrix itself, at odd and large M and with one and two fast
    components, for every kind: linear (degree 1), Hermite (3) and the
    dense outputs."""
    m = get_method(name)
    for model in (model_2dof(alpha=20.0, kappa=0.05),
                  model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=10.0,
                             beta_ratio=1.0, kappa=0.1)):
        h_s = 1.7 / model.Lam
        R = multirate_R(model, h_s, M, m, InterpolatorKind(kind))
        R_ref = _oracles.brute_force_multirate_R(model.L, model.d, h_s, M,
                                                 m, kind)
        np.testing.assert_allclose(R, R_ref, rtol=0, atol=1e-11)


def test_multirate_M1_vs_single_rate():
    """With M = 1 and any interpolant the fast sub-step spans the whole
    global step; only the interpolated slow stage values differ from the
    coupled single-rate step, so the two operators agree for the slow row
    exactly and differ smoothly for the fast row."""
    m = get_method("esdirk3")
    model = model_2dof(alpha=5.0, kappa=0.1)
    h = 0.5 / model.Lam
    R_mr = multirate_R(model, h, 1, m, IK_D)
    R_sr = single_rate_R(model.L, h, m)
    np.testing.assert_allclose(R_mr[0], R_sr[0], atol=1e-13)


def test_rho_curve_batches_consistently():
    m = get_method("erk4")
    model = model_2dof(alpha=10.0, kappa=0.09)
    Cs = np.array([1.0, 3.0, 6.0])
    rhos = rho_curve(model, m, IK_H, 4, Cs)
    assert rhos.shape == (3,)
    for C, r in zip(Cs, rhos):
        R = multirate_R(model, C / model.Lam, 4, m, IK_H)
        assert r == pytest.approx(np.abs(np.linalg.eigvals(R)).max(),
                                  abs=1e-12)


def test_table_entry_known_cells():
    """Spot values from the reproduced stability tables."""
    m = get_method("erk4")
    model = model_2dof(alpha=1000.0, kappa=0.9e-3)
    assert table_entry(model, m, IK_H, 32) == 76
    model2 = model_2dof(alpha=10.0, kappa=0.9e-4)
    assert table_entry(model2, m, IK_H, 2) == 6
    assert table_entry(model2, m, IK_H, 8) == 23
    es4 = get_method("esdirk4")
    model3 = model_2dof(alpha=100.0, kappa=0.9e-2)
    assert table_entry(model3, es4, IK_D, 8) == ">= 100"
    m4 = model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=1.0,
                    beta_ratio=1.0, kappa=1.0)
    assert table_entry(m4, es4, IK_D, 4) == 4


@pytest.mark.parametrize("slope,entry", [(1 / 3, 3), (1 / 2.5, 3),
                                         (0.0, ">= 100")])
def test_table_entry_rounding_from_one_scan(monkeypatch, slope, entry):
    """rho = slope * C: a boundary on an integer is kept, others round up."""
    monkeypatch.setattr(stability, "rho_curve",
                        lambda model, method, interp, M, C: slope * C)
    model = model_2dof(alpha=10.0, kappa=0.9e-2)
    assert table_entry(model, get_method("erk4"), IK_H, 4) == entry


@pytest.mark.parametrize("kw,match", [
    ({"M": 0}, "M must"), ({"M": -1}, "M must"), ({"M": 2.5}, "M must"),
    ({"M": True}, "M must"),
    ({"C_max": float("nan")}, "C_max must"), ({"C_max": 0.5}, "C_max must"),
], ids=["M0", "M-1", "M2.5", "Mtrue", "Cmax-nan", "Cmax-0.5"])
def test_bad_scan_inputs_raise_value_error(kw, match):
    """An M that is not an integer >= 1 and a C_max that is not finite and
    >= 1 raise ValueError in every scan entry point."""
    model = model_2dof(alpha=10.0, kappa=0.009)
    m = get_method("erk4")
    args = dict({"M": 4, "C_max": 10.0}, **kw)
    for scan in (table_entry, scan_cell):
        with pytest.raises(ValueError, match=match):
            scan(model, m, IK_H, args["M"], C_max=args["C_max"])
    if "M" in kw:
        with pytest.raises(ValueError, match=match):
            rho_curve(model, m, IK_H, kw["M"], np.array([1.0]))


def test_stable_sentinel_names_the_last_scanned_point():
    """With a non-integer C_max the scan stops at floor(C_max), and so
    does the sentinel: this cell is unstable at C = 2.9, between the last
    scanned point and C_max."""
    model = model_2dof(alpha=1.0, kappa=0.9e-5)
    m = get_method("erk4")
    C_grid, rho, entry = scan_cell(model, m, IK_H, 2, C_max=2.95)
    assert C_grid.tolist() == [1.0, 2.0]
    assert np.all(rho <= 1.0 + stability.RHO_TOL)
    assert entry == ">= 2"
    assert table_entry(model, m, IK_H, 2, C_max=2.95) == ">= 2"
    assert rho_curve(model, m, IK_H, 2, np.array([2.9]))[0] > 1.1


def test_table_entry_is_first_unstable_boundary():
    m = get_method("erk4")
    model = model_2dof(alpha=10.0, kappa=0.9e-2)
    entry = table_entry(model, m, IK_H, 4)
    assert isinstance(entry, int) and entry > 1
    rho = rho_curve(model, m, IK_H, 4, np.arange(1.0, entry + 1.0))
    assert np.all(rho[:-1] <= 1 + 1e-8)
    assert rho[-1] > 1 + 1e-8


def test_propagator_error_single_rate_converges():
    model = model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=50.0,
                       beta_ratio=1.0, kappa=1e-3)
    m = get_method("erk4")
    e1, _ = propagator_errors(model, m, IK_H, 1, 0.01, 10)
    assert e1 < 1e-8
    e2, _ = propagator_errors(model, m, IK_H, 1, 0.02, 5)
    assert np.isfinite(e2)


def test_propagator_error_multirate_smaller_C_smaller_error():
    model = model_2dof(alpha=10.0, kappa=0.01)
    m = get_method("esdirk3")
    errs = [propagator_errors(model, m, IK_D, 4, C, 10)[1]
            for C in (0.05, 0.025)]
    assert errs[1] < errs[0]


@pytest.mark.parametrize("M,steps,match", [
    (2.5, 10, "M must"), (True, 10, "M must"), (0, 10, "M must"),
    (4, 0, "steps must"), (4, 2.5, "steps must"), (4, True, "steps must"),
], ids=["M2.5", "Mtrue", "M0", "steps0", "steps2.5", "stepstrue"])
def test_bad_counts_raise_value_error(M, steps, match):
    """M and the step count must be integers >= 1, bools excluded, in the
    propagator errors and, for M, the amplification matrix."""
    model = model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=50.0,
                       beta_ratio=1.0, kappa=1e-3)
    m = get_method("erk4")
    with pytest.raises(ValueError, match=match):
        propagator_errors(model, m, IK_H, M, 0.01, steps)
    if steps == 10:
        with pytest.raises(ValueError, match=match):
            multirate_R(model, 0.01 / model.Lam, M, m, IK_H)


@pytest.mark.parametrize("C", [np.nan, np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_propagator_errors_reject_non_positive_or_non_finite_C(C):
    """Unchecked, C = nan would reach a LinAlgError, C = -1 a backward
    propagator and C = 0 a pair of zero errors."""
    model = model_2dof(alpha=10.0, kappa=0.01)
    with pytest.raises(ValueError, match="C must be finite and positive"):
        propagator_errors(model, get_method("erk4"), IK_H, 4, C, 10)


@pytest.mark.parametrize("M", [32, 128])
@pytest.mark.parametrize("case", ["esdirk4-dense-4dof", "erk4-hermite-2dof"])
def test_rho_curve_matches_brute_force_at_table_scale(case, M):
    """The kernel, its sub-steps summed in the power basis, against the
    per-C columnwise oracle on a batch of 14 step sizes, at the largest M
    of the published tables."""
    if case == "esdirk4-dense-4dof":
        model = model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=10.0,
                           beta_ratio=1.0, kappa=0.1)
        m, kind = get_method("esdirk4"), "dense"
    else:
        model = model_2dof(alpha=10.0, kappa=0.9e-2)
        m, kind = get_method("erk4"), "hermite"
    Cs = np.linspace(0.5, 100.0, 14)       # both stable and unstable C
    rhos = rho_curve(model, m, InterpolatorKind(kind), M, Cs)
    assert rhos.min() < 1.0 < rhos.max()
    for C, r in zip(Cs, rhos):
        R_ref = _oracles.brute_force_multirate_R(
            model.L, model.d, C / model.Lam, M, m, kind)
        assert r == pytest.approx(np.abs(np.linalg.eigvals(R_ref)).max(),
                                  rel=1e-9)


def test_multirate_R_singular_fast_stage_factor_names_stage():
    """esdirk4 has a_kk = 1/4 from stage 2 on; with h_s = 1 and M = 2 the
    fast factor 1 - (1/2)(1/4) L_ff vanishes exactly for L_ff = 8, while
    the full-step factor I - (1/4) L stays regular."""
    m = get_method("esdirk4")
    assert m.A[1, 1] == 0.25
    model = PartitionedLinearModel(np.diag([-1.0, 8.0]), d=1)
    with pytest.raises(np.linalg.LinAlgError, match="fast stage factor at stage 2"):
        multirate_R(model, 1.0, 2, m, IK_D)


def test_scan_cell_matches_scan_records_and_table_entry():
    model = model_2dof(alpha=10.0, kappa=0.9e-2)
    m = get_method("erk4")
    C_grid, rho, entry = scan_cell(model, m, IK_H, 4, C_max=30.0)
    grid = np.arange(1.0, 31.0)
    assert C_grid.tobytes() == grid.tobytes()
    assert rho.tobytes() == rho_curve(model, m, IK_H, 4, grid).tobytes()
    assert entry == table_entry(model, m, IK_H, 4, C_max=30.0)
    assert scan_cell(model, m, IK_H, 4, C_max=5.0)[2] == ">= 5"


@pytest.mark.parametrize("name,kind", [("erk4", "hermite"),
                                       ("erk4", "linear"),
                                       ("esdirk4", "dense")])
def test_kind_string_gives_the_bits_of_its_kind(name, kind):
    """A kind given by its name gives the same bits as its
    `InterpolatorKind` in `table_entry`, `rho_curve` and `multirate_R`."""
    m, ik = get_method(name), InterpolatorKind(kind)
    model = model_2dof(alpha=10.0, kappa=0.1)
    grid = np.arange(1.0, 13.0)
    assert table_entry(model, m, kind, 2) == table_entry(model, m, ik, 2)
    assert (rho_curve(model, m, kind, 4, grid).tobytes()
            == rho_curve(model, m, ik, 4, grid).tobytes())
    h_s = 0.5 / model.Lam
    assert (multirate_R(model, h_s, 3, m, kind).tobytes()
            == multirate_R(model, h_s, 3, m, ik).tobytes())


@pytest.mark.parametrize("call", ["table_entry", "rho_curve", "multirate_R"])
def test_unknown_kind_string_raises_value_error(call):
    model = model_2dof(alpha=10.0, kappa=0.1)
    m = get_method("erk4")
    args = {"table_entry": (model, m, "cubic", 2),
            "rho_curve": (model, m, "cubic", 2, np.array([1.0])),
            "multirate_R": (model, 0.1, 2, m, "cubic")}[call]
    with pytest.raises(ValueError, match="unknown interpolation kind"):
        getattr(stability, call)(*args)


def _eig_radii(R):
    return np.max(np.abs(np.linalg.eigvals(R)), axis=-1)


def _similar(rng, D):
    """A stack S D S^-1, S a random rotation times diag(1, g), g in
    [1/2, 2], so that S has condition number at most 2."""
    phi = rng.uniform(0.0, 2.0 * np.pi, len(D))
    g = 2.0 ** rng.uniform(-1.0, 1.0, len(D))
    S = np.stack([np.cos(phi), -g * np.sin(phi), np.sin(phi),
                  g * np.cos(phi)], axis=-1).reshape(-1, 2, 2)
    return S @ D @ np.linalg.inv(S)


def test_closed_form_2x2_radii_equal_eigvals():
    """The 2 x 2 closed form against LAPACK on seeded random stacks, real
    distinct and complex pairs, diagonal matrices and entries scaled by
    1e+-150, to 1e-12 relative; a Jordan block (a double root) to
    sqrt(eps), the sensitivity that both forms have there."""
    rng = np.random.default_rng(11)
    lam = rng.uniform(-3.0, 3.0, (500, 2))
    re, im = rng.uniform(-2.0, 2.0, (2, 500))
    stacks = {
        "random": rng.standard_normal((20000, 2, 2)),
        "real": _similar(rng, lam[:, :, None] * np.eye(2)),
        "complex": _similar(rng, re[:, None, None] * np.eye(2)
                            + im[:, None, None] * np.array([[0.0, -1.0],
                                                            [1.0, 0.0]])),
        "diagonal": lam[:, :, None] * np.eye(2),
    }
    for scale in (1e150, 1e-150):
        stacks[f"x{scale:g}"] = scale * stacks["random"][:2000]
    for name, R in stacks.items():
        np.testing.assert_allclose(_linops.spectral_radii(R), _eig_radii(R),
                                   rtol=1e-12, atol=0, err_msg=name)
    jordan = np.array([[[-0.7, 1.0], [0.0, -0.7]], [[2.0, 0.0], [5.0, 2.0]]])
    np.testing.assert_allclose(_linops.spectral_radii(jordan), [0.7, 2.0],
                               rtol=np.sqrt(np.finfo(float).eps))
    assert not _linops.spectral_radii(np.zeros((3, 2, 2))).any()


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e-170])
def test_closed_form_2x2_radii_at_extreme_scales(scale):
    """Where q*q or b*c would overflow or underflow, the radius is still
    LAPACK's, finite and without a warning: a rotation-like pair at
    1e-170 has radius 1e-170, not the 0 of its underflowed products."""
    rng = np.random.default_rng(12)
    R = scale * np.concatenate([rng.standard_normal((50, 2, 2)),
                                [[[0.0, 1.0], [-1.0, 0.0]]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _linops.spectral_radii(R)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, _eig_radii(R), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_stack_raises_as_eigvals_does(n, bad):
    R = np.tile(np.eye(n), (5, 1, 1))
    R[3, 0, 1] = bad
    with pytest.raises(np.linalg.LinAlgError,
                       match="^Array must not contain infs or NaNs$"):
        _linops.spectral_radii(R)


def test_rho_curve_at_an_overflowing_step_raises():
    """At C = 1e300 the step matrix holds infs and NaNs, and the scan
    raises rather than read a NaN radius as stable."""
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
        rho_curve(model_2dof(10, 0.1), get_method("erk4"), IK_H, 2,
                  np.array([1e300, 3.0]))


def test_substep_weights_are_read_only():
    W, x = _linops._substep_weights((0.0, 0.5, 1.0), 3, 4)
    for arr in (W, x):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


@pytest.mark.parametrize("kind", ["linear", "hermite", "dense"])
@pytest.mark.parametrize("M", [1, 2, 5, 64, 128])
def test_multirate_matrix_with_kept_weights_equals_a_fresh_build(
        monkeypatch, kind, M):
    """The kernel with its weights taken from the memo, on a second call,
    gives the bits of the kernel with weights built afresh by the memo's
    uncached function."""
    m = get_method("esdirk4")
    for model in (model_2dof(alpha=20.0, kappa=0.05),
                  model_4dof(omega1=1.0, gamma1=0.01, alpha_ratio=10.0,
                             beta_ratio=1.0, kappa=0.1)):
        h = np.linspace(0.5, 60.0, 9) / model.Lam
        L = np.broadcast_to(model.L, (len(h),) + model.L.shape)
        args = (L, model.d, h, M, m, InterpolatorKind(kind))
        _linops.multirate_matrix(*args)
        kept = _linops.multirate_matrix(*args)
        with monkeypatch.context() as mp:
            mp.setattr(_linops, "_substep_weights",
                       _linops._substep_weights.__wrapped__)
            fresh = _linops.multirate_matrix(*args)
        assert kept.tobytes() == fresh.tobytes()
