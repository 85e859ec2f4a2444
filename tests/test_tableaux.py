import numpy as np
import pytest

from mrrk.tableaux import MethodNotFound, get_method, method_names

from _oracles import dense_weights

ALL = ["erk4", "erk4-owren", "esdirk3", "esdirk4"]

# Embedded weights derived from the order conditions (null-space
# construction, first violated condition scaled to residual 0.05); frozen
# here so silent regressions of the derivation are caught.
FROZEN_B_HAT = {
    "esdirk3": [0.26994361881083695, -0.6130411112315401,
                0.7717232475808995, 0.5713742448398037],
    "esdirk4": [-0.4899382538140986, 0.11015151752118733,
                1.0837968440702763, 0.04190331417681287,
                0.14824296833185704, 0.1058436097139645],
}


def order_condition_residuals(A, b, c, p):
    """Residuals of the rooted-tree order conditions up to order p <= 4."""
    res = [b.sum() - 1.0]
    if p >= 2:
        res.append(b @ c - 1 / 2)
    if p >= 3:
        res.append(b @ c**2 - 1 / 3)
        res.append(b @ (A @ c) - 1 / 6)
    if p >= 4:
        res.append(b @ c**3 - 1 / 4)
        res.append((b * c) @ (A @ c) - 1 / 8)
        res.append(b @ (A @ c**2) - 1 / 12)
        res.append(b @ (A @ (A @ c)) - 1 / 24)
    return np.array(res)


def test_registry_names_sorted_and_complete():
    assert method_names() == sorted(ALL)


def test_unknown_method_raises():
    with pytest.raises(MethodNotFound):
        get_method("rk45")


@pytest.mark.parametrize("name", ALL)
def test_order_conditions(name):
    m = get_method(name)
    res = order_condition_residuals(m.A, m.b, m.c, m.p)
    assert np.max(np.abs(res)) < 1e-12


@pytest.mark.parametrize("name", ALL)
def test_row_sum_consistency(name):
    m = get_method(name)
    np.testing.assert_allclose(m.A.sum(axis=1), m.c, rtol=0, atol=1e-14)


def test_structural_properties():
    erk4 = get_method("erk4")
    assert erk4.is_explicit and erk4.s == 4 and erk4.b_hat is None
    assert erk4.q == 4
    owren = get_method("erk4-owren")
    assert owren.is_explicit and owren.s == 6 and owren.dense is not None
    for m in (erk4, owren):
        assert m.explicit_first_stage
        assert np.all(np.triu(m.A) == 0.0)          # strictly lower
    es3 = get_method("esdirk3")
    es4 = get_method("esdirk4")
    for m in (es3, es4):
        assert not m.is_explicit
        assert m.explicit_first_stage and m.A[0, 0] == 0.0
        assert np.all(np.triu(m.A, 1) == 0.0)       # lower triangular
        diag = np.diag(m.A)[1:]
        assert np.all(diag == m.A[-1, -1])
    for m in (owren, es3, es4):
        assert m.dense.shape[0] == m.s
    assert abs(es3.A[-1, -1] - 0.43586652150845899941601945) < 1e-16
    assert es4.A[-1, -1] == 0.25
    assert es3.q == 2 and es4.q == 3


@pytest.mark.parametrize("name", ["esdirk3", "esdirk4"])
def test_frozen_embedded_weights(name):
    m = get_method(name)
    assert m.b_hat is not None
    np.testing.assert_allclose(m.b_hat, FROZEN_B_HAT[name], rtol=0,
                               atol=1e-14)
    # Order p_hat, not order p_hat + 1.
    res = order_condition_residuals(m.A, m.b_hat, m.c, m.p_hat)
    assert np.max(np.abs(res)) < 1e-12
    viol = order_condition_residuals(m.A, m.b_hat, m.c, m.p_hat + 1)
    assert np.max(np.abs(viol)) > 1e-3


@pytest.mark.parametrize("name", ["erk4-owren", "esdirk3", "esdirk4"])
def test_dense_output_endpoint_consistent(name):
    m = get_method(name)
    # b*(1), the sum of each row of B*, is b.
    np.testing.assert_allclose(m.dense.sum(axis=1), m.b, rtol=0,
                               atol=1e-13)
    # b*(0) = 0 by construction (no constant polynomial term).
    assert np.all(dense_weights(m, 0.0) == 0.0)


@pytest.mark.parametrize("name", ["erk4-owren", "esdirk3", "esdirk4"])
def test_dense_output_interior_order_conditions(name):
    """The continuous extension satisfies the tau-dependent conditions
    sum_i b*_i(tau) c_i^(k-1) = tau^k / k for k = 1..3 at interior points."""
    m = get_method(name)
    taus = np.linspace(0.0, 1.0, 9)
    W = np.array([dense_weights(m, t) for t in taus])
    for k in (1, 2, 3):
        lhs = W @ m.c ** (k - 1)
        np.testing.assert_allclose(lhs, taus**k / k, atol=1e-12)

