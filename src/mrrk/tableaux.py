"""Registry of Runge-Kutta methods and their coefficients.

Each method is described by a Butcher tableau (A, b, c, optional embedded
weights b_hat) plus, where available, the coefficient matrix B* of the
associated continuous output (dense output) interpolant

    u(t_n + tau*h) = u_n + h * sum_i b*_i(tau) * K_i,
    b*_i(tau) = sum_j B*[i, j] * tau**(j+1).

B* is kept as the plain array ``ButcherTableau.dense``.  It has no
constant term, so every b*_i(0) = 0 and the interpolant reproduces u_n at
the left endpoint.  `interp.slow_interpolant` is its one evaluator, for
the integrator and for the stability analysis alike.

Coefficients are evaluated in exact rational or closed-form arithmetic at
module import and stored as doubles, which avoids transcription errors on
the long rational coefficients of the ESDIRK methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ButcherTableau",
    "MethodNotFound",
    "get_method",
    "method_names",
]


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    A: np.ndarray          # (s, s)
    b: np.ndarray          # (s,)
    c: np.ndarray          # (s,)
    p: int
    kind: str              # "explicit" | "dirk" | "esdirk"
    b_hat: np.ndarray | None = None
    p_hat: int | None = None
    # B*, shape (s, p*), p* the degree in tau; None without dense output.
    dense: np.ndarray | None = None

    @property
    def s(self) -> int:
        return len(self.b)

    @property
    def q(self) -> int:
        """Order governing step-size control: min(p, p_hat).

        Methods without an embedded pair use step doubling for error
        estimation, whose estimate carries the full order p; we therefore
        take q = p in that case.
        """
        if self.p_hat is None:
            return self.p
        return min(self.p, self.p_hat)

    @property
    def is_explicit(self) -> bool:
        return self.kind == "explicit"

    @property
    def explicit_first_stage(self) -> bool:
        return self.kind in ("explicit", "esdirk")


class MethodNotFound(KeyError):
    pass


def _frac_matrix(rows):
    return np.array([[float(Fraction(x)) for x in row] for row in rows])


# ----------------------------------------------------------------------------
# erk4: the classical four-stage fourth-order explicit method.  No embedded
# pair and no dense output; adaptive use relies on step doubling and cubic
# Hermite interpolation.
# ----------------------------------------------------------------------------

def _make_erk4() -> ButcherTableau:
    A = _frac_matrix([
        ["0", "0", "0", "0"],
        ["1/2", "0", "0", "0"],
        ["0", "1/2", "0", "0"],
        ["0", "0", "1", "0"],
    ])
    b = np.array([1 / 6, 2 / 6, 2 / 6, 1 / 6])
    c = np.array([0.0, 0.5, 0.5, 1.0])
    return ButcherTableau("erk4", A, b, c, p=4, kind="explicit")


# ----------------------------------------------------------------------------
# erk4-owren: the six-stage fourth-order explicit method with an optimal
# degree-4 continuous extension (Owren and Zennaro, 1992).  The b weights are
# the endpoint values b*(1) of the continuous extension, which satisfy all
# eight order-4 conditions exactly.
# ----------------------------------------------------------------------------

def _make_owren() -> ButcherTableau:
    A_rows = [
        ["0", "0", "0", "0", "0", "0"],
        ["1/6", "0", "0", "0", "0", "0"],
        ["44/1369", "363/1369", "0", "0", "0", "0"],
        ["3388/4913", "-8349/4913", "8140/4913", "0", "0", "0"],
        ["-36764/408375", "767/1125", "-32708/136125", "210392/408375", "0", "0"],
        ["1697/18876", "0", "50653/116160", "299693/1626240", "3375/11648", "0"],
    ]
    A = _frac_matrix(A_rows)
    B_rows = [
        ["1", "-104217/37466", "1806901/618189", "-866577/824252"],
        ["0", "0", "0", "0"],
        ["0", "861101/230560", "-2178079/380424", "12308679/5072320"],
        ["0", "-63869/293440", "6244423/5325936", "-7816583/10144640"],
        ["0", "-1522125/762944", "982125/190736", "-624375/217984"],
        ["0", "165/131", "-461/131", "296/131"],
    ]
    dense = _frac_matrix(B_rows)
    # Endpoint weights in exact arithmetic; the continuous extension at
    # tau = 1 is the discrete fourth-order method.
    b = np.array([
        float(sum(Fraction(x) for x in row)) for row in B_rows
    ])
    c = np.array([float(Fraction(x)) for x in
                  ["0", "1/6", "11/37", "11/17", "13/15", "1"]])
    return ButcherTableau("erk4-owren", A, b, c, p=4, kind="explicit",
                          dense=dense)


# ----------------------------------------------------------------------------
# esdirk3: ESDIRK, 4 stages, order 3, stiffly accurate, L-stable, with an
# embedded order-2 pair and a degree-3 continuous output.
# ----------------------------------------------------------------------------

def _make_esdirk3() -> ButcherTableau:
    g = Fraction(43586652150845899941601945, 10**26)
    c3 = Fraction(3, 5)
    a32 = c3 * (c3 - 2 * g) / (4 * g)
    a31 = c3 - a32 - g
    b2 = (-2 + 3 * c3 + 6 * g * (1 - c3)) / (12 * g * (c3 - 2 * g))
    abar = 1 - 6 * g + 6 * g * g
    b3 = abar / (3 * c3 * (c3 - 2 * g))
    b1 = 1 - b2 - b3 - g
    A = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [float(g), float(g), 0.0, 0.0],
        [float(a31), float(a32), float(g), 0.0],
        [float(b1), float(b2), float(b3), float(g)],
    ])
    b = A[3].copy()
    c = np.array([0.0, float(2 * g), float(c3), 1.0])
    # Continuous output coefficients.  The sign of the tau^2 coefficient in
    # row 3 is chosen so that b*(1) = b holds (endpoint consistency), which
    # also makes the tau^2 column sum vanish like the other columns.
    B_rows = [
        ["6071615849858/5506968783323", "-9135504192562/5563158936341",
         "5884850621193/8091909798020"],
        ["24823866123060/14064067831369", "-184358657789355/34679930461469",
         "40093531604824/13565043189019"],
        ["-4639021340861/5641321412596", "36951656213070/8103384546449",
         "-9445293799577/3414897167914"],
        ["-4782987747279/4575882152666", "22547150295437/9402010570133",
         "-8621837051676/9402290144509"],
    ]
    dense = _frac_matrix(B_rows)
    b_hat = _embedded_weights(A, b, c, p_hat=2)
    return ButcherTableau("esdirk3", A, b, c, p=3, kind="esdirk",
                          b_hat=b_hat, p_hat=2, dense=dense)


# ----------------------------------------------------------------------------
# esdirk4: ESDIRK, 6 stages, order 4, stiffly accurate, L-stable, with an
# embedded order-3 pair and a degree-4 continuous output.
# ----------------------------------------------------------------------------

def _make_esdirk4() -> ButcherTableau:
    # Closed forms in the field Q(sqrt(2)), evaluated via (p, q) -> p + q*r2.
    r2 = math.sqrt(2.0)

    def q2(p, q):
        return float(p) + float(q) * r2

    g = 0.25
    c3 = q2(Fraction(2, 4), Fraction(-1, 4))
    c4 = 5 / 8
    c5 = 26 / 25
    a32 = q2(Fraction(1, 8), Fraction(-1, 8))
    a31 = c3 - a32 - g
    a42 = q2(Fraction(5, 64), Fraction(-7, 64))
    a43 = q2(Fraction(7, 32), Fraction(7, 32))
    a41 = c4 - a42 - a43 - g
    a52 = q2(Fraction(-13796, 125000), Fraction(-54539, 125000))
    a53 = q2(Fraction(506605, 437500), Fraction(132109, 437500))
    a54 = q2(Fraction(-97 * 166, 109375), Fraction(376 * 166, 109375))
    a51 = c5 - a52 - a53 - a54 - g
    b2 = q2(Fraction(1181, 13782), Fraction(-987, 13782))
    b3 = q2(Fraction(-267 * 47, 273343), Fraction(1783 * 47, 273343))
    b4 = q2(Fraction(22922 * 16, 571953), Fraction(-3525 * 16, 571953))
    b5 = q2(Fraction(-97 * 15625, 90749876), Fraction(-376 * 15625, 90749876))
    b1 = 1 - b2 - b3 - b4 - b5 - g
    A = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [g, g, 0.0, 0.0, 0.0, 0.0],
        [a31, a32, g, 0.0, 0.0, 0.0],
        [a41, a42, a43, g, 0.0, 0.0],
        [a51, a52, a53, a54, g, 0.0],
        [b1, b2, b3, b4, b5, g],
    ])
    b = A[5].copy()
    c = np.array([0.0, 0.5, c3, c4, c5, 1.0])
    B_rows = [
        ["11963910384665/12483345430363", "-69996760330788/18526599551455",
         "32473635429419/7030701510665", "-14668528638623/8083464301755"],
        ["11963910384665/12483345430363", "-69996760330788/18526599551455",
         "32473635429419/7030701510665", "-14668528638623/8083464301755"],
        ["-28603264624/1970169629981", "102610171905103/26266659717953",
         "-38866317253841/6249835826165", "21103455885091/7774428730952"],
        ["-3524425447183/2683177070205", "74957623907620/12279805097313",
         "-26705717223886/4265677133337", "30155591475533/15293695940061"],
        ["-17173522440186/10195024317061", "113853199235633/9983266320290",
         "-121105382143155/6658412667527", "119853375102088/14336240079991"],
        ["27308879169709/13030500014233", "-84229392543950/6077740599399",
         "1102028547503824/51424476870755", "-63602213973224/6753880425717"],
    ]
    dense = _frac_matrix(B_rows)
    b_hat = _embedded_weights(A, b, c, p_hat=3)
    return ButcherTableau("esdirk4", A, b, c, p=4, kind="esdirk",
                          b_hat=b_hat, p_hat=3, dense=dense)


def _embedded_weights(A, b, c, p_hat):
    """Construct embedded weights of order exactly ``p_hat``.

    The weight vector solves the order conditions up to p_hat and is chosen
    as b + t*v where v is the null-space direction of the condition matrix
    that maximally violates the next-order quadrature condition; the offset
    is scaled so the violation of sum(bhat * c**p_hat) is 0.05.  This keeps
    the error estimator asymptotically proportional to h**(p_hat+1) with a
    well-conditioned leading constant.
    """
    s = len(b)
    rows = [np.ones(s)]
    for k in range(1, p_hat):
        rows.append(c**k)
    # bushy-tree condition b.A.c = 1/6 enters at order 3
    if p_hat >= 3:
        rows.append(A @ c)
    M = np.vstack(rows)
    # Null space of the condition matrix.
    _, sv, Vt = np.linalg.svd(M)
    null = Vt[np.sum(sv > 1e-12):]
    # Direction maximizing the violation of the order-(p_hat+1) quadrature
    # condition sum(w * c**p_hat).
    target = null @ (c**p_hat)
    if np.allclose(target, 0.0):
        raise ValueError("cannot construct embedded weights: degenerate c")
    v = null.T @ target
    v /= np.linalg.norm(v)
    scale = 0.05 / abs(v @ (c**p_hat))
    return b + scale * v


_REGISTRY: dict[str, ButcherTableau] = {}


def _build_registry():
    for t in (_make_erk4(), _make_owren(), _make_esdirk3(), _make_esdirk4()):
        _REGISTRY[t.name] = t


_build_registry()


def method_names() -> list[str]:
    return sorted(_REGISTRY)


def get_method(name: str) -> ButcherTableau:
    """Look up a registered method by identifier."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MethodNotFound(
            f"unknown method {name!r}; registered methods: "
            f"{', '.join(method_names())}"
        ) from None
