"""Benchmark problems: inverter chain, viscous Burgers, building heating.

Each factory returns an `OdeProblem` with vectorized RHS, analytic
Jacobians, restricted Jacobians and per-component dependency sets.  The
banded Jacobians of the inverter chain and Burgers are filled straight
into a `scipy.sparse.dia_array`, whose band the stage solver reads
directly, with no CSR in between; heating's is dense.  The inverter chain
and Burgers also evaluate the RHS over an ascending index subset, writing
the subset's values compactly, in index order, and place the couplings of
their restricted Jacobians from adjacent positions of that subset; heating
has none, so its fast phase takes entries of the full RHS, which is
cheaper than classifying the index set on every call.  Burgers does so in
one vector expression.
The inverter chain's fast sets hold a few stages, where numpy's per-call
cost outweighs the arithmetic, so its two restricted hooks read the
subset's states as Python floats and loop over them, with the full RHS's
operations in the same order, so every value and Jacobian entry is the
full one's bit for bit.  They share a one-entry plan, keyed on the bytes
of the index array, that holds ``idx - 1``, whether index 0 (which reads
the input) is in the set, and which positions couple to the one before.
A fast sub-run passes one index array for its whole span, so each sub-run
builds the plan once; keying on the bytes, not the array, keeps it right
for an array that changes in place between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .odecore import OdeProblem, check_count, check_real


# ---------------------------------------------------------------------------
# Inverter chain


@dataclass(frozen=True)
class InverterChainParams:
    """Chain of N inverters driven by a piecewise-linear input pulse.

    Construction raises ValueError unless N is an integer >= 2, U_op is
    finite and U_op > U_tau > 0, and Gamma is finite and positive.
    """

    N: int = 1000
    U_op: float = 5.0
    U_tau: float = 1.0
    Gamma: float = 500.0
    # Input breakpoints: one or more (t, value) pairs of finite numbers,
    # t non-decreasing; linear between them and zero outside them.
    breakpoints: tuple = ((0.0, 0.0), (5.0, 0.0), (10.0, 5.0),
                          (15.0, 5.0), (20.0, 0.0))
    t_span: tuple = (0.0, 200.0)

    def __post_init__(self):
        check_count("N", self.N, minimum=2)
        check_real("U_op", self.U_op)
        if not self.U_op > self.U_tau > 0:
            raise ValueError("require U_op > U_tau > 0")
        check_real("Gamma", self.Gamma)


def inverter_g(y, z, U_tau):
    """Conductance term max(y - U_tau, 0)^2 - max(y - z - U_tau, 0)^2."""
    a = np.maximum(y - U_tau, 0.0)
    b = np.maximum(y - z - U_tau, 0.0)
    return a * a - b * b


def _input_fn(params: InverterChainParams):
    """The input voltage as a function of t, breakpoints converted once;
    raises ValueError on breakpoints `np.interp` would misread silently."""
    pts = np.asarray(params.breakpoints, dtype=float)
    # On Python floats: for a few pairs a numpy reduction costs more.
    flat = pts.ravel().tolist() if pts.ndim == 2 and pts.shape[1] == 2 else []
    if not (flat and all(map(math.isfinite, flat))
            and all(a <= b for a, b in zip(flat[::2], flat[2::2]))):
        raise ValueError("breakpoints must be one or more (t, value) pairs "
                         "of finite numbers with non-decreasing t")
    times, values = pts[:, 0].copy(), pts[:, 1].copy()

    def u(t):
        return np.interp(t, times, values, left=0.0, right=0.0)
    return u


def make_inverter_chain(
        params: InverterChainParams | None = None) -> OdeProblem:
    if params is None:
        params = InverterChainParams()
    p = params
    N, U_op, U_tau, G = p.N, p.U_op, p.U_tau, p.Gamma
    u_in = _input_fn(p)

    def rhs(y, t, out):
        u = u_in(t)
        out[0] = U_op - y[0] - G * inverter_g(u, y[0], U_tau)
        out[1:] = U_op - y[1:] - G * inverter_g(y[:-1], y[1:], U_tau)

    # The restricted hooks' plan for the last index set seen (see the
    # module docstring): (index bytes, idx - 1, whether idx holds 0, and
    # per position after the first whether it couples to the one before).
    plan = [None]

    def _restricted(y, t, indices):
        """The set's stage values as Python floats, the two max terms of
        g(y_prev, y_cur) per stage, and the plan's coupling flags."""
        idx = np.asarray(indices, dtype=np.intp)
        key = idx.tobytes()
        if plan[0] is None or plan[0][0] != key:
            # Ascending indices: index 0, which reads the input, can only
            # come first, and stage idx[a + 1] reads idx[a] when adjacent.
            plan[0] = (key, idx - 1, bool(idx[0] == 0),
                       (idx[1:] == idx[:-1] + 1).tolist())
        _, prev, has0, coupled = plan[0]
        ycur, yprev = y[idx].tolist(), y[prev].tolist()
        if has0:
            yprev[0] = float(u_in(t))
        terms = []
        for c, p in zip(ycur, yprev):
            a = p - U_tau
            b = p - c - U_tau
            # max(x, 0.0) without the call: it keeps a NaN x, and x when
            # x == 0.0, as np.maximum does, so the hooks' values are the
            # full RHS's and Jacobian's bit for bit.
            terms.append((0.0 if a < 0.0 else a, 0.0 if b < 0.0 else b))
        return ycur, terms, coupled

    def rhs_restricted(y, t, indices, out):
        ycur, terms, _ = _restricted(y, t, indices)
        out[:] = [U_op - c - G * (a * a - b * b)
                  for c, (a, b) in zip(ycur, terms)]

    def _dg(yprev, ycur):
        # Partial derivatives of g(y_prev, y_cur).
        a = np.maximum(yprev - U_tau, 0.0)
        b = np.maximum(yprev - ycur - U_tau, 0.0)
        return 2.0 * a - 2.0 * b, 2.0 * b      # d/dy_prev, d/dy_cur

    def jacobian(y, t):
        # DIA rows for offsets 0 and -1: band[1, j] is J[j + 1, j], and
        # band[1, N - 1] lies outside the matrix.
        band = np.empty((2, N))
        # Row 0 reads the input; d/dy_cur of g is 2 max(u - y_0 - U_tau, 0).
        b0 = max(u_in(t) - y[0] - U_tau, 0.0)
        band[0, 0] = -1.0 - G * (2.0 * b0)
        gy, gz = _dg(y[:-1], y[1:])
        # band[0, 1:] = -1 - G gz and band[1, :-1] = -G gy, in place.
        diag, sub = band[0, 1:], band[1, :-1]
        np.subtract(-1.0, np.multiply(G, gz, out=diag), out=diag)
        np.multiply(-G, gy, out=sub)
        band[1, -1] = 0.0
        return sp.dia_array((band, [0, -1]), shape=(N, N))

    def jacobian_restricted(y, t, indices):
        _, terms, coupled = _restricted(y, t, indices)
        k = len(terms)
        J = np.zeros((k, k))
        flat = J.reshape(-1)
        flat[::k + 1] = [-1.0 - G * (2.0 * b) for _, b in terms]
        # The couplings J[i, i - 1].  0.0 - x, not -x: a zero coupling is
        # +0.0, as in the full Jacobian, whose sparse form drops it.
        flat[k::k + 1] = [0.0 - G * (2.0 * a - 2.0 * b) if on else 0.0
                          for (a, b), on in zip(terms[1:], coupled)]
        return J

    def dependency(i):
        return (0,) if i == 0 else (i - 1, i)

    y0 = np.where(np.arange(1, N + 1) % 2 == 0, 6.247e-3, 1.0)
    return OdeProblem(N=N, rhs=rhs, rhs_restricted=rhs_restricted,
                      jacobian=jacobian,
                      jacobian_restricted=jacobian_restricted,
                      dependency=dependency, t_span=p.t_span, y0=y0,
                      name="inverter")


# ---------------------------------------------------------------------------
# Viscous Burgers equation


@dataclass(frozen=True)
class BurgersParams:
    """Centered finite differences on [0, L_dom] with frozen boundaries.

    Construction raises ValueError unless N is an integer >= 3, nu is
    finite and nonnegative, and L_dom is finite and positive.
    """

    N: int = 1000
    nu: float = 1e-2
    L_dom: float = 25.0
    t_span: tuple = (0.0, 5.0)

    def __post_init__(self):
        check_count("N", self.N, minimum=3)
        check_real("nu", self.nu, positive=False)
        check_real("L_dom", self.L_dom)


def burgers_initial(params: BurgersParams) -> np.ndarray:
    x = np.linspace(0.0, params.L_dom, params.N)
    w = params.L_dom / 50.0
    return np.exp(-((x - params.L_dom / 2.0) / w) ** 2)


def make_burgers(params: BurgersParams | None = None) -> OdeProblem:
    if params is None:
        params = BurgersParams()
    p = params
    N, nu = p.N, p.nu
    dx = p.L_dom / (N - 1)
    c1 = 1.0 / (2.0 * dx)
    c2 = nu / dx**2

    def rhs(y, t, out):
        out[0] = 0.0
        out[-1] = 0.0
        out[1:-1] = (-y[1:-1] * (y[2:] - y[:-2]) * c1
                     + c2 * (y[2:] - 2.0 * y[1:-1] + y[:-2]))

    def rhs_restricted(y, t, indices, out):
        # Ascending indices: the frozen boundaries can only come first and
        # last, where the stencil's clipped neighbours are overwritten.
        idx = np.asarray(indices)
        yl, yc, yr = y[idx - 1], y[idx], y.take(idx + 1, mode="clip")
        np.add(-yc * (yr - yl) * c1, c2 * (yr - 2.0 * yc + yl), out=out)
        if idx[0] == 0:
            out[0] = 0.0
        if idx[-1] == N - 1:
            out[-1] = 0.0

    def jacobian(y, t):
        # DIA rows for offsets -1, 0 and 1: column j of each row holds
        # J[j + 1, j], J[j, j] and J[j - 1, j].  The frozen boundary rows
        # stay zero.
        band = np.zeros((3, N))
        band[0, :-2] = y[1:-1] * c1 + c2
        band[1, 1:-1] = -(y[2:] - y[:-2]) * c1 - 2.0 * c2
        band[2, 2:] = -y[1:-1] * c1 + c2
        return sp.dia_array((band, [-1, 0, 1]), shape=(N, N))

    def jacobian_restricted(y, t, indices):
        idx = np.asarray(indices, dtype=int)
        k = len(idx)
        J = np.zeros((k, k))
        # Boundary rows are frozen and stay zero.
        interior = (idx > 0) & (idx < N - 1)
        r = np.flatnonzero(interior)
        j = idx[r]
        J[r, r] = -(y[j + 1] - y[j - 1]) * c1 - 2.0 * c2
        # Ascending indices: positions a and a + 1 are neighbours when
        # their indices are.
        adj = np.flatnonzero(idx[1:] == idx[:-1] + 1)
        r = adj[interior[adj + 1]] + 1
        J[r, r - 1] = y[idx[r]] * c1 + c2
        r = adj[interior[adj]]
        J[r, r + 1] = -y[idx[r]] * c1 + c2
        return J

    def dependency(i):
        if i == 0 or i == N - 1:
            return (i,)
        return (i - 1, i, i + 1)

    return OdeProblem(N=N, rhs=rhs, rhs_restricted=rhs_restricted,
                      jacobian=jacobian,
                      jacobian_restricted=jacobian_restricted,
                      dependency=dependency, t_span=p.t_span,
                      y0=burgers_initial(p), name="burgers")


# ---------------------------------------------------------------------------
# Building heating system


def smooth_step(t, t_s, dt):
    """0-to-1 transition centered at t_s with width dt."""
    return 0.5 * (np.tanh((t - t_s) / dt) + 1.0)


def smooth_sat(x, x_min, x_max):
    """Smooth saturation onto (x_min, x_max); note sat(x_min) > x_min."""
    mid = 0.5 * (x_max + x_min)
    half = 0.5 * (x_max - x_min)
    return mid + half * np.tanh(2.0 * (x - x_min) / (x_max - x_min) - 1.0)


def _smooth_sat_deriv(x, x_min, x_max):
    th = np.tanh(2.0 * (x - x_min) / (x_max - x_min) - 1.0)
    return 1.0 - th * th


@dataclass(frozen=True)
class HeatingParams:
    """Central heating supply serving N independently controlled units.

    Construction raises ValueError unless N is an integer >= 1, every
    float field is finite, G_hn, t_h and step_width are positive, and
    T_s0 > T_h, so that the supply's saturation range (0, Q_max] is not
    empty or reversed.
    """

    N: int = 100
    K_ps: float = 0.2
    T_h: float = 293.15
    T_l: float = 288.15
    T_s0: float = 343.15
    G_hn: float = 200.0
    G_u: float = 150.0
    t_h: float = 20.0
    K_pu: float = 1.0
    rng_seed: int = 42
    t_span: tuple = (0.0, 172800.0)
    step_width: float = 1.0          # seconds; set-point transition width

    def __post_init__(self):
        check_count("N", self.N)
        for name in ("K_ps", "T_h", "T_l", "T_s0", "G_u", "K_pu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        check_real("G_hn", self.G_hn)
        if not self.T_s0 > self.T_h:
            raise ValueError(f"require T_s0 > T_h, got T_s0={self.T_s0!r}, "
                             f"T_h={self.T_h!r}")
        check_real("t_h", self.t_h)
        check_real("step_width", self.step_width)

    @property
    def Q_max(self) -> float:
        return 0.7 * self.N * self.G_hn * (self.T_s0 - self.T_h)

    @property
    def C_s(self) -> float:
        return 2e6 * self.N

    def C_u(self) -> np.ndarray:
        j = np.arange(1, self.N + 1)
        return (1.0 + 0.348 * j / self.N) * 1e7


def heating_schedule(params: HeatingParams):
    """Per-unit set-point switch times (seconds past midnight).

    Up-switches are drawn uniformly in 6:00-12:00 and down-switches in
    15:00-22:00 from a seeded generator, so runs are reproducible.
    """
    rng = np.random.default_rng(params.rng_seed)
    t_up = rng.uniform(6.0, 12.0, params.N) * 3600.0
    t_down = rng.uniform(15.0, 22.0, params.N) * 3600.0
    return t_up, t_down


def external_temperature(t):
    """Daily sinusoidal ambient temperature, peak at 14:00."""
    return 278.15 + 8.0 * np.cos(2.0 * np.pi * (t - 14.0 * 3600.0) / 86400.0)


def make_heating(params: HeatingParams | None = None) -> OdeProblem:
    if params is None:
        params = HeatingParams()
    p = params
    N = p.N
    n_state = 2 * N + 2
    Q_max, C_s, C_u = p.Q_max, p.C_s, p.C_u()
    t_up, t_down = heating_schedule(p)
    iG = np.arange(1, N + 1)          # G_h block
    iT = np.arange(N + 1, 2 * N + 1)  # T_u block
    iE = 2 * N + 1

    def setpoints(t):
        tm = np.mod(t, 86400.0)
        s = (smooth_step(tm, t_up, p.step_width)
             - smooth_step(tm, t_down, p.step_width))
        return p.T_l + (p.T_h - p.T_l) * s

    def rhs(y, t, out):
        T_s = y[0]
        G_h = y[iG]
        T_u = y[iT]
        T_e = external_temperature(t)
        Q_s = smooth_sat(p.K_ps * Q_max * (p.T_s0 - T_s), 0.0, Q_max)
        Q_h = G_h * (T_s - T_u)
        u = smooth_sat(p.K_pu * (setpoints(t) - T_u), 0.0, 1.0)
        out[0] = (Q_s - np.sum(Q_h)) / C_s
        out[iG] = (u * p.G_hn - G_h) / p.t_h
        out[iT] = (Q_h - p.G_u * (T_u - T_e)) / C_u
        out[iE] = Q_s

    def jacobian(y, t):
        T_s = y[0]
        G_h = y[iG]
        T_u = y[iT]
        J = np.zeros((n_state, n_state))
        x = p.K_ps * Q_max * (p.T_s0 - T_s)
        dQs = _smooth_sat_deriv(x, 0.0, Q_max) * (-p.K_ps * Q_max)
        J[0, 0] = (dQs - np.sum(G_h)) / C_s
        J[0, iG] = -(T_s - T_u) / C_s
        J[0, iT] = G_h / C_s
        xu = p.K_pu * (setpoints(t) - T_u)
        du = _smooth_sat_deriv(xu, 0.0, 1.0) * (-p.K_pu)
        J[iG, iG] = -1.0 / p.t_h
        J[iG, iT] = p.G_hn * du / p.t_h
        J[iT, 0] = G_h / C_u
        J[iT, iG] = (T_s - T_u) / C_u
        J[iT, iT] = (-G_h - p.G_u) / C_u
        J[iE, 0] = dQs
        return J

    def jacobian_restricted(y, t, indices):
        idx = np.asarray(indices)
        return jacobian(y, t)[np.ix_(idx, idx)]

    def dependency(i):
        if i == 0:
            return (0,) + tuple(range(1, 2 * N + 1))
        if 1 <= i <= N:
            return (i, N + i)
        if N + 1 <= i <= 2 * N:
            return (0, i - N, i)
        return (0,)

    y0 = np.empty(n_state)
    y0[0] = p.T_s0
    y0[iG] = 0.0
    y0[iT] = 288.15
    y0[iE] = 0.0
    return OdeProblem(N=n_state, rhs=rhs, jacobian=jacobian,
                      jacobian_restricted=jacobian_restricted,
                      dependency=dependency, t_span=p.t_span, y0=y0,
                      name="heating")
