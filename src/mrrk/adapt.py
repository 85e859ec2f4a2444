"""The self-adjusting multi-rate controller and its one adaptive driver.

The controller takes a tentative global step with an error estimate,
ranks the per-component error quotients, and either rejects the step,
accepts it outright, or keeps the slow components and re-integrates only
the fast ones on the same interval, reading interpolated slow values from
the global step.  Single-rate integration is the same controller with a
fast cap of 0: every tentative step is accepted whole or rejected.  The
fast re-integration is itself a single-rate `integrate` run on the fast
sub-problem, so there is one adaptive loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .interp import (DENSE, HERMITE, InterpolatorKind, power_rows,
                     slow_interpolant)
from .newton import STRATEGIES, ConvergenceFailure, JacobianCache
from .odecore import (OdeProblem, check_count, check_real, error_quotients,
                      new_step_size, predictive_step_size, rk_step)
from .tableaux import ButcherTableau

# Names of the integration modes: the fast cap is 0 in "single".
MODES = ("single", "multi")


class IntegrationFailure(Exception):
    """The run cannot continue.

    Raised when the step size falls below ``h_min``, is NaN or cannot
    advance t (after an error rejection, or after a failed step, whose
    `ConvergenceFailure` message it repeats) or when the step budget
    ``max_steps`` is exhausted.  Carries the time, state, and statistics
    (``wall_time`` included) at the point of failure.
    """

    def __init__(self, message, t=None, y=None, stats=None):
        super().__init__(message)
        self.t = t
        self.y = y
        self.stats = stats


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and controller settings for one integration run.

    This is the one owner of a run's settings, their defaults and their
    valid values: the stage solves read it through their `JacobianCache`,
    and the CLI's solver flags default to its fields.  Tolerances, step
    bounds, the step budget and controller settings are validated here, so
    a bad value raises ValueError at construction, not inside the run;
    ``interp``, a kind name, becomes an `interp.InterpolatorKind`.
    """

    rtol: float = 1e-6
    atol: float = 1e-6
    alpha: float = 0.9
    alpha_min: float = 0.5
    alpha_max: float = 1.2
    beta: float = 1.0
    phi: float = 0.1
    h0: Optional[float] = None
    h_min: float = 1e-12
    mode: str = "single"
    interp: Optional[InterpolatorKind] = None
    jacobian_strategy: str = "JacB"
    newton_max_iters: int = 20
    t_eval: Optional[np.ndarray] = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        check_real("rtol", self.rtol, positive=False)
        check_real("atol", self.atol)
        if self.h0 is not None:
            check_real("h0", self.h0)
        check_real("h_min", self.h_min, positive=False)
        check_count("newton_max_iters", self.newton_max_iters)
        check_count("max_steps", self.max_steps)
        check_real("alpha", self.alpha)
        check_real("beta", self.beta)
        if not 0 < self.alpha_min < 1 < self.alpha_max:
            raise ValueError("require 0 < alpha_min < 1 < alpha_max")
        if not 0 < self.phi < 1:
            raise ValueError(f"phi must lie in (0, 1), got {self.phi!r}")
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if self.jacobian_strategy not in STRATEGIES:
            raise ValueError(
                f"jacobian_strategy must be one of {tuple(STRATEGIES)}, "
                f"got {self.jacobian_strategy!r}")
        if self.interp is not None:
            object.__setattr__(self, "interp", InterpolatorKind(self.interp))
        if self.t_eval is not None:
            t = np.asarray(self.t_eval, dtype=float)
            # A non-decreasing grid holds no NaN and lies between its ends,
            # so two finite ends make it finite.
            if t.ndim != 1 or (t.size and not (
                    math.isfinite(t[0]) and math.isfinite(t[-1])
                    and (t[1:] >= t[:-1]).all())):
                raise ValueError(
                    "t_eval must be a finite, non-decreasing 1-D array")


@dataclass
class StepStats:
    """Counters of a run, split into global and fast (local) work.

    Rejections are split by cause: the error test, or a failed stage
    solve, non-finite state or failed fast phase (``convergence``).
    ``global_rhs_calls`` counts every call of the problem's ``rhs`` in the
    run, rejected attempts included: initial-step probes, explicit stages,
    Newton residuals, finite-difference columns and Hermite endpoints.
    ``global_jacobians`` and ``global_solves`` count the Jacobian
    evaluations and the linear solves of the run's own cache, likewise.
    ``local_*`` sum these three over the fast sub-runs, failed ones
    included; each RHS call of a sub-run is one call of the problem's
    ``rhs_restricted`` over the fast indices.
    """

    accepted_global: int = 0
    rejected_global_error: int = 0
    rejected_global_convergence: int = 0
    accepted_fast: int = 0
    rejected_fast_error: int = 0
    rejected_fast_convergence: int = 0
    global_rhs_calls: int = 0
    global_jacobians: int = 0
    global_solves: int = 0
    local_rhs_calls: int = 0
    local_jacobians: int = 0
    local_solves: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class ActivityRecord:
    """One accepted step: which components were advanced over what span."""

    step_index: int
    t_start: float
    t_end: float
    kind: str                     # "global" or "fast"
    active_indices: np.ndarray


@dataclass
class IntegrationResult:
    """Accepted trajectory, counters, per-step activity and dense output."""

    t: np.ndarray
    y: np.ndarray
    stats: StepStats
    activity: list
    t_out: Optional[np.ndarray] = None
    y_out: Optional[np.ndarray] = None


def select_partition(eta: np.ndarray, phi: float, beta: float):
    """Classify a tentative global step from its error quotients.

    Sorts eta descending (ties broken by ascending index), caps the fast
    candidate count at m with m/N <= phi < (m+1)/N, and returns
    (decision, fast, eta_s, eta_f) where decision is one of "accept",
    "reject", "go_multirate".  eta_s is the largest quotient outside the
    top-m, eta_f the largest inside (0 when m = 0, so the step is accepted
    or rejected whole).  ``fast`` is the ascending index array of the
    top-m candidates that actually violate beta, empty unless the step
    goes multirate.  A non-finite quotient raises ConvergenceFailure, so
    the step is halved like any other failed step.  With m = 0 the test
    is the maximum itself: quotients are nonnegative or NaN, and the
    maximum of such numbers is finite exactly when every one is.
    """
    eta = np.asarray(eta, dtype=float)
    N = len(eta)
    m = math.floor(phi * N)
    if m == 0:
        eta_s = float(eta.max())
        if not math.isfinite(eta_s):
            raise ConvergenceFailure("non-finite error estimate")
        return ("reject" if eta_s > beta else "accept",
                np.array([], dtype=int), eta_s, 0.0)
    if not np.isfinite(eta).all():
        raise ConvergenceFailure("non-finite error estimate")
    order = np.argsort(-eta, kind="stable")
    top = order[:m]
    rest = order[m:]
    eta_s = float(np.max(eta[rest]))
    eta_f = float(np.max(eta[top]))
    fast = np.array([], dtype=int)
    if eta_s > beta:
        decision = "reject"
    elif eta_f <= beta:
        decision = "accept"
    else:
        decision = "go_multirate"
        fast = np.sort(top[eta[top] > beta])
    return decision, fast, eta_s, eta_f


def _attempt_step(problem, u_n, t_n, h, method, cfg, cache):
    """One tentative step with its per-component error quotients.

    Methods with an embedded pair use it directly.  Methods without one
    (the classical explicit method) estimate the error by step doubling:
    the step is repeated as two half steps and the difference between the
    one-step and two-step results serves as the error, with the two-step
    result carried forward.  Returns (u_next, eta, K); the stage
    derivatives ``K`` always span the full interval [t_n, t_n + h] for
    interpolation.
    """
    u_next, u_hat, K = rk_step(problem, u_n, t_n, h, method, cache)
    if u_hat is None:
        u_half, _, _ = rk_step(problem, u_n, t_n, 0.5 * h, method, cache)
        u_two, _, _ = rk_step(problem, u_half, t_n + 0.5 * h, 0.5 * h,
                              method, cache)
        u_hat, u_next = u_next, u_two
    eta = error_quotients(u_next, u_hat, cfg.rtol, cfg.atol)
    return u_next, eta, K


def _step_interpolant(problem, method, kind, u_n, u_next, t_n, h, K):
    """Slow-value interpolant over [t_n, t_n + h] as the (p + 1, N) array
    of `interp.slow_interpolant`'s power-basis coefficients in tau, every
    column, highest power first; `integrate` calls it once per step that
    goes multirate or holds grid rows, with the run's ``kind``.  Only the
    Hermite kind evaluates the endpoint derivatives (one fresh RHS call
    for the right endpoint, one for the left unless the first stage holds
    it).
    """
    f_n = f_next = None
    if kind == HERMITE:
        if method.explicit_first_stage:
            f_n = K[0]
        else:
            f_n = np.empty_like(u_n)
            problem.rhs(u_n, t_n, f_n)
        f_next = np.empty_like(u_n)
        problem.rhs(u_next, t_n + h, f_next)
    return slow_interpolant(kind, u_n, u_next, h, f_n, f_next, K,
                            method.dense)


def _make_interpolant(C):
    """The row evaluator cols -> (tau, out=None) -> rows of a step's
    coefficient array ``C`` (`_step_interpolant`) at every column, by
    `interp.power_rows`.  The coefficients are built before, once per
    step.  Every caller asks for all columns, so ``cols`` (``slice(None)``)
    is not read: it stays only for the make(cols) -> rows(tau, out) shape
    that `perfbench/tracing.py` wraps, counting the evaluations, the
    products alone, under this name.  The output sampler's one commit
    site builds it here."""
    def make(cols):
        def rows(tau, out=None):
            return power_rows(C, tau, out)
        return rows
    return make


def _fast_subproblem(problem, fast, u_n, t_n, h, C):
    """Restricted problem over the fast indices.

    The full-state buffer carries interpolated slow values at the needed
    columns (the structural closure of the fast rows) and the solver's
    fast iterate; RHS and Jacobian evaluation delegate to the parent
    problem's restricted entry points, which write the fast values
    straight into the sub-problem's output.  ``C`` is the step
    interpolant's coefficient array (`_step_interpolant`): the columns of
    the slow closure are selected once and turned into Python floats,
    and each column is evaluated at tau = (t - t_n)/h by one Horner
    recurrence from the highest power down, so at t = t_n it is u_n
    exactly.  The slow columns are evaluated once per distinct ``t``:
    every Newton iterate of a stage shares its stage time, and the next
    step-start Jacobian often reuses it.
    """
    fast = np.asarray(fast, dtype=int)
    closure = set()
    for i in fast:
        closure.update(problem.dependency(int(i)))
    closure.difference_update(fast.tolist())
    cols = sorted(closure)
    polys = [(j, c[0], c[1:]) for j, c in
             zip(cols, C[:, cols].T.tolist())]
    buf = u_n.copy()
    filled_t = [None]           # time of the slow values held in buf

    def fill(yf, t):
        if t != filled_t[0]:
            tau = (t - t_n) / h
            for j, v, rest in polys:
                for c in rest:
                    v = v * tau + c
                buf[j] = v
            filled_t[0] = t
        buf[fast] = yf

    def rhs(yf, t, out):
        fill(yf, t)
        problem.rhs_restricted(buf, t, fast, out)

    jac = None
    if problem.jacobian_restricted is not None:
        def jac(yf, t):
            fill(yf, t)
            return problem.jacobian_restricted(buf, t, fast)

    pos = {int(j): k for k, j in enumerate(fast)}

    def dep(i):
        return tuple(pos[j] for j in problem.dependency(int(fast[i]))
                     if j in pos)

    return OdeProblem(N=len(fast), rhs=rhs, t_span=(t_n, t_n + h),
                      y0=u_n[fast], dependency=dep, jacobian=jac,
                      name=f"{problem.name}-fast")


class _OutputSampler:
    """Incremental dense-output evaluation on a fixed time grid.

    Each accepted global step with grid rows is committed once, after its
    fast phase, so nothing step-local has to be retained for the rest of
    the run.  Grid points in (t0, t0 + h] take the global interpolant;
    after a fast phase, the fast columns of those rows take the fast
    sub-run's samples.
    """

    def __init__(self, t_eval, n_state, t0, y0):
        self.t_eval = np.asarray(t_eval, dtype=float)
        self.y = np.empty((len(self.t_eval), n_state))
        # Points at or before the start of integration hold the initial
        # state; later commits never revisit them.
        i0 = int(np.searchsorted(self.t_eval, t0, side="right"))
        self.y[:i0] = y0
        self.filled = i0

    def window(self, t0, h):
        """Grid rows (lo, hi), the range [lo, hi), that the step
        [t0, t0 + h] fills; a step computes it once, before its commit."""
        lo = int(self.t_eval.searchsorted(t0, side="right"))
        hi = int(self.t_eval.searchsorted(t0 + h, side="right"))
        return min(lo, self.filled), hi   # close round-off gaps

    def commit_step(self, window, t0, h, interp, fast=None, y_fast=None):
        """Fill the step's grid rows from one evaluation of ``interp``.

        ``window`` is the step's `window` (t0, h).  ``interp(tau, out)``
        writes the rows of the taus of the window, clamped to [0, 1], into
        ``out``: the step's row evaluator (`_make_interpolant`), one
        product per tau (`interp.power_rows`); ``y_fast``, unless None,
        then overwrites the ``fast`` columns of those rows.
        """
        lo, hi = window
        if hi > lo:
            tau = (self.t_eval[lo:hi] - t0) / h
            np.minimum(np.maximum(tau, 0.0, out=tau), 1.0, out=tau)
            interp(tau, self.y[lo:hi])
        if y_fast is not None:
            self.y[lo:hi, fast] = y_fast
        self.filled = max(self.filled, hi)

    def finish(self, y_final):
        # Grid points past the last committed step (round-off at the
        # horizon) hold the final state.
        self.y[self.filled:] = y_final
        return self.t_eval, self.y


def _initial_step(problem, cfg, method):
    """Starting step size from the classical two-evaluation heuristic.

    A first guess h0 balances the weighted norms of the state and its
    derivative; an explicit Euler probe then estimates the derivative's
    rate of change, and the step is sized so the first error estimate
    lands near 0.01.  Costs two RHS evaluations.
    """
    if cfg.h0 is not None:
        return cfg.h0
    t0, T = problem.t_span
    span = T - t0
    y0 = problem.y0
    sc = cfg.atol + cfg.rtol * np.abs(y0)
    f0 = np.empty_like(y0)
    problem.rhs(y0, t0, f0)
    f1 = np.empty_like(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6 * span
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span)
    problem.rhs(y0 + h0 * f0, t0 + h0, f1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (method.q + 1))
    return min(100.0 * h0, h1, span)


def multirate_step(problem: OdeProblem, method: ButcherTableau,
                   config: SolverConfig, u_n: np.ndarray, t_n: float,
                   h_n: float, u_tentative: np.ndarray,
                   fast: np.ndarray, eta_f: float, C: np.ndarray,
                   stats: StepStats, t_eval: np.ndarray | None = None):
    """Re-integrate the fast components of one accepted global interval.

    ``fast`` is the ascending index array of `select_partition`.  The slow
    components of the returned state are taken bitwise from the
    tentative global step.  The fast components are advanced by a
    single-rate `integrate` run on the fast sub-problem over
    [t_n, t_n + h_n].  It starts from
    h_n * min(alpha_max, alpha * eta_f^(-1/(q+1))), the controller's step
    for eta_f without the alpha_min floor: alpha_min bounds the cut after
    a rejection, while eta_f, measured over a step many fast steps long,
    may ask for a much smaller start.  Its error measure is the maximum
    quotient over the fast set only, so its fast cap is 0 and it follows
    the error trend (`integrate`), and it inherits ``max_steps``, so one
    fast phase takes at most that many sub-steps.  The sub-run's global
    counters are added to the fast counters of ``stats``.  ``C`` is the
    global step's slow-value coefficient array (`_step_interpolant`): the
    sub-problem evaluates its slow columns from it by Horner.  ``t_eval``
    is the sub-run's output grid, the step's grid times or None.  Returns
    (u_next, res): the combined state and the sub-run's result, whose
    activity and ``y_out`` the caller records and commits.  Raises
    ConvergenceFailure when the sub-run fails (the caller then rejects
    the global step); counters of the failed sub-run are kept.
    """
    sub = _fast_subproblem(problem, fast, u_n, t_n, h_n, C)
    h0 = h_n * min(config.alpha_max,
                   config.alpha * eta_f ** (-1.0 / (method.q + 1)))
    sub_cfg = replace(config, mode="single", t_eval=t_eval, h0=h0)
    try:
        res = integrate(sub, method, sub_cfg)
    except IntegrationFailure as exc:
        _add_fast_counters(stats, exc.stats)
        raise ConvergenceFailure(f"fast phase: {exc}") from None
    _add_fast_counters(stats, res.stats)
    u_next = u_tentative.copy()
    u_next[fast] = res.y[-1]
    return u_next, res


def _add_fast_counters(stats: StepStats, sub: StepStats):
    """Count a fast sub-run's global work as fast work of ``stats``."""
    stats.accepted_fast += sub.accepted_global
    stats.rejected_fast_error += sub.rejected_global_error
    stats.rejected_fast_convergence += sub.rejected_global_convergence
    stats.local_rhs_calls += sub.global_rhs_calls
    stats.local_jacobians += sub.global_jacobians
    stats.local_solves += sub.global_solves


def integrate(problem: OdeProblem, method: ButcherTableau,
              config: SolverConfig) -> IntegrationResult:
    """Adaptive integration over the problem's time span.

    ``config.mode == "multi"`` lets up to floor(phi * N) components be
    re-integrated with fast sub-steps; ``"single"`` runs the same loop
    with a fast cap of 0.  The run's slow-value kind is ``config.interp``
    or, without one, the method's continuous output when it has one and
    an embedded pair (step doubling accepts two half steps, which the
    full step's continuous output does not end at), else cubic Hermite.
    Raises ValueError when ``config.interp`` is the dense kind and the
    method has no continuous output or no embedded pair, and when a point
    of ``config.t_eval`` lies outside the span by more than round-off,
    1e-9 * max(1, |t0|, |T|): a grid that np.arange fills over the span
    can end past T by about its length times ulp(T).  A rejection that
    leaves h below the floating-point spacing of t ends the run.

    Each rejection sizes the retry by `new_step_size`.  After an accepted
    step the next step size depends on the run's fast cap
    floor(phi * N).  With cap 0 (every SR run, every fast sub-run, and an
    MR run with phi * N < 1, which so stays bitwise equal to SR) the error
    measure is one fixed set of components, and the step follows its
    error trend: `predictive_step_size` from this step and the accepted
    step before, or `new_step_size` after the run's first accepted step.
    With a nonzero cap, eta_s is the largest quotient outside a top m
    that changes from step to step, so its trend means little, and every
    step takes `new_step_size`.

    Each step that is not rejected is recorded at one site: one
    coefficient build (`_step_interpolant`) if it goes multirate or holds
    grid rows, its fast activity before its global record, and one commit
    of its grid rows, the fast columns from the fast phase's samples.
    """
    cfg = config
    has_dense = method.dense is not None and method.b_hat is not None
    kind = cfg.interp or (DENSE if has_dense else HERMITE)
    if kind == DENSE and not has_dense:
        raise ValueError(
            f"method {method.name!r} has no dense output with an embedded "
            "pair, which interp 'dense' needs")
    t0, T = problem.t_span
    grid_tol = 1e-9 * max(1.0, abs(t0), abs(T))
    if cfg.t_eval is not None and len(cfg.t_eval) and not (
            t0 - grid_tol <= cfg.t_eval[0]
            and cfg.t_eval[-1] <= T + grid_tol):
        raise ValueError(f"t_eval must lie within t_span [{t0}, {T}]")
    phi = cfg.phi if cfg.mode == "multi" else 0.0
    follow_trend = math.floor(phi * problem.N) == 0
    stats = StepStats()

    def counted_rhs(y, t, out, rhs=problem.rhs):
        stats.global_rhs_calls += 1
        rhs(y, t, out)

    problem = replace(problem, rhs=counted_rhs)
    t, u = t0, problem.y0.copy()
    h = _initial_step(problem, cfg, method)
    activity = []
    ts, ys = [t], [u.copy()]
    sampler = None
    if cfg.t_eval is not None:
        sampler = _OutputSampler(cfg.t_eval, problem.N, t0, u)
    cache = None
    if not method.is_explicit:
        cache = JacobianCache(problem, cfg)
    start = time.perf_counter()

    def close_stats():
        stats.wall_time = time.perf_counter() - start
        if cache is not None:
            stats.global_jacobians = cache.evals
            stats.global_solves = cache.solves

    def failure(message):
        close_stats()
        return IntegrationFailure(message, t, u, stats)

    def too_small(h):
        # Why h cannot follow a rejection, or None.  "not >=" catches the
        # NaN h of a non-finite RHS at t0; below the spacing of t, steps
        # leave t in place while h shrinks and regrows without end.
        if not h >= cfg.h_min:
            return "step size below h_min"
        if not t + h > t:
            return "step size cannot advance t"

    all_idx = np.arange(problem.N)
    prev = None                 # (h, eta_s) of the last accepted step
    while t < T - 1e-14 * max(1.0, abs(T)):
        if stats.accepted_global >= cfg.max_steps:
            raise failure("step budget exhausted")
        h = min(h, T - t)
        if cache is not None:
            cache.begin_global_step(u, t)
        try:
            u_tent, eta, K = _attempt_step(
                problem, u, t, h, method, cfg, cache)
            decision, fast, eta_s, eta_f = select_partition(
                eta, phi, cfg.beta)
            if decision != "reject":
                lo, hi = (0, 0) if sampler is None else sampler.window(t, h)
                t_eval = sampler.t_eval[lo:hi] if hi > lo else None
                # Only a step that goes multirate or holds grid rows pays
                # for an interpolant.
                if decision == "go_multirate" or t_eval is not None:
                    C = _step_interpolant(
                        problem, method, kind, u, u_tent, t, h, K)
                u_next, y_fast = u_tent, None
                if decision == "go_multirate":
                    u_next, sub = multirate_step(
                        problem, method, cfg, u, t, h, u_tent, fast, eta_f,
                        C, stats, t_eval)
                    y_fast = sub.y_out
        except ConvergenceFailure as exc:
            stats.rejected_global_convergence += 1
            h *= 0.5
            if why := too_small(h):
                raise failure(f"{why} after a failed step: {exc}")
            continue
        if decision == "reject":
            stats.rejected_global_error += 1
            h = new_step_size(h, eta_s, method.q, cfg)
            if why := too_small(h):
                raise failure(why)
            continue
        stats.accepted_global += 1
        if decision == "go_multirate":
            activity.extend(ActivityRecord(
                step_index=stats.accepted_global, t_start=r.t_start,
                t_end=r.t_end, kind="fast", active_indices=fast)
                for r in sub.activity)
        activity.append(ActivityRecord(
            step_index=stats.accepted_global, t_start=t, t_end=t + h,
            kind="global", active_indices=all_idx))
        if t_eval is not None:
            sampler.commit_step((lo, hi), t, h,
                                _make_interpolant(C)(slice(None)), fast,
                                y_fast)
        t, u = t + h, u_next
        ts.append(t)
        ys.append(u.copy())
        if follow_trend and prev is not None:
            h_next = predictive_step_size(h, eta_s, *prev, method.q, cfg)
        else:
            h_next = new_step_size(h, eta_s, method.q, cfg)
        prev = (h, eta_s)
        h = h_next
    close_stats()
    t_out = y_out = None
    if sampler is not None:
        t_out, y_out = sampler.finish(u)
    return IntegrationResult(t=np.array(ts), y=np.array(ys), stats=stats,
                             activity=activity, t_out=t_out, y_out=y_out)
