"""Command-line front end: solve runs, stability scans, accuracy sweeps.

Three subcommands write CSV/JSON artifacts into an output directory:

``solve``      integrates a benchmark problem and emits solution.csv
               (dense output on a uniform grid), activity.csv (which
               components each accepted step advanced), and stats.json
               (the run's work counters).
``stability``  scans the multi-rate amplification matrix over a C grid
               and emits scan.csv (all spectral radii) and table.csv
               (the max-C matrix with ">= Cmax" sentinels).
``accuracy``   sweeps C for a fixed linear model and emits errors.csv
               comparing single-rate and multi-rate propagator errors.

Options may come from flags or from a JSON config file (``--config``);
flags override file values.  All numeric CSV fields use 17 significant
digits so values round-trip exactly.

Exit codes: 0 success, 2 usage error, 3 integration failure, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

# One BLAS thread unless the caller sets one, before numpy sizes its pool:
# the thread count changes results and, on a loaded machine, run time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import bench
from .adapt import IntegrationFailure, SolverConfig, integrate
from .interp import DENSE, HERMITE, LINEAR
from .odecore import NumericalBlowup, OdeProblem
from .stability import model_2dof, model_4dof, propagator_error, scan_cell
from .tableaux import MethodNotFound, get_method, method_names

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRATION = 3
EXIT_NUMERIC = 4

_INTERPS = {"linear": LINEAR, "hermite": HERMITE, "dense": DENSE}


class UsageError(Exception):
    """Invalid combination of options detected after parsing."""


def _fmt(x) -> str:
    """17-significant-digit text for floats; plain str otherwise."""
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def index_ranges(indices) -> str:
    """Compress sorted indices to hyphenated ranges, e.g. "3-7,12"."""
    indices = np.asarray(indices, dtype=int)
    if len(indices) == 0:
        return ""
    parts = []
    start = prev = int(indices[0])
    for i in indices[1:]:
        i = int(i)
        if i == prev + 1:
            prev = i
            continue
        parts.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = i
    parts.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ",".join(parts)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _parse_value(text: str):
    """Parse an override value: JSON literal, else plain string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"override must be name=value, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key] = _parse_value(val)
    return out


def _make_constant(overrides: dict) -> OdeProblem:
    """Stub problem y' = 0 for plumbing tests."""
    n = int(overrides.pop("N", 4))
    t_span = tuple(overrides.pop("t_span", (0.0, 1.0)))
    if overrides:
        raise UsageError(f"unknown constant-problem overrides: {overrides}")

    def rhs(y, t, out):
        out[:] = 0.0

    return OdeProblem(N=n, rhs=rhs, t_span=t_span,
                      y0=np.arange(n, dtype=float),
                      dependency=lambda i: (), name="constant")


def _apply_params(cls, overrides: dict):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(overrides) - fields
    if unknown:
        raise UsageError(
            f"unknown {cls.__name__} overrides: {sorted(unknown)}")
    if "t_span" in overrides:
        overrides["t_span"] = tuple(overrides["t_span"])
    if "breakpoints" in overrides:
        overrides["breakpoints"] = tuple(
            tuple(bp) for bp in overrides["breakpoints"])
    try:
        return cls(**overrides)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def make_problem(name: str, overrides: dict) -> OdeProblem:
    """Instantiate a registered problem with parameter overrides."""
    overrides = dict(overrides)
    if name == "constant":
        return _make_constant(overrides)
    if name == "inverter":
        return bench.make_inverter_chain(
            _apply_params(bench.InverterChainParams, overrides))
    if name == "burgers":
        return bench.make_burgers(
            _apply_params(bench.BurgersParams, overrides))
    if name == "heating":
        return bench.make_heating(
            _apply_params(bench.HeatingParams, overrides))
    raise UsageError(f"unknown problem {name!r}")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def _csv_ints(text: str) -> list[int]:
    vals = _csv_floats(text)
    out = [int(v) for v in vals]
    if any(i != v for i, v in zip(out, vals)):
        raise UsageError(f"expected integers, got {text!r}")
    return out


# ---------------------------------------------------------------------------
# solve


def _solver_config(args) -> SolverConfig:
    kind = None
    if args.interp is not None:
        if args.interp not in _INTERPS:
            raise UsageError(f"unknown interpolator {args.interp!r}")
        kind = _INTERPS[args.interp]
    try:
        return SolverConfig(
            rtol=args.rtol, atol=args.atol, alpha=args.safety,
            alpha_min=args.safety_min, alpha_max=args.safety_max,
            beta=args.beta, phi=args.phi, h0=args.h0, h_min=args.h_min,
            mode=args.mode, interp=kind,
            jacobian_strategy=args.jacobian_strategy,
            newton_max_iters=args.newton_max_iters,
            max_steps=args.max_steps)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _output_grid(problem: OdeProblem, dt: float | None) -> np.ndarray:
    t0, t1 = problem.t_span
    if dt is None:
        dt = (t1 - t0) / 1000.0
    if dt <= 0:
        raise UsageError("output grid spacing must be positive")
    n = int(np.floor((t1 - t0) / dt + 1e-9))
    grid = t0 + dt * np.arange(n + 1)
    if grid[-1] < t1 - 1e-12 * max(1.0, abs(t1)):
        grid = np.append(grid, t1)
    else:
        grid[-1] = t1
    return grid


def _select_columns(args, n_state: int) -> list[int]:
    if args.columns is None:
        return list(range(n_state))
    cols = _csv_ints(args.columns)
    for c in cols:
        if not 0 <= c < n_state:
            raise UsageError(f"column {c} outside 0..{n_state - 1}")
    return cols


def _stats_dict(stats, failed=False, message=None) -> dict:
    out = dataclasses.asdict(stats)
    if failed:
        out["failed"] = True
        out["failure_message"] = message
    return out


def _write_solution(path, t_out, y_out, cols):
    header = ["t"] + [f"y{c}" for c in cols]
    rows = ([t] + [y[c] for c in cols] for t, y in zip(t_out, y_out))
    _write_csv(path, header, rows)


def _write_activity(path, records):
    _write_csv(path, ["step_index", "t_start", "t_end", "kind",
                      "active_indices"],
               ([r.step_index, r.t_start, r.t_end, r.kind,
                 index_ranges(r.active_indices)] for r in records))


def cmd_solve(args) -> int:
    if args.problem is None:
        raise UsageError("--problem is required (flag or config file)")
    try:
        problem = make_problem(args.problem, _parse_overrides(args.param))
    except ValueError as exc:     # e.g. OdeProblem rejects the span
        raise UsageError(str(exc)) from exc
    cfg = _solver_config(args)
    grid = _output_grid(problem, args.output_dt)
    cfg = dataclasses.replace(cfg, t_eval=grid)
    method = get_method(args.method)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    cols = _select_columns(args, problem.N)
    try:
        res = integrate(problem, method, cfg)
    except IntegrationFailure as exc:
        # Flag the failure; emit headers plus counters so partial runs
        # are recognizable without being mistaken for results.
        _write_csv(os.path.join(outdir, "solution.csv"),
                   ["t"] + [f"y{c}" for c in cols], [])
        _write_activity(os.path.join(outdir, "activity.csv"), [])
        stats = _stats_dict(exc.stats, failed=True, message=str(exc))
        if exc.t is not None:
            stats["failure_time"] = exc.t
        with open(os.path.join(outdir, "stats.json"), "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    _write_solution(os.path.join(outdir, "solution.csv"),
                    res.t_out, res.y_out, cols)
    _write_activity(os.path.join(outdir, "activity.csv"), res.activity)
    with open(os.path.join(outdir, "stats.json"), "w") as fh:
        json.dump(_stats_dict(res.stats), fh, indent=2)
        fh.write("\n")
    print(f"wrote solution.csv, activity.csv, stats.json to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability


def _make_model(args, kappa: float):
    if args.model == "2dof":
        return model_2dof(alpha=args.alpha, kappa=kappa)
    if args.model == "4dof":
        return model_4dof(omega1=args.omega1, gamma1=args.gamma1,
                          alpha_ratio=args.alpha, beta_ratio=args.model_beta,
                          kappa=kappa)
    raise UsageError(f"unknown model {args.model!r}")


def cmd_stability(args) -> int:
    for name in ("model", "alpha", "kappa", "M"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required (flag or config file)")
    kappas = _csv_floats(args.kappa)
    Ms = _csv_ints(args.M)
    if not Ms:
        raise UsageError("M list must be nonempty")
    if not kappas:
        raise UsageError("kappa list must be nonempty")
    if args.interp not in _INTERPS:
        raise UsageError(f"unknown interpolator {args.interp!r}")
    kind = _INTERPS[args.interp]
    method = get_method(args.method)
    try:
        models = [_make_model(args, k) for k in kappas]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    all_rows = []
    table = {}
    for ik, model in enumerate(models):
        for M in Ms:
            rows, table[(ik, M)] = scan_cell(model, method, kind, M,
                                             C_max=args.c_max)
            all_rows.extend(rows)

    os.makedirs(args.outdir, exist_ok=True)
    scan_header = ["model", "method", "interp", "gamma1", "omega1",
                   "alpha", "beta", "kappa", "M", "C", "rho", "stable"]
    _write_csv(os.path.join(args.outdir, "scan.csv"), scan_header,
               ([r[c] for c in scan_header] for r in all_rows))
    _write_csv(os.path.join(args.outdir, "table.csv"),
               ["kappa"] + [f"M={M}" for M in Ms],
               ([_fmt(kappas[ik])] + [table[(ik, M)] for M in Ms]
                for ik in range(len(kappas))))
    print(f"wrote scan.csv, table.csv to {args.outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# accuracy


def cmd_accuracy(args) -> int:
    if args.C is None:
        raise UsageError("--C is required (flag or config file)")
    Cs = _csv_floats(args.C)
    if not Cs:
        raise UsageError("C list must be nonempty")
    if args.interp not in _INTERPS:
        raise UsageError(f"unknown interpolator {args.interp!r}")
    kind = _INTERPS[args.interp]
    method = get_method(args.method)
    model = model_4dof(omega1=args.omega1, gamma1=args.gamma1,
                       alpha_ratio=args.alpha, beta_ratio=args.model_beta,
                       kappa=args.kappa)
    rows = []
    for C in Cs:
        h_s = C / model.Lam
        t_final = args.steps * h_s
        sr = propagator_error(model, method, kind, "single", args.M, C,
                              t_final)
        mr = propagator_error(model, method, kind, "multi", args.M, C,
                              t_final)
        rows.append([C, sr, mr])
    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(os.path.join(args.outdir, "errors.csv"),
               ["C", "single_rate_error", "multirate_error"], rows)
    print(f"wrote errors.csv to {args.outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_solver_flags(p):
    p.add_argument("--rtol", type=float, default=1e-6)
    p.add_argument("--atol", type=float, default=1e-6)
    p.add_argument("--phi", type=float, default=0.1,
                   help="fast-component fraction cap")
    p.add_argument("--beta", type=float, default=1.0,
                   help="error-quotient acceptance threshold")
    p.add_argument("--safety", type=float, default=0.9,
                   help="step controller safety factor")
    p.add_argument("--safety-min", type=float, default=0.5)
    p.add_argument("--safety-max", type=float, default=1.2)
    p.add_argument("--h0", type=float, default=None,
                   help="initial step size (default: automatic heuristic)")
    p.add_argument("--h-min", type=float, default=1e-12)
    p.add_argument("--jacobian-strategy", choices=("JacA", "JacB"),
                   default="JacB")
    p.add_argument("--newton-max-iters", type=int, default=20)
    p.add_argument("--max-steps", type=int, default=10_000_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrrk",
        description="Multi-rate Runge-Kutta toolkit: solve benchmark "
                    "problems, scan linear stability, sweep accuracy.")
    parser.add_argument("--config", default=None,
                        help="JSON file with option defaults "
                             "(flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="integrate a benchmark problem")
    ps.add_argument("--problem", default=None,
                    choices=("inverter", "burgers", "heating", "constant"))
    ps.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="problem parameter override (JSON value)")
    ps.add_argument("--method", default="esdirk3", choices=method_names())
    ps.add_argument("--mode", choices=("single", "multi"), default="single")
    ps.add_argument("--interp", choices=sorted(_INTERPS), default=None,
                    help="slow-value interpolator (default: method's "
                         "continuous output, else hermite)")
    _add_solver_flags(ps)
    ps.add_argument("--output-dt", type=float, default=None,
                    help="solution.csv grid spacing (default span/1000)")
    ps.add_argument("--columns", default=None,
                    help="comma list of state indices for solution.csv")
    ps.add_argument("--outdir", default=".")
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("stability", help="multi-rate stability scan")
    pt.add_argument("--model", default=None, choices=("2dof", "4dof"))
    pt.add_argument("--method", default="erk4", choices=method_names())
    pt.add_argument("--interp", default="hermite")
    pt.add_argument("--alpha", type=float, default=None,
                    help="fast/slow time-scale ratio")
    pt.add_argument("--kappa", default=None,
                    help="comma list of coupling strengths")
    pt.add_argument("--M", default=None,
                    help="comma list of fast/slow step-size ratios")
    pt.add_argument("--gamma1", type=float, default=0.01)
    pt.add_argument("--omega1", type=float, default=1.0)
    pt.add_argument("--model-beta", type=float, default=1.0,
                    help="4-DOF damping ratio")
    pt.add_argument("--c-max", type=float, default=100.0,
                    help="largest scanned normalized step")
    pt.add_argument("--outdir", default=".")
    pt.set_defaults(func=cmd_stability)

    pa = sub.add_parser("accuracy",
                        help="single- vs multi-rate propagator error sweep")
    pa.add_argument("--method", default="erk4", choices=method_names())
    pa.add_argument("--interp", default="hermite")
    pa.add_argument("--C", default=None,
                    help="comma list of normalized step sizes")
    pa.add_argument("--M", type=int, default=10)
    pa.add_argument("--steps", type=int, default=10,
                    help="global steps per sweep point")
    pa.add_argument("--gamma1", type=float, default=0.01)
    pa.add_argument("--omega1", type=float, default=1.0)
    pa.add_argument("--alpha", type=float, default=50.0)
    pa.add_argument("--model-beta", type=float, default=1.0)
    pa.add_argument("--kappa", type=float, default=1e-3)
    pa.add_argument("--outdir", default=".")
    pa.set_defaults(func=cmd_accuracy)
    return parser


def _merge_config(parser, argv):
    """Parse argv with a JSON config file supplying defaults."""
    pre, _ = parser.parse_known_args(argv)
    if pre.config is not None:
        try:
            with open(pre.config) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {pre.config}: {exc}")
        if not isinstance(values, dict):
            raise UsageError("config file must hold a JSON object")
        known = {a.dest for a in parser._actions}
        for p in parser._subparsers._group_actions[0].choices.values():
            known |= {a.dest for a in p._actions}
        unknown = set(values) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        parser.set_defaults(**values)
        for p in parser._subparsers._group_actions[0].choices.values():
            p.set_defaults(**{k: v for k, v in values.items()
                              if k in {a.dest for a in p._actions}})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _merge_config(parser, argv)
        return args.func(args)
    except (UsageError, MethodNotFound) as exc:
        # A config-file method bypasses argparse's choices check.
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationFailure as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (NumericalBlowup, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
