"""Command-line front end: solve runs, stability scans, accuracy sweeps.

Three subcommands write CSV/JSON artifacts into an output directory:

``solve``      integrates a benchmark problem and emits solution.csv
               (dense output on a uniform grid), activity.csv (which
               components each accepted step advanced), and stats.json
               (the run's work counters).
``stability``  scans the multi-rate amplification matrix over a C grid
               and emits scan.csv (all spectral radii) and table.csv
               (the max-C matrix, a cell stable on the whole integer
               grid 1..floor(Cmax) reading ">= floor(Cmax)").
``accuracy``   sweeps C for a fixed linear model and emits errors.csv
               comparing single-rate and multi-rate propagator errors.

Options may come from flags or from a JSON config file (``--config``).
Each key of the file becomes a flag of the chosen subcommand, inserted
before the command line's own flags: ``{"output_dt": 0.5}`` is
``--output-dt=0.5`` (strings go in as they are, other values as JSON),
``param`` may be one ``NAME=VALUE`` string or a list of them, and
``null`` leaves an option at its default.  So file values are checked
exactly as flags are, and a flag overrides the file.  All numeric CSV
fields use 17 significant digits so values round-trip exactly.

The CLI parses text into numbers, writes the artifacts and turns the
library's exceptions into exit codes; every range or shape rule belongs
to the library module that owns the value.  Exit codes: 0 success, 2
usage error (a bad command line, or any value the library rejects with
ValueError, whose message it prints), 3 integration failure, 4 numeric
error (`numpy.linalg.LinAlgError`).  The type decides: a ValueError from
inside a ``solve`` run, a library fault, also exits 2 and writes nothing.
A request too large for memory (a MemoryError) exits 2 with one line
that says so.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

# One BLAS thread unless the caller sets one, before numpy sizes its pool:
# the thread count changes results and, on a loaded machine, run time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import bench
from .adapt import MODES, IntegrationFailure, SolverConfig, integrate
from .interp import KINDS, InterpolatorKind
from .newton import STRATEGIES
from .odecore import OdeProblem
from .stability import (RHO_TOL, model_2dof, model_4dof, propagator_errors,
                        scan_cell)
from .tableaux import get_method, method_names

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRATION = 3
EXIT_NUMERIC = 4

# Most values (grid rows x state size) the solution grid may hold; the
# sampler keeps all of them in memory, 8 bytes each.
MAX_OUTPUT_VALUES = 10_000_000


class UsageError(ValueError):
    """Invalid command line, config file or option combination."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, not SystemExit."""

    def error(self, message):
        raise UsageError(message)


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


def _override(text: str) -> tuple[str, object]:
    """Type of ``--param``: NAME=VALUE, the value a JSON literal or else a
    plain string."""
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        return name, json.loads(value)
    except json.JSONDecodeError:
        return name, value


def _floats(text: str) -> list[float]:
    """Type of a comma-list option: a nonempty list of numbers."""
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}")
    return vals


def _ints(text: str) -> list[int]:
    """Type of a comma-list option: a nonempty list of integers."""
    vals = _floats(text)
    if not all(v.is_integer() for v in vals):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}")
    return [int(v) for v in vals]


# name -> (parameter dataclass, factory taking an instance of it)
_PROBLEMS = {
    "inverter": (bench.InverterChainParams, bench.make_inverter_chain),
    "burgers": (bench.BurgersParams, bench.make_burgers),
    "heating": (bench.HeatingParams, bench.make_heating),
}


def make_problem(name: str, overrides: dict) -> OdeProblem:
    """Instantiate a registered problem with parameter overrides, which
    the problem checks; a TypeError (an unknown name) is a UsageError."""
    cls, factory = _PROBLEMS[name]
    try:
        return factory(cls(**overrides))
    except TypeError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# solve


def _solver_config(args, t_eval: np.ndarray) -> SolverConfig:
    """Each `SolverConfig` field but ``t_eval`` from the flag of that dest;
    a flag left out (None) takes the field's default."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(SolverConfig)
             if f.name != "t_eval" and getattr(args, f.name) is not None}
    if "interp" in given:
        given["interp"] = InterpolatorKind(given["interp"])
    return SolverConfig(t_eval=t_eval, **given)


def _output_grid(problem: OdeProblem, dt: float | None) -> np.ndarray:
    t0, t1 = problem.t_span
    if dt is None:
        dt = (t1 - t0) / 1000.0
    if not dt > 0:
        raise UsageError("output grid spacing must be positive")
    # Count the rows before allocating any: n + 1 points from t0, plus t1
    # when the last of them falls short of it.  min() keeps n finite for
    # a tiny dt; such a grid is over the limit either way.
    steps = (t1 - t0) / dt + 1e-9
    n = math.floor(min(steps, MAX_OUTPUT_VALUES))
    rows = n + 1 + (t0 + dt * n < t1 - 1e-12 * max(1.0, abs(t1)))
    if rows * problem.N > MAX_OUTPUT_VALUES:
        raise UsageError(
            f"output grid of {steps + 1:.6g} rows x {problem.N} states "
            f"exceeds the limit of {MAX_OUTPUT_VALUES} values; use a "
            f"larger --output-dt")
    grid = t0 + dt * np.arange(n + 1)
    if rows > n + 1:
        grid = np.append(grid, t1)
    else:
        grid[-1] = t1
    return grid


def _select_columns(args, n_state: int) -> list[int]:
    if args.columns is None:
        return list(range(n_state))
    for c in args.columns:
        if not 0 <= c < n_state:
            raise UsageError(f"column {c} outside 0..{n_state - 1}")
    return args.columns


def cmd_solve(args) -> int:
    problem = make_problem(args.problem, dict(args.param or ()))
    cfg = _solver_config(args, _output_grid(problem, args.output_dt))
    method = get_method(args.method)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    cols = _select_columns(args, problem.N)
    failure = None
    try:
        res = integrate(problem, method, cfg)
        t_out, y_out, activity = res.t_out, res.y_out, res.activity
        stats = dataclasses.asdict(res.stats)
    except IntegrationFailure as exc:
        # Headers and flagged counters, so a partial run is recognizable
        # without being mistaken for a result.
        failure, t_out, y_out, activity = str(exc), [], [], []
        stats = dict(dataclasses.asdict(exc.stats), failed=True,
                     failure_message=failure)
        if exc.t is not None:
            stats["failure_time"] = exc.t
    _write_csv(os.path.join(outdir, "solution.csv"),
               ["t"] + [f"y{c}" for c in cols],
               ([t] + [y[c] for c in cols] for t, y in zip(t_out, y_out)))
    _write_csv(os.path.join(outdir, "activity.csv"),
               ["step_index", "t_start", "t_end", "kind", "active_indices"],
               ([r.step_index, r.t_start, r.t_end, r.kind,
                 index_ranges(r.active_indices)] for r in activity))
    with open(os.path.join(outdir, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")
    if failure is not None:
        print(f"integration failed: {failure}", file=sys.stderr)
        return EXIT_INTEGRATION
    print(f"wrote solution.csv, activity.csv, stats.json to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability


def _make_model(args, kappa: float):
    if args.model == "2dof":
        return model_2dof(alpha=args.alpha, kappa=kappa)
    return model_4dof(omega1=args.omega1, gamma1=args.gamma1,
                      alpha_ratio=args.alpha, beta_ratio=args.model_beta,
                      kappa=kappa)


def cmd_stability(args) -> int:
    kind = InterpolatorKind(args.interp)
    method = get_method(args.method)
    models = [_make_model(args, k) for k in args.kappa]
    # scan.csv's gamma1, omega1, alpha and beta; 2dof has only alpha.
    if args.model == "4dof":
        params = [args.gamma1, args.omega1, args.alpha, args.model_beta]
    else:
        params = ["", "", args.alpha, ""]

    scan, table = [], []
    for kappa, model in zip(args.kappa, models):
        entries = []
        for M in args.M:
            C_grid, rho, entry = scan_cell(model, method, kind, M,
                                           C_max=args.c_max)
            entries.append(entry)
            scan.extend([args.model, method.name, kind.kind, *params, kappa,
                         M, C, r, r <= 1.0 + RHO_TOL]
                        for C, r in zip(C_grid.tolist(), rho.tolist()))
        table.append([kappa] + entries)

    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(os.path.join(args.outdir, "scan.csv"),
               ["model", "method", "interp", "gamma1", "omega1", "alpha",
                "beta", "kappa", "M", "C", "rho", "stable"], scan)
    _write_csv(os.path.join(args.outdir, "table.csv"),
               ["kappa"] + [f"M={M}" for M in args.M], table)
    print(f"wrote scan.csv, table.csv to {args.outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# accuracy


def cmd_accuracy(args) -> int:
    kind = InterpolatorKind(args.interp)
    method = get_method(args.method)
    model = _make_model(args, args.kappa)
    rows = [[C, *propagator_errors(model, method, kind, args.M, C,
                                   args.steps)]
            for C in args.C]
    os.makedirs(args.outdir, exist_ok=True)
    _write_csv(os.path.join(args.outdir, "errors.csv"),
               ["C", "single_rate_error", "multirate_error"], rows)
    print(f"wrote errors.csv to {args.outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_solver_flags(p):
    """One flag per `SolverConfig` field but ``t_eval``, its dest the
    field's name; a flag left out is None and takes the field's default."""
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--interp", choices=KINDS,
                   help="slow-value interpolator (default: dense output "
                        "with an embedded pair, else hermite)")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--phi", type=float, help="fast-component fraction cap")
    p.add_argument("--beta", type=float,
                   help="error-quotient acceptance threshold")
    p.add_argument("--safety", type=float, dest="alpha",
                   help="step controller safety factor")
    p.add_argument("--safety-min", type=float, dest="alpha_min")
    p.add_argument("--safety-max", type=float, dest="alpha_max")
    p.add_argument("--h0", type=float,
                   help="initial step size (default: automatic heuristic)")
    p.add_argument("--h-min", type=float)
    p.add_argument("--jacobian-strategy", choices=STRATEGIES)
    p.add_argument("--newton-max-iters", type=int)
    p.add_argument("--max-steps", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrrk", allow_abbrev=False,
        description="Multi-rate Runge-Kutta toolkit: solve benchmark "
                    "problems, scan linear stability, sweep accuracy.")
    parser.add_argument("--config", default=None,
                        help="JSON file of the subcommand's options "
                             "(flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", allow_abbrev=False,
                        help="integrate a benchmark problem")
    ps.add_argument("--problem", required=True, choices=list(_PROBLEMS))
    ps.add_argument("--param", action="append", type=_override,
                    metavar="NAME=VALUE",
                    help="problem parameter override (JSON value)")
    ps.add_argument("--method", default="esdirk3", choices=method_names())
    _add_solver_flags(ps)
    ps.add_argument("--output-dt", type=float, default=None,
                    help="solution.csv grid spacing (default span/1000)")
    ps.add_argument("--columns", type=_ints, default=None,
                    help="comma list of state indices for solution.csv")
    ps.add_argument("--outdir", default=".")
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("stability", allow_abbrev=False,
                        help="multi-rate stability scan")
    pt.add_argument("--model", required=True, choices=("2dof", "4dof"))
    pt.add_argument("--method", default="erk4", choices=method_names())
    pt.add_argument("--interp", choices=KINDS, default="hermite")
    pt.add_argument("--alpha", type=float, required=True,
                    help="fast/slow time-scale ratio")
    pt.add_argument("--kappa", type=_floats, required=True,
                    help="comma list of coupling strengths")
    pt.add_argument("--M", type=_ints, required=True,
                    help="comma list of fast/slow step-size ratios")
    pt.add_argument("--gamma1", type=float, default=0.01)
    pt.add_argument("--omega1", type=float, default=1.0)
    pt.add_argument("--model-beta", type=float, default=1.0,
                    help="4-DOF damping ratio")
    pt.add_argument("--c-max", type=float, default=100.0,
                    help="largest scanned normalized step")
    pt.add_argument("--outdir", default=".")
    pt.set_defaults(func=cmd_stability)

    pa = sub.add_parser("accuracy", allow_abbrev=False,
                        help="single- vs multi-rate propagator error sweep")
    pa.add_argument("--method", default="erk4", choices=method_names())
    pa.add_argument("--interp", choices=KINDS, default="hermite")
    pa.add_argument("--C", type=_floats, required=True,
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
    pa.set_defaults(func=cmd_accuracy, model="4dof")
    return parser


def _config_flags(path: str) -> list[str]:
    """The JSON config file's values as ``--key-name=value`` flags."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in values.items():
        if not (key == "param" and isinstance(value, list)):
            value = [value]         # only --param repeats
        flags += [f"--{key.replace('_', '-')}="
                  + (v if isinstance(v, str) else json.dumps(v))
                  for v in value if v is not None]
    return flags


def main(argv=None) -> int:
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        known, rest = pre.parse_known_args(argv)
        if known.config is not None:
            # After the subcommand and before the user's flags, which win.
            rest[1:1] = _config_flags(known.config)
        args = build_parser().parse_args(rest)
        return args.func(args)
    # LinAlgError first: it is a ValueError.
    except np.linalg.LinAlgError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"usage error: the request did not fit in memory{detail}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
