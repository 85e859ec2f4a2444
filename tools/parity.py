"""Bitwise parity of mrrk's integrations over a fixed set of runs.

    PYTHONPATH=src python tools/parity.py run OUT.json
    python tools/parity.py compare A.json B.json

``run`` integrates every run of the parity set with the ``mrrk`` on the
import path (``compare`` does not import it) and prints one line per
run: its name and one sha256 per part of the run (`PARTS`): its ``t``
and ``y``, its activity records, and every ``StepStats`` field except
``wall_time``.  A failed run digests the failure's ``t`` and ``y``, no
activity and the failure's counters.  It then prints one sha256 for the
stability part: the 504 cells of the published stability tables
(`perfbench.cases.stability_cells`), each cell's `stability.table_entry`
and the spectral radii of its scan over the integer C grid 1..100.  Last
comes the CLI part: each invocation of `CLI_RUNS` runs ``mrrk.cli.main``
into its own temporary directory, and ``run`` digests its exit code and
each file it wrote, whole except ``stats.json``, which is digested
without ``wall_time``; the names of the digested files record which
files an invocation wrote, none for an error exit.  It writes the
digests, with each cell's entry and radii digest, to OUT.json and the
runs' dense output ``y_out`` to OUT.npz beside it.  OUT.json also keeps
each run's mode and its counter values.  To check a change against an
earlier commit, run the same script once with each commit's ``src`` on
``PYTHONPATH`` and compare the two files.

``compare`` lists each run whose digests differ with the parts that
differ, each stability cell that differs and each CLI artifact that
differs.  It measures each run's ``y_out`` deviation in the run's
weighted error norm, max |a - b| / (rtol |a| + atol), lists each run
whose deviation exceeds ``Y_OUT_TOL`` with its value, and reports the
largest.  For each run whose counters differ it
prints every counter that moved as before -> after, then the sums of
those runs' counters per mode and the global and fast rejection rates of
those sums, so a change that is not bitwise shows the work it moved and
a controller change its effect on rejections in one line.  It exits
with 1 when a digest differs, a run is missing, or a deviation exceeds
``Y_OUT_TOL``.

The set has 49 runs: four seeded 1000-stage inverter chains, a
400-point Burgers and a 20-unit heating system over [0, 10 h], in SR and
MR, with JacA and JacB, esdirk3, esdirk4 and erk4, with and without an
output grid.  The methods' own slow interpolants are the dense and
Hermite kinds; three more MR runs select the linear kind.  Two more runs,
SR and MR, integrate a 600-stage chain without Jacobians, so every stage
solve differentiates by `newton.fd_jacobian`: sparse for the full system,
dense for the fast sub-systems.  BLAS runs on one thread, as results
depend on the thread count.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# The repository root, from which the stability part imports
# `perfbench.cases`.
ROOT = Path(__file__).resolve().parents[1]

# Largest weighted y_out deviation that `compare` passes.
Y_OUT_TOL = 1e-12

INVERTER_SEEDS = (11, 21, 31, 41)
# (method, Jacobian strategy, with an output grid) per problem; each runs
# in SR and in MR.
INVERTER_RUNS = (("esdirk3", "JacB", True), ("esdirk3", "JacA", False),
                 ("esdirk4", "JacB", True))
BURGERS_RUNS = (("esdirk3", "JacB", True), ("esdirk3", "JacA", False),
                ("esdirk4", "JacB", False), ("esdirk4", "JacA", True),
                ("erk4", "JacB", True), ("erk4", "JacB", False))
HEATING_RUNS = (("esdirk3", "JacB", True), ("esdirk3", "JacA", False),
                ("esdirk4", "JacB", False), ("esdirk4", "JacA", True))
# (problem label, method) of the MR runs with linear slow interpolation,
# each with JacB and an output grid.
LINEAR_RUNS = (("inverter11", "esdirk3"), ("burgers", "esdirk3"),
               ("burgers", "erk4"))
# Stages of the chain without Jacobians, and its span: the input ramp
# starts at t = 5 and passes U_tau, where the chain starts to move, at 6.
FD_N = 600
FD_SPAN = (0.0, 7.0)

_BURGERS_SOLVE = ["solve", "--problem", "burgers", "--param", "N=100",
                  "--param", "t_span=[0, 0.5]", "--method", "esdirk3",
                  "--mode", "multi", "--phi", "0.2", "--output-dt", "0.05"]
# (name, mrrk.cli argv without --outdir) of the CLI part: a stability scan
# of each model kind, an accuracy sweep, a Burgers solve that succeeds and
# one that runs out of steps, and two error exits that write no file: a
# scan with M = 0 (exit 2) and a sweep whose C overflows (exit 4).
CLI_RUNS = (
    ("stability-2dof",
     ["stability", "--model", "2dof", "--method", "erk4", "--interp",
      "hermite", "--alpha", "10", "--kappa", "1e-4,0.1", "--M", "2,8",
      "--c-max", "12.5"]),
    ("stability-4dof",
     ["stability", "--model", "4dof", "--method", "esdirk4", "--interp",
      "dense", "--alpha", "3", "--gamma1", "0.02", "--omega1", "1.5",
      "--model-beta", "2", "--kappa", "0.1,1", "--M", "2,4",
      "--c-max", "12.5"]),
    ("accuracy",
     ["accuracy", "--method", "erk4", "--interp", "hermite",
      "--C", "0.01,0.1,0.5,2", "--M", "4", "--steps", "10"]),
    ("solve-burgers", _BURGERS_SOLVE),
    ("solve-burgers-max-steps", _BURGERS_SOLVE + ["--max-steps", "3"]),
    ("stability-M0",
     ["stability", "--model", "2dof", "--alpha", "10", "--kappa", "0.1",
      "--M", "0"]),
    ("accuracy-overflow", ["accuracy", "--C", "1e300"]),
)


def _inverter(seed: int):
    """A 1000-stage chain whose pulse breakpoints are jittered by +-0.5,
    integrated until 3 time units after the ramp starts."""
    from mrrk import bench
    jitter = np.random.default_rng(seed).uniform(-0.5, 0.5, 4)
    times = np.array([5.0, 10.0, 15.0, 20.0]) + jitter
    values = (0.0, 5.0, 5.0, 0.0)
    params = bench.InverterChainParams(
        breakpoints=((0.0, 0.0),) + tuple(zip(times.tolist(), values)),
        t_span=(0.0, float(times[0]) + 3.0))
    return bench.make_inverter_chain(params)


def parity_set():
    """(name, problem, method name, SolverConfig) of every run."""
    from mrrk import bench
    from mrrk.adapt import SolverConfig
    from mrrk.interp import LINEAR
    problems = [(f"inverter{s}", _inverter(s), INVERTER_RUNS, 0.05)
                for s in INVERTER_SEEDS]
    problems.append(("burgers", bench.make_burgers(bench.BurgersParams(
        N=400, t_span=(0.0, 2.0))), BURGERS_RUNS, 0.1))
    problems.append(("heating", bench.make_heating(bench.HeatingParams(
        N=20, t_span=(0.0, 36000.0))), HEATING_RUNS, 0.05))
    for label, prob, runs, phi in problems:
        grid = np.linspace(*prob.t_span, 201)
        for method, strategy, with_grid in runs:
            for mode in ("single", "multi"):
                cfg = SolverConfig(rtol=1e-5, atol=1e-5, mode=mode, phi=phi,
                                   jacobian_strategy=strategy,
                                   t_eval=grid if with_grid else None)
                name = (f"{label}-{method}-{strategy}-{mode}"
                        + ("-grid" if with_grid else ""))
                yield name, prob, method, cfg
    probs = {label: (prob, phi) for label, prob, _, phi in problems}
    for label, method in LINEAR_RUNS:
        prob, phi = probs[label]
        cfg = SolverConfig(rtol=1e-5, atol=1e-5, mode="multi", phi=phi,
                           interp=LINEAR, jacobian_strategy="JacB",
                           t_eval=np.linspace(*prob.t_span, 201))
        yield f"{label}-{method}-JacB-multi-linear-grid", prob, method, cfg
    fd = replace(bench.make_inverter_chain(bench.InverterChainParams(
        N=FD_N, t_span=FD_SPAN)), jacobian=None, jacobian_restricted=None)
    for mode in ("single", "multi"):
        cfg = SolverConfig(rtol=1e-5, atol=1e-5, mode=mode, phi=0.05,
                           jacobian_strategy="JacB",
                           t_eval=np.linspace(*FD_SPAN, 201))
        yield f"inverter-fd-esdirk3-JacB-{mode}-grid", fd, "esdirk3", cfg


# The digested parts of a run, in print order: the trajectory (t, y), the
# activity records and the counters.
PARTS = ("trajectory", "activity", "counters")


def counter_values(stats) -> dict:
    """The ``StepStats`` fields of a run but ``wall_time``."""
    counters = asdict(stats)
    counters.pop("wall_time")
    return counters


def digests(t, y, activity, stats, failed=False) -> dict:
    """sha256 of each of a run's `PARTS`, the counters without wall_time.

    The trajectory digest of a failed run is prefixed with ``failed:``.
    """
    traj = hashlib.sha256()
    traj.update(np.ascontiguousarray(t, dtype=float).tobytes())
    traj.update(np.ascontiguousarray(y, dtype=float).tobytes())
    act = hashlib.sha256()
    for a in activity:
        act.update(repr((a.step_index, a.t_start, a.t_end, a.kind)).encode())
        act.update(np.asarray(a.active_indices, dtype=np.int64).tobytes())
    cnt = hashlib.sha256(
        repr(sorted(counter_values(stats).items())).encode())
    return {"trajectory": ("failed:" if failed else "") + traj.hexdigest(),
            "activity": act.hexdigest(), "counters": cnt.hexdigest()}


def stability_part() -> dict:
    """Each table cell's entry and radii digest, and one digest of all."""
    from mrrk import stability
    sys.path.append(str(ROOT))
    from perfbench.cases import stability_cells
    grid = np.arange(1.0, 101.0)
    cells, total = {}, hashlib.sha256()
    for c in stability_cells():
        entry = stability.table_entry(c.model, c.method, c.interp, c.M)
        rho = stability.rho_curve(c.model, c.method, c.interp, c.M, grid)
        cells[repr(c.id)] = cell = [repr(entry),
                                    hashlib.sha256(rho.tobytes()).hexdigest()]
        total.update(repr((c.id, cell)).encode())
    return {"digest": total.hexdigest(), "cells": cells}


def cli_part() -> dict:
    """Per `CLI_RUNS` invocation: its exit code and each file's digest."""
    from mrrk.cli import main
    part = {}
    for name, argv in CLI_RUNS:
        with tempfile.TemporaryDirectory() as outdir:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--outdir", outdir])
            files = {"exit code": str(code)}
            for path in sorted(Path(outdir).iterdir()):
                data = path.read_bytes()
                if path.name == "stats.json":
                    stats = json.loads(data)
                    stats.pop("wall_time")
                    data = json.dumps(stats, sort_keys=True).encode()
                files[path.name] = hashlib.sha256(data).hexdigest()
        part[name] = files
    return part


def cmd_run(out: Path) -> int:
    from mrrk.adapt import IntegrationFailure, integrate
    from mrrk.tableaux import get_method
    runs, y_out = {}, {}
    for name, prob, method, cfg in parity_set():
        try:
            res = integrate(prob, get_method(method), cfg)
            stats = res.stats
            d = digests(res.t, res.y, res.activity, stats)
            if res.y_out is not None:
                y_out[name] = res.y_out
        except IntegrationFailure as exc:
            stats = exc.stats
            d = digests([exc.t], [exc.y], [], stats, failed=True)
        runs[name] = {**d, "rtol": cfg.rtol, "atol": cfg.atol,
                      "mode": cfg.mode, "stats": counter_values(stats)}
        print(name, *(f"{part}={d[part][:16]}" for part in PARTS),
              flush=True)
    stab = stability_part()
    print(f"stability: {len(stab['cells'])} cells "
          f"digest={stab['digest'][:16]}", flush=True)
    cli = cli_part()
    for name, files in cli.items():
        print(f"cli {name}:", *(f"{f}={d[:16]}" for f, d in files.items()),
              flush=True)
    out.write_text(json.dumps({"runs": runs, "stability": stab, "cli": cli},
                              indent=1) + "\n")
    np.savez_compressed(out.with_suffix(".npz"), **y_out)
    return 0


def _moves(before: dict, after: dict) -> str:
    """The counters whose values differ, as ``name before -> after``."""
    return ", ".join(f"{k} {before.get(k)} -> {after.get(k)}"
                     for k in sorted(set(before) | set(after))
                     if before.get(k) != after.get(k)) or "none"


def _rejection_rate(stats: dict, level: str) -> str:
    """Rejected share of a level's attempts ("global" or "fast")."""
    rejected = (stats.get(f"rejected_{level}_error", 0)
                + stats.get(f"rejected_{level}_convergence", 0))
    attempts = stats.get(f"accepted_{level}", 0) + rejected
    return f"{rejected / attempts:.1%}" if attempts else "none attempted"


def counter_moves(ra: dict, rb: dict, totals: dict):
    """Print the counters of one run that moved and add them to
    ``totals[mode]``; files written without counter values print
    nothing."""
    if "stats" not in ra or "stats" not in rb:
        return
    print(f"  {_moves(ra['stats'], rb['stats'])}")
    before, after = totals.setdefault(rb["mode"], ({}, {}))
    for total, stats in ((before, ra["stats"]), (after, rb["stats"])):
        for k, v in stats.items():
            total[k] = total.get(k, 0) + v


def cmd_compare(a: Path, b: Path) -> int:
    fa, fb = json.loads(a.read_text()), json.loads(b.read_text())
    da, db = fa["runs"], fb["runs"]
    ya, yb = np.load(a.with_suffix(".npz")), np.load(b.with_suffix(".npz"))
    bad = 0
    totals = {}
    for name in sorted(set(da) | set(db)):
        if name not in da or name not in db:
            print(f"{name}: missing from {a if name not in da else b}")
            bad += 1
            continue
        moved = [part for part in PARTS if da[name][part] != db[name][part]]
        if moved:
            print(f"{name}: {', '.join(moved)} differ")
            bad += 1
        if "counters" in moved:
            counter_moves(da[name], db[name], totals)
    for mode, (before, after) in sorted(totals.items()):
        print(f"counters of the moved {mode} runs, summed: "
              + _moves(before, after))
        print(f"rejection rates of the moved {mode} runs: " + ", ".join(
            f"{level} {_rejection_rate(before, level)} -> "
            f"{_rejection_rate(after, level)}"
            for level in ("global", "fast")))
    sa, sb = fa["stability"]["cells"], fb["stability"]["cells"]
    cells = sorted(set(sa) | set(sb))
    moved = [c for c in cells if sa.get(c) != sb.get(c)]
    for c in moved:
        print(f"stability cell {c}: {sa.get(c)} != {sb.get(c)}")
    print(f"stability: {len(cells) - len(moved)} of {len(cells)} cells "
          "identical")
    if fa["stability"]["digest"] != fb["stability"]["digest"]:
        bad += 1
    ca, cb = fa["cli"], fb["cli"]
    artifacts = sorted({(n, f) for c in (ca, cb) for n in c for f in c[n]})
    moved = [(n, f) for n, f in artifacts
             if ca.get(n, {}).get(f) != cb.get(n, {}).get(f)]
    for n, f in moved:
        print(f"cli {n}: {f} differs")
    print(f"cli: {len(artifacts) - len(moved)} of {len(artifacts)} "
          "artifacts identical")
    bad += len(moved)
    worst, worst_name = 0.0, None
    for name in sorted(set(ya.files) & set(yb.files)):
        u, v = ya[name], yb[name]
        if u.shape != v.shape:
            print(f"{name}: y_out shapes differ, {u.shape} != {v.shape}")
            bad += 1
            continue
        w = da[name]["rtol"] * np.abs(u) + da[name]["atol"]
        dev = float(np.max(np.abs(u - v) / w)) if u.size else 0.0
        if not dev <= Y_OUT_TOL:
            print(f"{name}: weighted y_out deviation {dev:.3g}")
        if not dev <= worst:
            worst, worst_name = dev, name
    print(f"{len(set(da) & set(db))} runs in both files, {bad} mismatched "
          "(the stability part counting as one, each CLI artifact as "
          "one); "
          f"largest weighted y_out deviation {worst:.3g}"
          + (f" ({worst_name})" if worst_name else ""))
    return 1 if bad or not worst <= Y_OUT_TOL else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="integrate the parity set")
    run.add_argument("out", type=Path, help="digest file (.json)")
    cmp_ = sub.add_parser("compare", help="compare two digest files")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args.out)
    return cmd_compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
