"""Alternating timings of two ``src`` trees on the benchmark's workloads.

    python tools/pairs.py alternate PARENT_SRC CHANGE_SRC
        [--workload inverter|stability] [--inputs 44 45 46 47]
        [--pairs 10] [--rounds 1]
    PYTHONPATH=SRC python tools/pairs.py measure [--workload ...]
        [--inputs ...] [--rounds 1]

``alternate`` runs ``measure`` once per side and pair, each in its own
process with ``PYTHONPATH`` set to that side's tree: the parent first in
even pairs, the change first in odd ones, so a slow spell of the host does
not fall on one side only.

On the ``inverter`` workload (the default), ``measure`` builds each input
``k`` as `perfbench/cases.py`'s ``inverter_case(k)`` (input ``k`` is
sub-seed ``k``, so the benchmark's ``--seed 11`` runs inputs 44-47), runs
one untimed MR integration of the first input to warm up, then integrates
every input in SR and MR, ``--rounds`` times.  Each integration is timed
between two machine-speed probes and scaled by them as the benchmark
scales its samples (`perfbench/speed.py`).  Two phases of each run are
timed and scaled too: the fast phase, the time inside
`adapt.multirate_step`, and output sampling, the time inside the run's
own `adapt._OutputSampler.commit_step` calls.  `integrate` commits a
step's rows after its fast phase, so the fast phase no longer holds the
commits of multirate steps; a fast sub-run's commits to its own sampler
stay fast-phase time, not sampling time.  Per input it reports, as means
over the rounds:

- ``sr_wall_s`` and ``mr_wall_s``, the probe-scaled wall of one run;
- ``sr_sampling_s`` and ``mr_sampling_s``, the output sampling of one run;
- ``sr_attempt_us``, SR wall over SR attempts (accepted and rejected);
- ``fast_attempt_us``, the MR fast phase over MR fast attempts;
- ``fast_to_sr``, the ratio of the two,

and, over the inputs, the means of the walls and their ratio ``mr_sr``.
Its counters are each run's `StepStats`.

On the ``stability`` workload, ``measure`` sweeps the 504 cells of
`perfbench/cases.py`'s ``stability_cells`` through
`stability.table_entry` ``--rounds`` times, in the benchmark's shuffled
order, after one untimed cell; ``--inputs`` is ignored.  As in
`perfbench/run.py`, each cell is timed alone and scaled by the probes
around it, a probe running at least every ``PROBE_EVERY_S``, and
``wall_s``, the time of one sweep, is the sum over the cells of each
cell's mean scaled time.  ``M<M>.wall_s`` is that sum over the cells of
one column M of the tables, and ``<table>.wall_s`` over the cells of one
table: ``2dof-erk4`` and ``2dof``, whose models are 2 x 2, and ``4dof``.
Its counters are the cells' entries.

Either prints the metrics as one JSON object, with the counters.
``alternate`` prints, per metric, the median of each side, the parent's
interquartile range, the median of the paired ratios change/parent and
the number of pairs in which the change reads lower, then whether the two
sides have the same counters.  As in the benchmark, BLAS runs on one
thread and ``measure`` pins glibc's mmap threshold: left dynamic, it
moves with the allocation history, and so does the cost of every array
above it.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Each workload and the metric its pairs' progress lines show.
HEADLINE = {"inverter": "mr_wall_s", "stability": "wall_s"}
DEFAULT_INPUTS = (44, 45, 46, 47)
DEFAULT_PAIRS = 10
# Fewer pairs than this cannot tell a gain of a few percent from the
# host's noise.
MIN_PAIRS = 6
# glibc's M_MMAP_THRESHOLD, as perfbench/run.py sets it.
MMAP_THRESHOLD = 128 * 1024
# Longest stretch of stability cells between two speed probes, in
# seconds, as in perfbench/run.py.
PROBE_EVERY_S = 1.0


def _import_perfbench():
    """Put ``perfbench/`` on the import path, once."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))


def measure(inputs, rounds):
    """Metrics and counters of ``rounds`` SR and MR runs of each input.

    The timing wrappers it puts on `adapt` are removed when it returns.
    """
    _import_perfbench()
    import cases
    from speed import SpeedLog

    from mrrk import adapt
    phase_s = {"fast": 0.0, "sampling": 0.0}
    timing = [False]

    def timed(fn, phase):
        def wrapper(*args, **kw):
            # A call inside a timed call is time of the outer call's phase.
            if timing[0]:
                return fn(*args, **kw)
            timing[0] = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                phase_s[phase] += time.perf_counter() - t0
                timing[0] = False
        return wrapper

    originals = adapt.multirate_step, adapt._OutputSampler.commit_step
    adapt.multirate_step = timed(originals[0], "fast")
    adapt._OutputSampler.commit_step = timed(originals[1], "sampling")
    try:
        built = {k: cases.inverter_case(k) for k in inputs}
        warm = built[inputs[0]]
        adapt.integrate(warm.problem, warm.method, warm.mr)
        log = SpeedLog()
        samples = {k: {"sr": [], "mr": [], "fast": [], "sr_sampling": [],
                       "mr_sampling": []} for k in inputs}
        counters = {}
        for _ in range(rounds):
            for k, case in built.items():
                for mode in ("sr", "mr"):
                    gc.collect()
                    phase_s.update(fast=0.0, sampling=0.0)
                    t0 = time.perf_counter()
                    cfg = case.sr if mode == "sr" else case.mr
                    res = adapt.integrate(case.problem, case.method, cfg)
                    took = time.perf_counter() - t0
                    interval = log.interval
                    log.close()
                    scale = log.scale(interval)
                    samples[k][mode].append(took * scale)
                    samples[k][f"{mode}_sampling"].append(
                        phase_s["sampling"] * scale)
                    if mode == "mr":
                        samples[k]["fast"].append(phase_s["fast"] * scale)
                    stats = asdict(res.stats)
                    stats.pop("wall_time")
                    counters[f"{k}.{mode}"] = stats
    finally:
        adapt.multirate_step, adapt._OutputSampler.commit_step = originals
    metrics = {}
    mean = statistics.fmean
    for k in inputs:
        sr, mr = counters[f"{k}.sr"], counters[f"{k}.mr"]
        sr_attempt = mean(samples[k]["sr"]) / _attempts_of(sr, "global")
        fast_attempt = mean(samples[k]["fast"]) / _attempts_of(mr, "fast")
        metrics.update({
            f"{k}.sr_wall_s": mean(samples[k]["sr"]),
            f"{k}.mr_wall_s": mean(samples[k]["mr"]),
            f"{k}.sr_sampling_s": mean(samples[k]["sr_sampling"]),
            f"{k}.mr_sampling_s": mean(samples[k]["mr_sampling"]),
            f"{k}.sr_attempt_us": 1e6 * sr_attempt,
            f"{k}.fast_attempt_us": 1e6 * fast_attempt,
            f"{k}.fast_to_sr": fast_attempt / sr_attempt,
        })
    for mode in ("sr", "mr"):
        metrics[f"{mode}_wall_s"] = mean(metrics[f"{k}.{mode}_wall_s"]
                                         for k in inputs)
    metrics["mr_sr"] = metrics["mr_wall_s"] / metrics["sr_wall_s"]
    return {"metrics": metrics, "counters": counters}


def measure_stability(rounds):
    """Metrics and entries of ``rounds`` sweeps of the stability cells."""
    _import_perfbench()
    import numpy as np

    import cases
    from speed import SpeedLog

    from mrrk import stability
    cells = cases.stability_cells()
    order = np.random.default_rng(0).permutation(len(cells))
    first = cells[order[0]]
    stability.table_entry(first.model, first.method, first.interp, first.M)
    log = SpeedLog()
    times = [[] for _ in cells]
    counters = {}
    t_probe = time.perf_counter()
    for _ in range(rounds):
        for c in order:
            cell = cells[c]
            t0 = time.perf_counter()
            entry = stability.table_entry(cell.model, cell.method,
                                          cell.interp, cell.M)
            times[c].append((time.perf_counter() - t0, log.interval))
            counters[".".join(map(str, cell.id))] = entry
            if time.perf_counter() - t_probe > PROBE_EVERY_S:
                gc.collect()
                log.close()
                t_probe = time.perf_counter()
    log.close()
    cell_s = [statistics.fmean(t * log.scale(j) for t, j in ts)
              for ts in times]
    metrics = {"wall_s": sum(cell_s)}
    for M in cases.M_COLS:
        metrics[f"M{M}.wall_s"] = sum(t for t, cell in zip(cell_s, cells)
                                      if cell.M == M)
    for table in dict.fromkeys(cell.table for cell in cells):
        metrics[f"{table}.wall_s"] = sum(t for t, cell in zip(cell_s, cells)
                                         if cell.table == table)
    return {"metrics": metrics, "counters": counters}


def _attempts_of(counters, level):
    """Attempts at ``level`` ("global" or "fast") from a counter dict."""
    return (counters[f"accepted_{level}"]
            + counters[f"rejected_{level}_error"]
            + counters[f"rejected_{level}_convergence"])


def summarize(pairs):
    """Per metric of (parent, change) metric dicts: a dict of the parent's
    and the change's medians, the parent's interquartile range (q1, q3),
    the median of the paired ratios change/parent, the pairs in which the
    change reads lower ("wins"; ties count for neither side) and the
    number of pairs."""
    out = {}
    for name in pairs[0][0]:
        a = [parent[name] for parent, _ in pairs]
        b = [change[name] for _, change in pairs]
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        out[name] = {
            "parent": statistics.median(a),
            "change": statistics.median(b),
            "parent_iqr": (q1, q3),
            "ratio": statistics.median(y / x for x, y in zip(a, b)),
            "wins": sum(y < x for x, y in zip(a, b)),
            "pairs": len(pairs),
        }
    return out


def _run_side(src, workload, inputs, rounds):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run(
        [sys.executable, __file__, "measure", "--workload", workload,
         "--rounds", str(rounds), "--inputs", *map(str, inputs)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def alternate(parent_src, change_src, workload, inputs, pairs, rounds):
    headline = HEADLINE[workload]
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = _run_side(parent_src if side == "parent"
                                  else change_src, workload, inputs, rounds)
        runs.append((got["parent"], got["change"]))
        print(f"pair {i + 1}/{pairs}: {headline} parent "
              f"{got['parent']['metrics'][headline]:.4f} change "
              f"{got['change']['metrics'][headline]:.4f}", file=sys.stderr)
    summary = summarize([(p["metrics"], c["metrics"]) for p, c in runs])
    print(f"{'metric':24} {'parent':>10} {'change':>10} {'parent IQR':>21} "
          f"{'ratio':>7} {'wins':>6}")
    for name, s in summary.items():
        q1, q3 = s["parent_iqr"]
        print(f"{name:24} {s['parent']:10.4g} {s['change']:10.4g} "
              f"[{q1:9.4g}, {q3:9.4g}] {s['ratio']:7.4f} "
              f"{s['wins']:>2}/{s['pairs']}")
    moved = sorted(run for run, counters in runs[0][0]["counters"].items()
                   if counters != runs[0][1]["counters"][run])
    print("counters: " + (f"differ in {', '.join(moved)}" if moved
                          else "identical on both sides"))
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    alt = sub.add_parser("alternate", help="time two src trees in pairs")
    alt.add_argument("parent_src", type=Path)
    alt.add_argument("change_src", type=Path)
    alt.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    run = sub.add_parser("measure", help="time the mrrk on the import path")
    for p in (alt, run):
        p.add_argument("--workload", choices=HEADLINE, default="inverter")
        p.add_argument("--inputs", type=int, nargs="+",
                       default=list(DEFAULT_INPUTS))
        p.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)
    if args.cmd == "measure":
        try:
            ctypes.CDLL("libc.so.6").mallopt(-3, MMAP_THRESHOLD)
        except (OSError, AttributeError):  # not glibc: it stays dynamic
            pass
        print(json.dumps(measure_stability(args.rounds)
                         if args.workload == "stability"
                         else measure(args.inputs, args.rounds)))
    else:
        if args.pairs < MIN_PAIRS or args.rounds < 1:
            ap.error(f"--pairs must be at least {MIN_PAIRS} and --rounds "
                     "at least 1")
        alternate(args.parent_src, args.change_src, args.workload,
                  args.inputs, args.pairs, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
