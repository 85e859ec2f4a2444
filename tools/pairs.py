"""Alternating timings of two ``src`` trees on the benchmark's inverter inputs.

    python tools/pairs.py alternate PARENT_SRC CHANGE_SRC
        [--inputs 44 45 46 47] [--pairs 10] [--rounds 1]
    PYTHONPATH=SRC python tools/pairs.py measure [--inputs ...] [--rounds 1]

``alternate`` runs ``measure`` once per side and pair, each in its own
process with ``PYTHONPATH`` set to that side's tree: the parent first in
even pairs, the change first in odd ones, so a slow spell of the host does
not fall on one side only.  ``measure`` builds each input ``k`` as
`perfbench/cases.py`'s ``inverter_case(k)`` (input ``k`` is sub-seed ``k``,
so the benchmark's ``--seed 11`` runs inputs 44-47), runs one untimed MR
integration of the first input to warm up, then integrates every input
in SR and MR, ``--rounds`` times.  Each integration is timed between two
machine-speed probes and scaled by them as the benchmark scales its
samples (`perfbench/speed.py`); in MR, the time inside
`adapt.multirate_step`, the fast phase, is timed and scaled too.  Per
input it reports, as means over the rounds:

- ``sr_wall_s`` and ``mr_wall_s``, the probe-scaled wall of one run;
- ``sr_attempt_us``, SR wall over SR attempts (accepted and rejected);
- ``fast_attempt_us``, the MR fast phase over MR fast attempts;
- ``fast_to_sr``, the ratio of the two,

and, over the inputs, the means of the walls and their ratio ``mr_sr``.
It prints them as one JSON object, with each run's counters.

``alternate`` prints, per metric, the median of each side, the parent's
interquartile range, the median of the paired ratios change/parent and
the number of pairs in which the change reads lower, then whether the two
sides made the same attempts.  BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DEFAULT_INPUTS = (44, 45, 46, 47)
DEFAULT_PAIRS = 10
# Fewer pairs than this cannot tell a gain of a few percent from the
# host's noise.
MIN_PAIRS = 6


def measure(inputs, rounds):
    """Metrics and counters of ``rounds`` SR and MR runs of each input."""
    sys.path.insert(0, str(PERFBENCH))
    import cases
    from speed import SpeedLog

    from mrrk import adapt
    fast_s = [0.0]
    multirate_step = adapt.multirate_step

    def timed_multirate_step(*args, **kw):
        t0 = time.perf_counter()
        try:
            return multirate_step(*args, **kw)
        finally:
            fast_s[0] += time.perf_counter() - t0

    adapt.multirate_step = timed_multirate_step
    built = {k: cases.inverter_case(k) for k in inputs}
    warm = built[inputs[0]]
    adapt.integrate(warm.problem, warm.method, warm.mr)
    log = SpeedLog()
    samples = {k: {"sr": [], "mr": [], "fast": []} for k in inputs}
    counters = {}
    for _ in range(rounds):
        for k, case in built.items():
            for mode in ("sr", "mr"):
                gc.collect()
                fast_s[0] = 0.0
                t0 = time.perf_counter()
                res = adapt.integrate(case.problem, case.method,
                                      case.sr if mode == "sr" else case.mr)
                took = time.perf_counter() - t0
                interval = log.interval
                log.close()
                scale = log.scale(interval)
                samples[k][mode].append(took * scale)
                if mode == "mr":
                    samples[k]["fast"].append(fast_s[0] * scale)
                stats = asdict(res.stats)
                stats.pop("wall_time")
                counters[f"{k}.{mode}"] = stats
    metrics = {}
    mean = statistics.fmean
    for k in inputs:
        sr, mr = counters[f"{k}.sr"], counters[f"{k}.mr"]
        sr_attempt = mean(samples[k]["sr"]) / _attempts_of(sr, "global")
        fast_attempt = mean(samples[k]["fast"]) / _attempts_of(mr, "fast")
        metrics.update({
            f"{k}.sr_wall_s": mean(samples[k]["sr"]),
            f"{k}.mr_wall_s": mean(samples[k]["mr"]),
            f"{k}.sr_attempt_us": 1e6 * sr_attempt,
            f"{k}.fast_attempt_us": 1e6 * fast_attempt,
            f"{k}.fast_to_sr": fast_attempt / sr_attempt,
        })
    for mode in ("sr", "mr"):
        metrics[f"{mode}_wall_s"] = mean(metrics[f"{k}.{mode}_wall_s"]
                                         for k in inputs)
    metrics["mr_sr"] = metrics["mr_wall_s"] / metrics["sr_wall_s"]
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


def _run_side(src, inputs, rounds):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run(
        [sys.executable, __file__, "measure", "--rounds", str(rounds),
         "--inputs", *map(str, inputs)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def alternate(parent_src, change_src, inputs, pairs, rounds):
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = _run_side(parent_src if side == "parent"
                                  else change_src, inputs, rounds)
        runs.append((got["parent"], got["change"]))
        print(f"pair {i + 1}/{pairs}: mr_wall_s parent "
              f"{got['parent']['metrics']['mr_wall_s']:.4f} change "
              f"{got['change']['metrics']['mr_wall_s']:.4f}", file=sys.stderr)
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
        p.add_argument("--inputs", type=int, nargs="+",
                       default=list(DEFAULT_INPUTS))
        p.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)
    if args.cmd == "measure":
        print(json.dumps(measure(args.inputs, args.rounds)))
    else:
        if args.pairs < MIN_PAIRS or args.rounds < 1:
            ap.error(f"--pairs must be at least {MIN_PAIRS} and --rounds "
                     "at least 1")
        alternate(args.parent_src, args.change_src, args.inputs,
                  args.pairs, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
