#!/usr/bin/env python3
"""mrrk benchmark: SR/MR time to solution, the stability tables, layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload inverter --seed 1 --seconds 50 --trace 0

Workloads: ``inverter`` integrates seeded inputs in single-rate (SR) and
multi-rate (MR) mode with ``adapt.integrate``; ``stability`` computes the
504 cells of the paper's three stability tables with
``stability.table_entry`` and ignores the seed.  The loop is closed: one
process, one thread, one integration (or table cell) at a time.

``--trace 0`` prints the end-to-end metrics of untraced samples, with
times scaled to a reference machine speed by the probe in speed.py;
``--trace 1`` alternates untraced and traced samples of one input and
prints the per-layer metrics, including the tracing overhead.  README.md
here defines every metric.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import ctypes
import os

# Fix the BLAS thread count before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Pin glibc's mmap threshold (M_MMAP_THRESHOLD = -3).  Left dynamic, it
# moves with the allocation history, and peak memory then differed by up to
# a fifth between inputs that allocate the same arrays.
MMAP_THRESHOLD = 128 * 1024
try:
    ctypes.CDLL("libc.so.6").mallopt(-3, MMAP_THRESHOLD)
except (OSError, AttributeError):  # not glibc: the threshold stays dynamic
    pass

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("inverter", "stability")
# Inputs per integrator run, each from its own sub-seed: the run's mean
# then spans several inputs instead of one draw of the seeded generator.
INPUTS_PER_RUN = 4
# Set-up repetitions; setup_s is their median.
SETUP_REPEATS = 9
# Table cells between two set-up timings of a stability run.
STABILITY_SETUP_EVERY = 63
# Longest stretch of table cells between two speed probes, in seconds.
PROBE_EVERY_S = 1.0
# Untraced/traced sample pairs of a traced integrator run; a stability
# sweep is long enough that one pair keeps the run well inside 180 s.
TRACE_PAIRS = 2


def _import_mrrk():
    """Import mrrk from this checkout's source tree, never from elsewhere."""
    if not (SRC / "mrrk" / "__init__.py").is_file():
        raise SystemExit(f"error: mrrk sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mrrk
    if Path(mrrk.__file__).resolve().parent != (SRC / "mrrk").resolve():
        raise SystemExit(f"error: imported mrrk from {mrrk.__file__}, "
                         f"not from {SRC}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Integrator workloads


def _integrate(case, cfg, tracer=None, root=None):
    """One adapt.integrate call; returns (seconds, result)."""
    from mrrk import adapt
    problem = case.problem if tracer is None else tracer.wrap_problem(
        case.problem)
    call = adapt.integrate if tracer is None else tracer.wrap(
        root, adapt.integrate)
    t0 = time.perf_counter()
    result = call(problem, case.method, cfg)
    return time.perf_counter() - t0, result


def _integration_sample(case, tracer=None, modes=("sr", "mr")):
    """SR then MR on one input: ({mode: (seconds, result)}, failures).

    Only integrations that raise fail here; `_check` judges the results.
    """
    out, failures = {}, []
    for mode in modes:
        cfg = case.sr if mode == "sr" else case.mr
        try:
            out[mode] = _integrate(case, cfg, tracer,
                                   f"adapt.integrate.{mode}")
        except Exception as exc:  # a failed integration counts, run goes on
            failures.append((None, f"{case.name} {mode}: "
                                   f"{type(exc).__name__}: {exc}"))
    return out, failures


def _check(case, mode, t_final, y_final, ref):
    """The failure entry of a wrong final state, or None."""
    import cases
    cfg = case.sr if mode == "sr" else case.mr
    why = cases.check_integration(t_final, y_final, ref,
                                  case.problem.t_span[1], cfg)
    return None if why is None else (None, f"{case.name} {mode}: {why}")


def _setup_integrator(workload, seed):
    """Build the run's inputs; returns (cases, set-up seconds per repeat)."""
    import cases
    make = cases.INTEGRATOR_CASES[workload]
    seeds = [seed * INPUTS_PER_RUN + i for i in range(INPUTS_PER_RUN)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = [make(s) for s in seeds]
        times.append(time.perf_counter() - t0)
    return built, times


def run_integrator(workload, seed, seconds):
    """SR and MR samples cycled over the run's inputs until `seconds`.

    A speed probe runs between samples and every time is scaled by it
    (speed.py).  Each timing is the mean over the run's inputs of that
    input's mean scaled sample time.  The final states are checked after
    the loop, once peak memory is read, so that computing a missing
    reference does not count in the run's memory.
    """
    import cases
    from speed import SpeedLog
    log = SpeedLog()
    built, setup = _setup_integrator(workload, seed)
    setup = [(t, log.interval) for t in setup]
    samples, failures = [], []
    attempted = 0
    t_start = time.perf_counter()
    i = 0
    while True:
        if i:
            # Set-up is re-timed between samples so its median sees the
            # same machine conditions as the samples.
            setup += [(t, log.interval)
                      for t in _setup_integrator(workload, seed)[1]]
        k = i % len(built)
        t0 = time.perf_counter()
        for mode in ("sr", "mr"):
            # Collect garbage outside the timed call, so that neither the
            # time nor the peak memory depends on when the collector runs.
            gc.collect()
            out, bad = _integration_sample(built[k], modes=(mode,))
            attempted += 1
            failures += bad
            for sample_s, result in out.values():
                samples.append((k, mode, sample_s, log.interval,
                                result.t[-1], result.y[-1].copy()))
            del out
            log.close()
        took = time.perf_counter() - t0
        i += 1
        elapsed = time.perf_counter() - t_start
        if i >= len(built) and elapsed + took > seconds:
            break
    peak_mb = _peak_rss_mb()
    refs = [cases.reference_final(c) for c in built]
    times = {mode: [[] for _ in built] for mode in ("sr", "mr")}
    raw = []
    for k, mode, sample_s, interval, t_final, y_final in samples:
        bad = _check(built[k], mode, t_final, y_final, refs[k])
        if bad is not None:
            failures.append(bad)
            continue
        times[mode][k].append(sample_s * log.scale(interval))
        raw.append(sample_s)
    sr, mr = ([_mean(t) for t in times[mode] if t] for mode in ("sr", "mr"))
    metrics = {
        "setup_s": _metric(_median([t * log.scale(j) for t, j in setup]),
                           "s"),
        "wall_s": _metric(_mean(sr) + _mean(mr), "s"),
        "sr_wall_s": _metric(_mean(sr), "s"),
        "mr_wall_s": _metric(_mean(mr), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    print(f"{workload}: {i} samples over {len(built)} inputs, "
          f"{len(failures)} failed; mean unscaled integration "
          f"{_mean(raw):.4f} s; median probe {log.median_probe():.5f} s",
          file=sys.stderr)
    return metrics, attempted, failures


def trace_integrator(workload, seed):
    import cases
    built, _ = _setup_integrator(workload, seed)
    case = built[0]
    ref = cases.reference_final(case)
    runs = _alternate(lambda tracer: _integration_sample(case, tracer),
                      TRACE_PAIRS)
    (plain_s, (plain, failures)), (traced_s, (traced, bad)), tracer = runs
    failures += bad
    for mode in set(plain) & set(traced):
        for kept in (plain, traced):
            result = kept[mode][1]
            bad = _check(case, mode, result.t[-1], result.y[-1], ref)
            if bad is not None:
                failures.append(bad)
        if not (plain[mode][1].y[-1] == traced[mode][1].y[-1]).all():
            failures.append((None, f"{workload} {mode}: tracing changed "
                                   "the result"))
    derived = _derived_integrator(plain, tracer, case, ref)
    attempted = 4    # SR and MR in the kept untraced and traced samples
    return tracer, plain_s, traced_s, derived, attempted, failures


def _alternate(sample, pairs):
    """Untraced and traced samples, alternated `pairs` times.

    Returns the fastest untraced (seconds, output), the fastest traced
    (seconds, output) and that traced sample's tracer; the minimum is the
    least noisy estimate of each side's own cost.
    """
    from tracing import Tracer, instrument
    best_plain = best_traced = None
    for _ in range(pairs):
        t0 = time.perf_counter()
        out = sample(None)
        took = time.perf_counter() - t0
        if best_plain is None or took < best_plain[0]:
            best_plain = (took, out)
        tracer = Tracer()
        with instrument(tracer):
            t0 = time.perf_counter()
            out = sample(tracer)
            took = time.perf_counter() - t0
        if best_traced is None or took < best_traced[0]:
            best_traced = (took, out, tracer)
    return best_plain, best_traced[:2], best_traced[2]


def _activity_work(result):
    """Sum of |active_indices| over the accepted steps of one run."""
    return sum(len(r.active_indices) for r in result.activity)


def _derived_integrator(plain, tracer, case, ref):
    """Counts and ratios from StepStats and activity (no tracing needed)."""
    import cases
    d = {}
    if "mr" in plain:
        mr_s, mr = plain["mr"]
        st = mr.stats
        g_att = (st.accepted_global + st.rejected_global_error
                 + st.rejected_global_convergence)
        f_att = (st.accepted_fast + st.rejected_fast_error
                 + st.rejected_fast_convergence)
        dn = [len(r.active_indices) for r in mr.activity if r.kind == "fast"]
        d.update({
            "adapt.global_accepted": (st.accepted_global, "count"),
            "adapt.global_attempts": (g_att, "count"),
            "adapt.global_accept_ratio": (_ratio(st.accepted_global, g_att),
                                          "ratio"),
            "adapt.fast_accepted": (st.accepted_fast, "count"),
            "adapt.fast_attempts": (f_att, "count"),
            "adapt.fast_accept_ratio": (_ratio(st.accepted_fast, f_att),
                                        "ratio"),
            "adapt.mean_d_n": (_ratio(sum(dn), len(dn)), "count"),
            "adapt.max_d_n": (max(dn, default=0), "count"),
            "adapt.mr_work": (_activity_work(mr), "count"),
            "adapt.mr_wall_s": (mr_s, "s"),
            "accuracy.mr_err": (cases.weighted_error(mr.y[-1], ref, case.mr),
                                "tol"),
        })
    if "sr" in plain:
        sr_s, sr = plain["sr"]
        d["adapt.sr_work"] = (_activity_work(sr), "count")
        d["adapt.sr_wall_s"] = (sr_s, "s")
        d["accuracy.sr_err"] = (cases.weighted_error(sr.y[-1], ref, case.sr),
                                "tol")
    if "sr" in plain and "mr" in plain:
        d["adapt.mr_sr_work_ratio"] = (
            _ratio(d["adapt.mr_work"][0], d["adapt.sr_work"][0]), "ratio")
        d["adapt.mr_sr_wall_ratio"] = (_ratio(plain["mr"][0], plain["sr"][0]),
                                       "ratio")
    fast_us = 1e6 * tracer.mean_duration_under("odecore.rk_step.fast",
                                               "adapt.integrate.mr")
    glob_us = 1e6 * tracer.mean_duration_under("odecore.rk_step.global",
                                               "adapt.integrate.sr")
    d["adapt.fast_attempt_us"] = (fast_us, "us")
    d["adapt.sr_global_attempt_us"] = (glob_us, "us")
    d["adapt.fast_to_global_cost"] = (_ratio(fast_us, glob_us), "ratio")
    return d


# ---------------------------------------------------------------------------
# Stability workload


def _setup_stability():
    """The table cells; returns (cells, set-up seconds per repeat)."""
    import cases
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cells = cases.stability_cells()
        times.append(time.perf_counter() - t0)
    return cells, times


def _stability_cell(cell):
    """One cell through stability.table_entry: (seconds, failure or None)."""
    import cases
    from mrrk import stability
    t0 = time.perf_counter()
    try:
        entry = stability.table_entry(cell.model, cell.method, cell.interp,
                                      cell.M)
    except Exception as exc:  # a failed cell counts, run goes on
        return (time.perf_counter() - t0,
                f"{cell.id}: {type(exc).__name__}: {exc}")
    took = time.perf_counter() - t0
    return took, cases.check_cell(cell, entry)


def _stability_sweep(cells):
    """All cells once: (seconds, failures)."""
    failures = []
    t0 = time.perf_counter()
    for cell in cells:
        _, why = _stability_cell(cell)
        if why is not None:
            failures.append((cell.id, why))
    return time.perf_counter() - t0, failures


def run_stability(seconds):
    """Cells cycled in a fixed shuffled order until `seconds`.

    Every cell runs at least once; the ones a second pass reaches are
    averaged.  A speed probe runs at least every PROBE_EVERY_S and each
    cell time is scaled by the probes around it (speed.py).  wall_s is the
    sum over the cells of each cell's mean scaled time: the time of one
    sweep.  The shuffle spreads each table and each M over the whole pass.
    """
    import numpy as np
    from speed import SpeedLog
    log = SpeedLog()
    cells, setup = _setup_stability()
    setup = [(t, log.interval) for t in setup]
    order = np.random.default_rng(0).permutation(len(cells))
    times = [[] for _ in cells]
    failed = {}
    t_start = t_probe = time.perf_counter()
    n = 0
    while True:
        c = order[n % len(cells)]
        took, why = _stability_cell(cells[c])
        times[c].append((took, log.interval))
        if why is not None:
            failed[cells[c].id] = why
        n += 1
        if n % STABILITY_SETUP_EVERY == 0:
            setup += [(t, log.interval) for t in _setup_stability()[1]]
        now = time.perf_counter()
        if now - t_probe > PROBE_EVERY_S:
            gc.collect()
            log.close()
            t_probe = time.perf_counter()
        nxt = order[n % len(cells)]
        if n >= len(cells) and now - t_start + times[nxt][0][0] > seconds:
            break
    log.close()
    wall = sum(_mean([t * log.scale(j) for t, j in ts]) for ts in times)
    # One operation kind only: the SR and MR names carry the sweep time so
    # every workload reports every end-to-end metric.
    metrics = {
        "setup_s": _metric(_median([t * log.scale(j) for t, j in setup]),
                           "s"),
        "wall_s": _metric(wall, "s"),
        "sr_wall_s": _metric(wall, "s"),
        "mr_wall_s": _metric(wall, "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    raw = sum(_mean([t for t, _ in ts]) for ts in times)
    print(f"stability: {n} cell runs over {len(cells)} cells, "
          f"{len(failed)} cells failed; unscaled sweep {raw:.3f} s; "
          f"median probe {log.median_probe():.5f} s", file=sys.stderr)
    return metrics, len(cells), list(failed.items())


def trace_stability():
    cells, _ = _setup_stability()
    (plain_s, _), (traced_s, (_, failures)), tracer = _alternate(
        lambda tracer: _stability_sweep(cells), 1)
    return tracer, plain_s, traced_s, {}, len(cells), failures


# ---------------------------------------------------------------------------
# Output


# Derived per-layer metrics that not every workload produces; a workload
# that bypasses the layer reports the zero default.
DERIVED_DEFAULTS = {
    name: (0, unit) for name, unit in (
        ("adapt.global_accepted", "count"), ("adapt.global_attempts", "count"),
        ("adapt.global_accept_ratio", "ratio"),
        ("adapt.fast_accepted", "count"), ("adapt.fast_attempts", "count"),
        ("adapt.fast_accept_ratio", "ratio"), ("adapt.mean_d_n", "count"),
        ("adapt.max_d_n", "count"), ("adapt.mr_work", "count"),
        ("adapt.sr_work", "count"), ("adapt.mr_sr_work_ratio", "ratio"),
        ("adapt.mr_wall_s", "s"), ("adapt.sr_wall_s", "s"),
        ("adapt.mr_sr_wall_ratio", "ratio"),
        ("adapt.fast_attempt_us", "us"), ("adapt.sr_global_attempt_us", "us"),
        ("adapt.fast_to_global_cost", "ratio"),
        ("accuracy.sr_err", "tol"), ("accuracy.mr_err", "tol"))}


def _layer_metrics(tracer, untraced_s, traced_s, derived, attempted,
                   failures):
    from tracing import ENTRIES
    totals = tracer.layer_totals()
    m = {}
    for name in ENTRIES:
        calls, total, self_s, fails = totals[name]
        m[f"{name}.calls"] = _metric(calls, "count")
        m[f"{name}.self_s"] = _metric(self_s, "s")
        m[f"{name}.failures"] = _metric(fails, "count")
        m[f"{name}.us_per_call"] = _metric(1e6 * _ratio(total, calls), "us")
    for name, (value, unit) in DERIVED_DEFAULTS.items():
        value, unit = derived.get(name, (value, unit))
        m[name] = _metric(value, unit)

    def per_call(name):
        return m[f"{name}.us_per_call"]["value"]

    m["newton.solves_per_stage"] = _metric(
        _ratio(totals["newton.JacobianCache.solve"][0],
               totals["newton.solve_stage"][0]), "ratio")
    m["newton.stage_failure_ratio"] = _metric(
        _ratio(totals["newton.solve_stage"][3],
               totals["newton.solve_stage"][0]), "ratio")
    m["bench.restricted_to_full_cost"] = _metric(
        _ratio(per_call("bench.rhs_restricted"), per_call("bench.rhs")),
        "ratio")
    m["trace.untraced_s"] = _metric(untraced_s, "s")
    m["trace.traced_s"] = _metric(traced_s, "s")
    m["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    m["trace.overhead_frac"] = _metric(
        _ratio(traced_s - untraced_s, untraced_s), "ratio")
    m["trace.spans"] = _metric(len(tracer.name), "count")
    m["checks.attempted"] = _metric(attempted, "count")
    m["checks.failed"] = _metric(len(failures), "count")
    m["checks.failed_frac"] = _metric(_ratio(len(failures), attempted),
                                      "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_mrrk()
    sys.path.insert(0, str(HERE))
    import selftest
    selftest.run()

    if args.trace:
        from speed import probe
        probe_s = probe()
        if args.workload == "stability":
            traced = trace_stability()
        else:
            traced = trace_integrator(args.workload, args.seed)
        attempted, failures = traced[4], traced[5]
        metrics = _layer_metrics(*traced)
        # The machine's speed during this run; per-layer times are unscaled.
        metrics["machine.probe_s"] = _metric((probe_s + probe()) / 2, "s")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        import numpy as np
        np.savez(out / f"trace-{args.workload}.npz", **traced[0].arrays())
    else:
        if args.workload == "stability":
            metrics, attempted, failures = run_stability(args.seconds)
        else:
            metrics, attempted, failures = run_integrator(
                args.workload, args.seed, args.seconds)
        metrics["ok_frac"] = _metric(1.0 - _ratio(len(failures), attempted),
                                     "ratio")
    import cases
    for _, message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"BLAS threads fixed at {BLAS_THREADS}", file=sys.stderr)
    print(json.dumps({
        # Failures all count; only the standing, documented table
        # mismatches leave the run marked correct.
        "correct": all(key in cases.STANDING_MISMATCHES
                       for key, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
