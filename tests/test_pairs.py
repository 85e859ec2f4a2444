"""The summary of `tools/pairs.py`: medians, spread, paired ratios, wins."""

import importlib.util
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs",
                                               ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_summary_of_alternated_pairs():
    """Medians of each side, the parent's quartiles, the median of the
    paired ratios (not the ratio of the medians) and the pairs the change
    reads lower in, a tie counting for neither side."""
    parent = [1.0, 2.0, 4.0, 3.0, 5.0, 8.0]
    change = [0.5, 2.0, 3.0, 3.3, 4.0, 4.0]
    s = pairs.summarize([({"wall": a, "n": 7}, {"wall": b, "n": 7})
                         for a, b in zip(parent, change)])
    assert set(s) == {"wall", "n"}
    w = s["wall"]
    assert w["parent"] == 3.5 and w["change"] == 3.15
    assert w["parent_iqr"] == (2.25, 4.75)
    # Ratios 0.5, 1.0, 0.75, 1.1, 0.8, 0.5.
    assert w["ratio"] == pytest.approx(0.775)
    assert w["wins"] == 4 and w["pairs"] == 6
    assert s["n"]["wins"] == 0 and s["n"]["ratio"] == 1.0


def test_alternate_needs_six_pairs():
    with pytest.raises(SystemExit):
        pairs.main(["alternate", "a", "b", "--pairs", "5"])


def test_stability_measure_names_the_sweep_and_its_columns(monkeypatch):
    """The stability mode reports wall_s, the sweep, one wall_s per column
    M of the tables and one per table, each set adding up to it; its
    counters are the cells' entries.  table_entry and the speed probe are
    faked, so no sweep runs."""
    monkeypatch.syspath_prepend(str(pairs.PERFBENCH))
    import cases
    import speed

    from mrrk import stability
    monkeypatch.setattr(speed, "probe", lambda: speed.REFERENCE_PROBE_S)
    monkeypatch.setattr(stability, "table_entry",
                        lambda model, method, interp, M: M)
    got = pairs.measure_stability(rounds=2)
    m = got["metrics"]
    columns = {f"M{M}.wall_s" for M in cases.M_COLS}
    tables = {"2dof-erk4.wall_s", "2dof.wall_s", "4dof.wall_s"}
    assert set(m) == {"wall_s"} | columns | tables
    for part in (columns, tables):
        assert m["wall_s"] == pytest.approx(sum(m[k] for k in part))
    # Each table holds 168 of the 504 cells, so none is empty or all.
    for k in tables:
        assert 0.0 < m[k] < m["wall_s"]
    cells = cases.stability_cells()
    assert len(got["counters"]) == len(cells) == 504
    assert sorted(got["counters"].values()) == sorted(c.M for c in cells)


def test_alternate_passes_the_workload_to_each_side(monkeypatch, capsys):
    calls = []

    def fake_side(src, workload, inputs, rounds):
        calls.append((str(src), workload))
        wall = 1.0 if str(src) == "parent" else 0.5
        return {"metrics": {"wall_s": wall, "M2.wall_s": wall / 7},
                "counters": {"2dof.1.0.5.2": 6}}

    monkeypatch.setattr(pairs, "_run_side", fake_side)
    assert pairs.main(["alternate", "parent", "change", "--workload",
                       "stability", "--pairs", "6"]) == 0
    # One warm-up pair, then six recorded ones in alternating order.
    assert {w for _, w in calls} == {"stability"} and len(calls) == 14
    assert [s for s, _ in calls[:6]] == ["parent", "change", "parent",
                                         "change", "change", "parent"]
    out = capsys.readouterr()
    assert "wall_s parent 1.0000 change 0.5000" in out.err
    assert "identical on both sides" in out.out


def test_warm_up_pair_reaches_no_median_and_no_win(monkeypatch, capsys):
    """The first pair of processes runs unrecorded: outliers it returns
    (a parent 100x slow, a change 100x fast) move no median, quartile or
    win count, and its counters are not compared."""
    calls = []

    def fake_side(src, workload, inputs, rounds):
        calls.append(str(src))
        warm = len(calls) <= 2
        wall = 1.0 if str(src) == "parent" else 1.1
        if warm:
            wall = 100.0 if str(src) == "parent" else 0.01
        return {"metrics": {"mr_wall_s": wall},
                "counters": {"44.mr": {"warm": warm}}}

    monkeypatch.setattr(pairs, "_run_side", fake_side)
    s = pairs.alternate("parent", "change", "inverter", [44], 6, 1)
    assert len(calls) == 14
    m = s["mr_wall_s"]
    assert m["parent"] == 1.0 and m["change"] == 1.1
    assert m["parent_iqr"] == (1.0, 1.0)
    assert m["ratio"] == pytest.approx(1.1)
    assert m["wins"] == 0 and m["pairs"] == 6
    out = capsys.readouterr()
    assert "100.0000" not in out.err and "0.0100" not in out.err
    assert "identical on both sides" in out.out


def test_inverter_measure_times_output_sampling_apart(monkeypatch):
    """The inverter mode reports each input's output sampling, the time
    inside the run's own commits, apart from the fast phase: a delay put
    into every commit of the run's sampler lands in ``*_sampling_s``, and
    sampling and fast phase add up to no more than the wall.  A 20-stage
    chain with an output grid stands in for the benchmark's inputs and
    the speed probe is faked, so no benchmark input runs."""
    monkeypatch.syspath_prepend(str(pairs.PERFBENCH))
    from dataclasses import replace

    import numpy as np

    import cases
    import speed

    from mrrk import adapt, bench
    from mrrk.tableaux import get_method

    def tiny_case(k):
        problem = bench.make_inverter_chain(
            bench.InverterChainParams(N=20, t_span=(0.0, 6.5)))
        sr = adapt.SolverConfig(rtol=1e-6, atol=1e-6, phi=0.2,
                                t_eval=np.linspace(0.0, 6.5, 651))
        return cases.IntegratorCase("inverter", problem,
                                    get_method("esdirk3"), sr,
                                    replace(sr, mode="multi"), (), str(k))

    delay = 2e-3
    samplers, commits = [], []
    commit_step = adapt._OutputSampler.commit_step

    def slow_commit(sampler, *args, **kw):
        if sampler.y.shape[1] == 20:
            if sampler not in samplers:
                samplers.append(sampler)
                commits.append(0)
            commits[samplers.index(sampler)] += 1
            time.sleep(delay)
        return commit_step(sampler, *args, **kw)

    monkeypatch.setattr(cases, "inverter_case", tiny_case)
    monkeypatch.setattr(speed, "probe", lambda: speed.REFERENCE_PROBE_S)
    multirate_step = adapt.multirate_step
    monkeypatch.setattr(adapt._OutputSampler, "commit_step", slow_commit)
    got = pairs.measure([3], rounds=1)
    # measure removes its wrappers and adds perfbench/ to the path once.
    assert adapt.multirate_step is multirate_step
    assert adapt._OutputSampler.commit_step is slow_commit
    assert sys.path.count(str(pairs.PERFBENCH)) == 1
    m, c = got["metrics"], got["counters"]
    assert {"3.sr_sampling_s", "3.mr_sampling_s"} <= set(m)
    # The samplers of the warm-up, the SR and the MR run, in that order.
    assert len(commits) == 3
    for mode, n in zip(("sr", "mr"), commits[1:]):
        assert n > 0
        assert m[f"3.{mode}_sampling_s"] >= n * delay
        assert m[f"3.{mode}_sampling_s"] < m[f"3.{mode}_wall_s"]
    assert c["3.mr"]["accepted_fast"] > 0
    fast_s = 1e-6 * m["3.fast_attempt_us"] * pairs._attempts_of(c["3.mr"],
                                                                "fast")
    assert fast_s + m["3.mr_sampling_s"] <= m["3.mr_wall_s"]


def test_failing_side_is_named_without_a_traceback(tmp_path):
    """A side whose mrrk fails on import ends the run at once with exit
    code 1: the message names the side and its tree and ends with that
    side's own error, and pairs.py prints no traceback of its own."""
    broken = tmp_path / "src"
    (broken / "mrrk").mkdir(parents=True)
    (broken / "mrrk" / "__init__.py").write_text(
        'raise RuntimeError("mrrk of a broken tree")\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "alternate",
         str(broken), str(ROOT / "src"), "--pairs", "6"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    err = proc.stderr
    assert err.startswith(f"parent side failed ({broken}, exit code 1)")
    assert err.rstrip().endswith("RuntimeError: mrrk of a broken tree")
    assert "CalledProcessError" not in err


def test_failing_change_side_is_named(monkeypatch):
    def fake_side(src, workload, inputs, rounds):
        if src == "change":
            raise subprocess.CalledProcessError(
                2, ["measure"], stderr="first\nValueError: bad tree\n")
        return {"metrics": {"mr_wall_s": 1.0}, "counters": {}}

    monkeypatch.setattr(pairs, "_run_side", fake_side)
    with pytest.raises(SystemExit) as info:
        pairs.alternate("parent", "change", "inverter", [44], 6, 1)
    assert info.value.code == ("change side failed (change, exit code 2); "
                               "the end of its stderr:\n"
                               "first\nValueError: bad tree")
