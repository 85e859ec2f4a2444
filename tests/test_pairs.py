"""The summary of `tools/pairs.py`: medians, spread, paired ratios, wins."""

import importlib.util
import pathlib

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
    """The stability mode reports wall_s, the sweep, and one wall_s per
    column M of the tables, which add up to it; its counters are the
    cells' entries.  table_entry and the speed probe are faked, so no
    sweep runs."""
    monkeypatch.syspath_prepend(str(pairs.PERFBENCH))
    import cases
    import speed

    from mrrk import stability
    monkeypatch.setattr(speed, "probe", lambda: speed.REFERENCE_PROBE_S)
    monkeypatch.setattr(stability, "table_entry",
                        lambda model, method, interp, M: M)
    got = pairs.measure_stability(rounds=2)
    m = got["metrics"]
    assert set(m) == {"wall_s"} | {f"M{M}.wall_s" for M in cases.M_COLS}
    assert m["wall_s"] == pytest.approx(sum(v for k, v in m.items()
                                            if k != "wall_s"))
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
    assert {w for _, w in calls} == {"stability"} and len(calls) == 12
    assert [s for s, _ in calls[:4]] == ["parent", "change", "change",
                                         "parent"]
    out = capsys.readouterr()
    assert "wall_s parent 1.0000 change 0.5000" in out.err
    assert "identical on both sides" in out.out
