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
