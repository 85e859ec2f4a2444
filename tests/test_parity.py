"""`tools/parity.py compare` on two tiny digest files and their y_out."""

import hashlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity",
                                               ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def write_side(path, y_out, stability=None, cli=None, runs=None):
    """A digest file at ``path`` whose runs all have the same digests
    unless ``runs`` overrides some of their fields, with the runs'
    ``y_out`` beside it, the stability part ``stability`` (one fixed cell
    by default) and the CLI part of the exit codes and CSV texts of
    ``cli`` (one solve that exits 0 by default)."""
    run = {**dict.fromkeys(parity.PARTS, "0" * 64), "rtol": 1e-3,
           "atol": 1e-6, "mode": "multi", "stats": {"accepted_global": 3}}
    cli = cli or {"solve": {"exit code": "0"}}
    digest = {name: {f: text if f == "exit code" else
                     hashlib.sha256(text.encode()).hexdigest()
                     for f, text in files.items()}
              for name, files in cli.items()}
    rounded = {name: {f: parity.rounded_digest(text.encode())
                      for f, text in files.items() if f.endswith(".csv")}
               for name, files in cli.items()}
    path.write_text(json.dumps({
        "runs": {name: {**run, **(runs or {}).get(name, {})}
                 for name in y_out},
        "stability": stability or {"cells": {"c": "d"}, "digest": "d"},
        "cli": digest, "cli_rounded": rounded}))
    np.savez_compressed(path.with_suffix(".npz"), **y_out)


def compare(tmp_path, capsys):
    """`compare` of A.json with B.json: (exit code, printed lines)."""
    code = parity.main(["compare", str(tmp_path / "A.json"),
                        str(tmp_path / "B.json")])
    return code, capsys.readouterr().out.splitlines()


def test_compare_lists_every_run_past_the_y_out_tolerance(tmp_path,
                                                           capsys):
    """Each run whose weighted y_out deviation exceeds ``Y_OUT_TOL`` is
    listed with its value, not only the largest; runs within it are not.
    Deviations within ``ROUND_OFF_TOL`` are round-off (exit 3)."""
    base = np.array([[1.0, -2.0], [0.5, 4.0]])
    w = 1e-3 * np.abs(base) + 1e-6
    moved = {"a-far": 3e-10, "b-near": 2e-11, "c-within": 1e-13,
             "d-same": 0.0}
    write_side(tmp_path / "A.json", dict.fromkeys(moved, base))
    write_side(tmp_path / "B.json",
               {name: base + dev * w for name, dev in moved.items()})
    code = parity.main(["compare", str(tmp_path / "A.json"),
                        str(tmp_path / "B.json")])
    out = capsys.readouterr().out
    listed = [line for line in out.splitlines()
              if "weighted y_out deviation" in line
              and not line.startswith("4 runs")]
    assert [line.split(":")[0] for line in listed] == ["a-far", "b-near"]
    assert "3e-10" in listed[0] and "2e-11" in listed[1]
    assert "largest weighted y_out deviation 3e-10 (a-far)" in out
    assert out.splitlines()[-1] == "verdict: round-off"
    assert code == 3


def test_compare_passes_runs_within_the_y_out_tolerance(tmp_path, capsys):
    base = np.array([[1.0, -2.0], [0.5, 4.0]])
    write_side(tmp_path / "A.json", {"a": base, "b": base})
    write_side(tmp_path / "B.json",
               {"a": base + 1e-13 * (1e-3 * np.abs(base) + 1e-6),
                "b": base})
    code = parity.main(["compare", str(tmp_path / "A.json"),
                        str(tmp_path / "B.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("weighted y_out deviation") == 1   # the summary line
    assert "0 mismatched" in out
    assert out.splitlines()[-1] == "verdict: identical"


def test_compare_reports_moved_stability_entries_and_radii(tmp_path,
                                                          capsys):
    """A moved stability cell is listed with its entry change or, when its
    entry is equal, with its largest relative radius deviation; the
    summary counts the changed entries and gives the largest deviation of
    the others.  A moved cell fails the comparison."""
    rho = [0.5, 0.9, 1.2]
    cells = {"entry": ["12", "a"], "radii": ["7", "b"], "same": ["3", "c"]}
    before = {"cells": cells, "digest": "x",
              "radii": dict.fromkeys(cells, rho)}
    after = {"cells": {**cells, "entry": ["13", "d"], "radii": ["7", "e"]},
             "digest": "y",
             "radii": {**before["radii"], "entry": [0.5, 0.9, 1.3],
                       "radii": [0.5, 0.9 * (1 + 3e-11), 1.2]}}
    base = np.zeros((1, 1))
    write_side(tmp_path / "A.json", {"a": base}, before)
    write_side(tmp_path / "B.json", {"a": base}, after)
    code = parity.main(["compare", str(tmp_path / "A.json"),
                        str(tmp_path / "B.json")])
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines if line.startswith("stability cell")]
    assert moved[0] == "stability cell entry: entry 12 -> 13"
    assert moved[1] == ("stability cell radii: largest relative radius "
                        "deviation 3e-11")
    assert len(moved) == 2
    assert ("stability: 1 of 3 cells identical, 1 entries changed; largest "
            "relative radius deviation of the others 3e-11") in lines
    assert lines[-1] == "verdict: changed"
    assert code == 1


_SCAN = "C,rho\n1,0.5\n2,0.99999999999999989\n"


def round_off_sides(tmp_path):
    """Side A, and the y_out and stability part of a side B that differs
    from it by round-off: y_out and a radius move within
    ``ROUND_OFF_TOL``, so does the digest of a cell with the same entry."""
    base = np.array([[1.0, -2.0], [0.5, 4.0]])
    w = 1e-3 * np.abs(base) + 1e-6
    stab = {"cells": {"c": ["12", "a"]}, "digest": "x",
            "radii": {"c": [0.5, 0.9]}}
    write_side(tmp_path / "A.json", {"a": base}, stab,
               {"scan": {"exit code": "0", "scan.csv": _SCAN}})
    return base + 5e-10 * w, {
        "cells": {"c": ["12", "b"]}, "digest": "y",
        "radii": {"c": [0.5, 0.9 * (1 + 5e-10)]}}


def test_compare_verdict_round_off(tmp_path, capsys):
    """A change that moves y_out, radii and CLI numbers within round-off,
    and nothing else, is round-off: exit 3."""
    y_out, stab = round_off_sides(tmp_path)
    write_side(tmp_path / "B.json", {"a": y_out}, stab,
               {"scan": {"exit code": "0",
                         "scan.csv": "C,rho\n1.0,0.5\n2,1\n"}})
    code, lines = compare(tmp_path, capsys)
    assert "cli scan: scan.csv differs in rounding only" in lines
    assert lines[-1] == "verdict: round-off"
    assert code == 3


@pytest.mark.parametrize("change", ["y_out", "radius", "entry", "csv",
                                    "exit code", "counters"])
def test_compare_verdict_changed(tmp_path, capsys, change):
    """A move past round-off in any part, or any change of a table entry,
    an exit code or a digest that round-off cannot move, is a change:
    exit 1."""
    y_out, stab = round_off_sides(tmp_path)
    cli = {"exit code": "0", "scan.csv": _SCAN}
    runs = None
    if change == "y_out":
        y_out = y_out * (1 + 1e-6)
    elif change == "radius":
        stab["radii"]["c"] = [0.5, 0.9 * (1 + 2e-9)]
    elif change == "entry":
        stab["cells"]["c"] = ["13", "b"]
    elif change == "csv":
        cli["scan.csv"] = "C,rho\n1,0.5\n2,0.9999999\n"
    elif change == "exit code":
        cli["exit code"] = "2"
    else:
        runs = {"a": {"counters": "1" * 64}}
    write_side(tmp_path / "B.json", {"a": y_out}, stab, {"scan": cli}, runs)
    code, lines = compare(tmp_path, capsys)
    assert lines[-1] == "verdict: changed"
    assert code == 1
