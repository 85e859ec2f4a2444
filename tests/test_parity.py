"""`tools/parity.py compare` on two tiny digest files and their y_out."""

import importlib.util
import json
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity",
                                               ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def write_side(path, y_out):
    """A digest file at ``path`` whose runs all have the same digests,
    with the runs' ``y_out`` beside it."""
    run = {**dict.fromkeys(parity.PARTS, "0" * 64), "rtol": 1e-3,
           "atol": 1e-6, "mode": "multi", "stats": {"accepted_global": 3}}
    path.write_text(json.dumps({
        "runs": {name: run for name in y_out},
        "stability": {"cells": {"c": "d"}, "digest": "d"},
        "cli": {"solve": {"exit code": "0"}}}))
    np.savez_compressed(path.with_suffix(".npz"), **y_out)


def test_compare_lists_every_run_past_the_y_out_tolerance(tmp_path,
                                                           capsys):
    """Each run whose weighted y_out deviation exceeds ``Y_OUT_TOL`` is
    listed with its value, not only the largest; runs within it are not,
    and any of them fails the comparison."""
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
    assert code == 1


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
