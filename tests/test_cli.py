import csv
import json
import os

import numpy as np
import pytest

from mrrk.cli import index_ranges, main


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_index_ranges():
    assert index_ranges([]) == ""
    assert index_ranges([5]) == "5"
    assert index_ranges([0, 1, 2, 3]) == "0-3"
    assert index_ranges([3, 4, 5, 6, 7, 12]) == "3-7,12"
    assert index_ranges([1, 3, 4, 9]) == "1,3-4,9"


def test_solve_constant_problem(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "constant", "--param", "N=3",
               "--method", "erk4", "--output-dt", "0.25",
               "--outdir", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "solution.csv")
    assert header == ["t", "y0", "y1", "y2"]
    assert len(rows) == 5
    t = [float(r[0]) for r in rows]
    np.testing.assert_allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])
    for r in rows:
        np.testing.assert_allclose([float(v) for v in r[1:]],
                                   [0.0, 1.0, 2.0], atol=1e-12)
    aheader, arows = read_csv(out / "activity.csv")
    assert aheader == ["step_index", "t_start", "t_end", "kind",
                       "active_indices"]
    assert all(r[3] == "global" and r[4] == "0-2" for r in arows)
    stats = json.loads((out / "stats.json").read_text())
    for key in ("accepted_global", "rejected_global_error",
                "rejected_global_convergence", "accepted_fast",
                "rejected_fast_error", "rejected_fast_convergence",
                "global_rhs_calls", "global_jacobians", "local_rhs_calls",
                "local_jacobians", "wall_time"):
        assert key in stats
    assert stats["accepted_global"] == len(arows)
    assert "failed" not in stats


def test_solve_column_selection_and_grid_endpoint(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "constant", "--param", "N=5",
               "--param", "t_span=[0.0, 1.0]", "--method", "erk4",
               "--output-dt", "0.4", "--columns", "1,4",
               "--outdir", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "solution.csv")
    assert header == ["t", "y1", "y4"]
    # Grid 0, 0.4, 0.8 then the horizon appended.
    np.testing.assert_allclose([float(r[0]) for r in rows],
                               [0.0, 0.4, 0.8, 1.0])


def test_solve_deterministic_outputs(tmp_path):
    args = ["solve", "--problem", "burgers", "--param", "N=64",
            "--param", "t_span=[0.0, 0.5]", "--method", "esdirk3",
            "--mode", "multi", "--rtol", "1e-5", "--atol", "1e-5",
            "--output-dt", "0.1"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(args + ["--outdir", str(out)]) == 0
        outs.append({f: (out / f).read_bytes()
                     for f in ("solution.csv", "activity.csv")})
    assert outs[0] == outs[1]


def test_solve_usage_errors(tmp_path):
    assert main(["solve", "--method", "erk4",
                 "--outdir", str(tmp_path)]) == 2          # no problem
    assert main(["solve", "--problem", "constant", "--param", "bogus",
                 "--outdir", str(tmp_path)]) == 2          # bad override
    assert main(["solve", "--problem", "burgers", "--param", "nope=3",
                 "--outdir", str(tmp_path)]) == 2          # unknown param
    assert main(["solve", "--problem", "constant", "--param", "N=3",
                 "--columns", "7", "--outdir", str(tmp_path)]) == 2
    assert main(["solve", "--problem", "constant",
                 "--output-dt", "-1", "--outdir", str(tmp_path)]) == 2
    for span in ("[1,0]", "[1,1]"):                         # bad t_span
        assert main(["solve", "--problem", "constant", "--param",
                     f"t_span={span}", "--outdir", str(tmp_path)]) == 2


def test_solve_integration_failure_artifacts(tmp_path):
    out = tmp_path / "fail"
    # A zero step budget makes the run fail immediately and exercises the
    # partial-output path.
    rc = main(["solve", "--problem", "constant", "--param", "N=2",
               "--method", "erk4", "--max-steps", "0",
               "--outdir", str(out)])
    assert rc == 3
    stats = json.loads((out / "stats.json").read_text())
    assert stats["failed"] is True
    assert "failure_message" in stats and "failure_time" in stats
    header, rows = read_csv(out / "solution.csv")
    assert header[0] == "t" and rows == []


def test_stability_scan_and_table(tmp_path):
    out = tmp_path / "stab"
    rc = main(["stability", "--model", "2dof", "--method", "erk4",
               "--interp", "hermite", "--alpha", "10",
               "--kappa", "0.9e-4,0.9e-2", "--M", "2,8",
               "--c-max", "30", "--outdir", str(out)])
    assert rc == 0
    theader, trows = read_csv(out / "table.csv")
    assert theader == ["kappa", "M=2", "M=8"]
    table = {float(r[0]): r[1:] for r in trows}
    assert table[0.9e-4] == ["6", "23"]
    assert table[0.9e-2] == ["6", "16"]
    sheader, srows = read_csv(out / "scan.csv")
    assert sheader == ["model", "method", "interp", "gamma1", "omega1",
                       "alpha", "beta", "kappa", "M", "C", "rho", "stable"]
    assert len(srows) == 2 * 2 * 30
    # rho column is finite and positive; stable column is a boolean word.
    assert all(float(r[10]) > 0 for r in srows)
    assert {r[11] for r in srows} <= {"True", "False"}


def test_stability_sentinel_and_worker_env(tmp_path):
    out = tmp_path / "stab4"
    rc = main(["stability", "--model", "4dof", "--method", "esdirk4",
               "--interp", "dense", "--alpha", "1", "--model-beta", "1",
               "--gamma1", "0.01", "--kappa", "1", "--M", "4",
               "--c-max", "20", "--outdir", str(out)])
    assert rc == 0
    _, trows = read_csv(out / "table.csv")
    assert trows[0][1] == "4"


def test_stability_usage_errors(tmp_path):
    base = ["stability", "--model", "2dof", "--alpha", "10",
            "--outdir", str(tmp_path)]
    assert main(base + ["--kappa", "0.1", "--M", ""]) == 2
    assert main(base + ["--M", "2"]) == 2                  # no kappa
    assert main(base + ["--kappa", "0.1", "--M", "2.5"]) == 2
    assert main(base + ["--kappa", "abc", "--M", "2"]) == 2


@pytest.mark.parametrize("flags", [
    ["--newton-max-iters", "0"],
    ["--h0", "-1"],
    ["--rtol", "nan"],
    ["--atol", "0"],
    ["--rtol", "0", "--atol", "0"],
    ["--rtol", "-1"],
    ["--h-min", "-1"],
], ids=lambda f: " ".join(f))
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, flags):
    rc = main(["solve", "--problem", "constant", "--method", "erk4",
               "--outdir", str(tmp_path)] + flags)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error:") and "Traceback" not in err


def test_accuracy_sweep(tmp_path):
    out = tmp_path / "acc"
    rc = main(["accuracy", "--method", "erk4", "--interp", "hermite",
               "--C", "0.01,0.02", "--M", "10", "--steps", "10",
               "--outdir", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "errors.csv")
    assert header == ["C", "single_rate_error", "multirate_error"]
    assert len(rows) == 2
    # At C << 1 a fourth-order method reproduces the propagator closely.
    assert float(rows[0][1]) < 1e-8
    assert float(rows[0][2]) < 1e-4
    assert main(["accuracy", "--C", "", "--outdir", str(out)]) == 2


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "constant", "method": "erk4", "output_dt": 0.5,
        "outdir": str(tmp_path / "fromcfg")}))
    rc = main(["--config", str(cfg), "solve"])
    assert rc == 0
    assert (tmp_path / "fromcfg" / "solution.csv").exists()
    # A flag beats the config value.
    rc = main(["--config", str(cfg), "solve",
               "--outdir", str(tmp_path / "flagged")])
    assert rc == 0
    assert (tmp_path / "flagged" / "solution.csv").exists()


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing), "solve",
                 "--problem", "constant"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_an_option": 1}))
    assert main(["--config", str(bad), "solve",
                 "--problem", "constant"]) == 2
    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]")
    assert main(["--config", str(notdict), "solve",
                 "--problem", "constant"]) == 2


def test_float_format_roundtrip(tmp_path):
    out = tmp_path / "acc17"
    assert main(["accuracy", "--C", "0.01", "--outdir", str(out)]) == 0
    _, rows = read_csv(out / "errors.csv")
    # 17 significant digits round-trip float64 exactly.
    v = rows[0][1]
    assert float(repr(float(v))) == float(v)
    assert len(v.replace(".", "").replace("-", "").lstrip("0")) >= 15
