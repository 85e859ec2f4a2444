import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mrrk import bench, cli, stability
from mrrk.adapt import SolverConfig
from mrrk.cli import (MAX_OUTPUT_VALUES, UsageError, _output_grid,
                      _solver_config, build_parser, index_ranges, main,
                      make_problem)
from mrrk.interp import InterpolatorKind
from mrrk.odecore import OdeProblem
from mrrk.tableaux import get_method


@dataclasses.dataclass(frozen=True)
class ConstantParams:
    """Stub problem y' = 0, y(t0) = (0, 1, ..., N-1)."""

    N: int = 4
    t_span: tuple = (0.0, 1.0)


def make_constant(p: ConstantParams) -> OdeProblem:
    def rhs(y, t, out):
        out[:] = 0.0

    return OdeProblem(N=p.N, rhs=rhs, t_span=p.t_span,
                      y0=np.arange(p.N, dtype=float),
                      dependency=lambda i: (), name="constant")


@pytest.fixture(autouse=True)
def constant_problem(monkeypatch):
    """``--problem constant``: a stub whose runs test the CLI's plumbing
    in milliseconds.  `build_parser` reads the registry on every call."""
    monkeypatch.setitem(cli._PROBLEMS, "constant",
                        (ConstantParams, make_constant))


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
    # The stub's first step is far shorter than its span, so a one-step
    # budget makes the run fail and exercises the partial-output path.
    rc = main(["solve", "--problem", "constant", "--param", "N=2",
               "--method", "erk4", "--max-steps", "1",
               "--outdir", str(out)])
    assert rc == 3
    stats = json.loads((out / "stats.json").read_text())
    assert stats["failed"] is True
    assert "failure_message" in stats and "failure_time" in stats
    header, rows = read_csv(out / "solution.csv")
    assert header[0] == "t" and rows == []


def test_value_error_inside_a_solve_run_exits_2(tmp_path, capsys,
                                                monkeypatch):
    """The exception's type decides the exit code: a ValueError raised by
    the run itself, after every object was checked, also exits 2 with its
    message and leaves the output directory without artifacts."""
    def integrate(problem, method, cfg):
        raise ValueError("raised inside the run")
    monkeypatch.setattr(cli, "integrate", integrate)
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "constant", "--param", "N=2",
               "--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "usage error: raised inside the run\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["stability", "solve"])
def test_request_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch,
                                              command):
    """A MemoryError, such as a stability scan's integer C grid up to
    --c-max 1e12, exits 2 with one usage-error line and no traceback; the
    failing call is faked, so nothing large is allocated."""
    def too_large(*args, **kw):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")
    monkeypatch.setattr(cli, "scan_cell", too_large)
    monkeypatch.setattr(cli, "integrate", too_large)
    argv = {"stability": _STAB2 + ["--M", "2", "--c-max", "1e12"],
            "solve": ["solve", "--problem", "constant", "--param", "N=2"]}
    out = tmp_path / "out"
    rc = main(argv[command] + ["--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("usage error: the request did not fit in memory "
                   "(Unable to allocate 7.28 TiB for an array)\n")
    assert not out.exists() or os.listdir(out) == []


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


@pytest.mark.parametrize("kind,method,interp,flags", [
    ("2dof", "erk4", "hermite", {"alpha": "10"}),
    ("4dof", "esdirk4", "dense", {"gamma1": "0.02", "omega1": "1.5",
                                  "alpha": "3", "model-beta": "2"}),
])
def test_scan_csv_columns_are_the_arguments(tmp_path, kind, method, interp,
                                            flags):
    """Each scan.csv row holds the text of the flags that made it (model
    parameters a kind does not have are empty), then the radius of
    `rho_curve` on the integer grid and whether it is <= 1 + RHO_TOL."""
    kappas, Ms = (1e-4, 0.1), (2, 8)
    out = tmp_path / "stab"
    argv = ["stability", "--model", kind, "--method", method, "--interp",
            interp, "--kappa", "1e-4,0.1", "--M", "2,8", "--c-max", "12.5",
            "--outdir", str(out)]
    for name, value in flags.items():
        argv += [f"--{name}", value]
    assert main(argv) == 0
    _, rows = read_csv(out / "scan.csv")
    cols = [cli._fmt(float(flags[k])) if k in flags else ""
            for k in ("gamma1", "omega1", "alpha", "model-beta")]
    grid = np.arange(1.0, 13.0)
    expected = []
    for kappa in kappas:
        if kind == "2dof":
            model = stability.model_2dof(alpha=10.0, kappa=kappa)
        else:
            model = stability.model_4dof(omega1=1.5, gamma1=0.02,
                                         alpha_ratio=3.0, beta_ratio=2.0,
                                         kappa=kappa)
        for M in Ms:
            rho = stability.rho_curve(model, get_method(method),
                                      InterpolatorKind(interp), M, grid)
            expected += [[kind, method, interp, *cols, cli._fmt(kappa),
                          str(M), cli._fmt(C), cli._fmt(r),
                          str(r <= 1.0 + stability.RHO_TOL)]
                         for C, r in zip(grid, rho)]
    assert rows == expected
    assert {r[-1] for r in rows} == {"True", "False"}


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


_ACC = ["accuracy", "--C", "0.1"]
_STAB2 = ["stability", "--model", "2dof", "--alpha", "1", "--kappa", "0.1"]


@pytest.mark.parametrize("argv", [
    _STAB2 + ["--M", "0"],
    _STAB2 + ["--M", "-2"],
    _STAB2 + ["--M", "2,0"],
    _STAB2 + ["--M", "2", "--c-max", "-5"],
    _STAB2 + ["--M", "2", "--c-max", "0.5"],
    _STAB2 + ["--M", "2", "--c-max", "inf"],
    _STAB2 + ["--M", "2", "--c-max", "nan"],
    _ACC + ["--M", "0"],
    _ACC + ["--M", "1.5"],
    _ACC + ["--steps", "0"],
    _ACC + ["--steps", "-3"],
    ["accuracy", "--C", "-1"],
    ["accuracy", "--C", "0"],
    ["accuracy", "--C", "0.1,nan"],
    ["accuracy", "--C", "inf"],
    # Model parameters the model constructors reject, L non-finite included.
    _ACC + ["--gamma1", "-1"],
    _ACC + ["--kappa", "2"],
    _ACC + ["--alpha", "0"],
    _ACC + ["--alpha", "nan"],
    ["stability", "--model", "2dof", "--alpha", "nan", "--kappa", "0.1",
     "--M", "1"],
    # det L = alpha (1 + kappa): an eigenvalue of real part +0.84.
    ["stability", "--model", "2dof", "--alpha", "10", "--M", "2",
     "--c-max", "5", "--kappa", "-2"],
], ids=lambda a: " ".join(a[-2:]))
def test_bad_stability_and_accuracy_settings(tmp_path, capsys, argv):
    rc = main(argv + ["--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    _STAB2 + ["--M", "2", "--c-max", "5"],
    ["accuracy", "--C", "0.1"],
], ids=["stability", "accuracy"])
def test_method_without_dense_output_is_a_usage_error(tmp_path, capsys,
                                                      argv):
    """Dense slow values need the method's dense-output coefficients; erk4
    has none, and the library's ValueError exits 2 with its message."""
    rc = main(argv + ["--method", "erk4", "--interp", "dense",
                      "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("usage error: method 'erk4' has no dense-output "
                   "coefficients\n")
    assert not (tmp_path / "out").exists()


def test_solve_dense_output_without_a_pair_is_a_usage_error(tmp_path,
                                                             capsys):
    """``solve --interp dense`` with a method that lacks dense output exits
    2 with the library's message, as ``stability`` and ``accuracy`` do,
    and writes no artifact."""
    out = tmp_path / "out"
    rc = main(["solve", "--problem", "burgers", "--param", "N=20",
               "--param", "t_span=[0, 0.1]", "--method", "erk4",
               "--interp", "dense", "--mode", "multi", "--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("usage error: method 'erk4' has no dense output with an "
                   "embedded pair, which interp 'dense' needs\n")
    assert os.listdir(out) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linalg_error_exits_4_not_2(tmp_path, capsys):
    """A LinAlgError is a ValueError, so `main` must catch it first: at
    C = 1e300 the propagator overflows and its 2-norm's SVD fails."""
    rc = main(["accuracy", "--C", "1e300", "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_output_grid_is_bounded(tmp_path):
    """A grid too large to hold exits 2 at once, before any allocation."""
    probe = (
        "import sys, time\n"
        "from mrrk.cli import main\n"
        "t = time.perf_counter()\n"
        "rc = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t)\n"
        "sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", probe, "solve", "--problem", "burgers",
         "--output-dt", "1e-9", "--outdir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert float(proc.stdout) < 1.0
    assert proc.stderr.startswith("usage error:")
    assert "Traceback" not in proc.stderr
    assert str(MAX_OUTPUT_VALUES) in proc.stderr
    # The limit is on rows x states: 10 states fit 10**6 rows, not one more.
    problem = make_problem("constant", {"N": 10})
    rows = MAX_OUTPUT_VALUES // 10
    grid = _output_grid(problem, 1.0 / (rows - 1))
    assert len(grid) == rows and grid[-1] == 1.0
    with pytest.raises(UsageError, match=str(MAX_OUTPUT_VALUES)):
        _output_grid(problem, 1.0 / rows)


@pytest.mark.parametrize("flags", [
    ["--newton-max-iters", "0"],
    ["--h0", "-1"],
    ["--rtol", "nan"],
    ["--atol", "0"],
    ["--rtol", "0", "--atol", "0"],
    ["--rtol", "-1"],
    ["--h-min", "-1"],
    ["--safety-min", "1.5"],
    ["--safety-max", "0.9"],
    ["--safety-min", "0.8", "--safety-max", "0.95"],
    ["--safety", "0"],
    ["--beta", "inf"],
    ["--max-steps", "0"],
    ["--max-steps", "-1"],
], ids=lambda f: " ".join(f))
def test_solve_rejects_bad_solver_settings(tmp_path, capsys, flags):
    rc = main(["solve", "--problem", "constant", "--method", "erk4",
               "--outdir", str(tmp_path)] + flags)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error:") and "Traceback" not in err


def test_each_solver_setting_has_one_solve_flag():
    """Each `SolverConfig` field but ``t_eval`` is set by exactly one
    ``mrrk solve`` flag, and a solve without solver flags runs with
    `SolverConfig`'s defaults, field for field."""
    parser = build_parser()
    solve = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["solve"]
    grid = np.linspace(0.0, 1.0, 5)
    fields = [f.name for f in dataclasses.fields(SolverConfig)
              if f.name != "t_eval"]

    def config(*flags):
        args = parser.parse_args(["solve", "--problem", "constant", *flags])
        return _solver_config(args, grid)

    default = config()
    assert default.t_eval is grid
    for name in fields:
        assert getattr(default, name) == getattr(SolverConfig(), name), name
    sets = {name: [] for name in fields}
    for action in solve._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        values = action.choices or {float: ["0.37", "1.37"],
                                    int: ["7"]}.get(action.type, ["1"])
        moved = set()
        for value in values:
            try:
                cfg = config(flag, str(value))
            except ValueError:      # outside the field's valid values
                continue
            moved.update(name for name in fields
                         if getattr(cfg, name) != getattr(default, name))
        assert len(moved) <= 1, (flag, moved)
        for name in moved:
            sets[name].append(flag)
    assert all(len(flags) == 1 for flags in sets.values()), sets


def test_solve_controller_and_jacobian_flags(tmp_path):
    """Every solver flag reaches the run: each moves the counters the way
    its setting implies."""
    base = ["solve", "--problem", "inverter", "--param", "N=20",
            "--param", "t_span=[0.0, 6.5]", "--method", "esdirk3",
            "--rtol", "1e-4", "--atol", "1e-4", "--output-dt", "0.5"]

    def stats(*flags, rc=0):
        out = tmp_path / ("run" + "".join(flags))
        assert main(base + list(flags) + ["--outdir", str(out)]) == rc
        return json.loads((out / "stats.json").read_text())

    ref = stats()
    # A smaller safety factor or step growth cap takes more, smaller steps.
    assert stats("--safety", "0.5")["accepted_global"] > ref["accepted_global"]
    assert (stats("--safety-max", "1.05")["accepted_global"]
            > ref["accepted_global"])
    # A milder cut after a rejection is rejected again more often.
    assert (stats("--safety-min", "0.9")["rejected_global_error"]
            > ref["rejected_global_error"])
    # JacA reuses J across global steps; JacB evaluates it at every one.
    assert (stats("--jacobian-strategy", "JacA")["global_jacobians"]
            < ref["global_jacobians"] / 2)

    multi = ("--mode", "multi")
    mref = stats(*multi)
    # A smaller fast cap re-integrates fewer components.
    assert (stats(*multi, "--phi", "0.05")["local_rhs_calls"]
            < mref["local_rhs_calls"])
    # A looser acceptance threshold rejects fewer fast steps.
    assert (stats(*multi, "--beta", "3.0")["rejected_fast_error"]
            < mref["rejected_fast_error"])
    # Hermite slow values evaluate the endpoint derivatives.
    assert (stats(*multi, "--interp", "hermite")["global_rhs_calls"]
            > mref["global_rhs_calls"])
    # A tiny first step takes more global steps to grow.
    assert (stats(*multi, "--h0", "1e-6")["accepted_global"]
            > mref["accepted_global"])
    # Two Newton iterations are too few for many stages.
    assert (stats(*multi, "--newton-max-iters", "2")
            ["rejected_global_convergence"]
            > mref["rejected_global_convergence"])
    assert stats(*multi, "--h-min", "0.1", rc=3)["failed"] is True


@pytest.mark.parametrize("command,key,value", [
    ("solve", "jacobian_strategy", "JacC"),
    ("solve", "method", "nope"),
    ("stability", "method", "nope"),
    ("accuracy", "method", "nope"),
])
def test_config_file_values_outside_choices(tmp_path, capsys, command, key,
                                            value):
    """A config file's value goes through the flag's ``choices`` check, so
    argparse names the flag and the rejected value."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    args = {"solve": ["--problem", "constant"],
            "stability": ["--model", "2dof", "--alpha", "10", "--kappa",
                          "0.1", "--M", "2"],
            "accuracy": ["--C", "0.01"]}[command]
    rc = main(["--config", str(path), command, *args,
               "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error:") and "Traceback" not in err
    assert "--" + key.replace("_", "-") in err and value in err


_STAB = ["stability", "--model", "2dof", "--alpha", "10", "--c-max", "10"]
_SOLVE = ["solve", "--problem", "constant", "--method", "erk4"]


@pytest.mark.parametrize("config,argv", [
    ({"columns": "x"}, _SOLVE),
    ({"max_steps": 1.5}, _SOLVE),
    ({"kappa": [0.1, 0.01]}, _STAB + ["--M", "2"]),
    ({"interp": "cubic"}, ["accuracy", "--C", "0.01"]),
    ({"M": 2}, _SOLVE),                       # not an option of solve
    (None, _SOLVE + ["--param", "t_span=5"]),
    (None, _SOLVE + ["--param", 't_span=[0,"a"]']),
    (None, ["solve", "--problem", "inverter", "--param", "breakpoints=3"]),
    (None, ["solve", "--problem", "inverter", "--param",
            "breakpoints=[[5,0],[0,1]]"]),
    (None, ["solve", "--problem", "inverter", "--param",
            "breakpoints=[[0,0],[NaN,1]]"]),
    (None, _SOLVE + ["--param", "N=0"]),
    (None, ["solve", "--problem", "heating", "--param", "N=0"]),
], ids=["columns", "max_steps", "kappa-list", "interp", "solve-M",
        "t_span-number", "t_span-string", "breakpoints",
        "breakpoints-decreasing", "breakpoints-nan", "constant-N0",
        "heating-N0"])
def test_bad_config_values_and_params_are_usage_errors(tmp_path, capsys,
                                                       config, argv):
    pre = []
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        pre = ["--config", str(path)]
    rc = main(pre + argv + ["--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err


# In solve, --out is also a prefix of --output-dt, so its unique prefix
# of --outdir is --outd.
@pytest.mark.parametrize("argv,flag", [
    (_SOLVE, "outd"),
    (_STAB + ["--kappa", "0.1", "--M", "2"], "out"),
    (["accuracy", "--C", "0.1"], "out"),
], ids=["solve", "stability", "accuracy"])
@pytest.mark.parametrize("from_config", [False, True],
                         ids=["flag", "config"])
def test_abbreviated_flags_are_usage_errors(tmp_path, capsys, monkeypatch,
                                            argv, flag, from_config):
    """A unique prefix of ``--outdir`` is refused, as a flag and as a
    config-file key, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "out")
    if from_config:
        (tmp_path / "cfg.json").write_text(json.dumps({flag: out}))
        argv = ["--config", "cfg.json"] + argv
    else:
        argv = argv + [f"--{flag}", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"--{flag}" in err
    assert [p.name for p in tmp_path.iterdir()] == (
        ["cfg.json"] if from_config else [])


def _outputs(tmp_path, name, argv, config=None):
    pre = []
    if config is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        pre = ["--config", str(path)]
    out = tmp_path / name
    assert main(pre + argv + ["--outdir", str(out)]) == 0
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    if "stats.json" in files:
        stats = json.loads(files["stats.json"])
        del stats["wall_time"]
        files["stats.json"] = stats
    return files


@pytest.mark.parametrize("config,argv,flags", [
    ({"M": 5}, _STAB + ["--kappa", "0.1"], ["--M", "5"]),
    ({"columns": 3}, _SOLVE, ["--columns", "3"]),
    ({"param": "N=3"}, _SOLVE, ["--param", "N=3"]),
    ({"param": ["N=3"]}, _SOLVE, ["--param", "N=3"]),
    ({"h0": None}, _SOLVE, []),               # null keeps the default
    # A flag on the command line overrides the same key from the file.
    ({"M": 7}, _STAB + ["--kappa", "0.1", "--M", "5"], ["--M", "5"]),
    ({"param": ["N=5"]}, _SOLVE + ["--param", "N=3"], ["--param", "N=3"]),
], ids=["M", "columns", "param-string", "param-list", "null",
        "flag-wins-M", "flag-wins-param"])
def test_config_file_equals_its_flag_form(tmp_path, config, argv, flags):
    from_file = _outputs(tmp_path, "file", argv, config)
    assert from_file == _outputs(tmp_path, "flags", argv + flags)


@pytest.mark.parametrize("env,expected", [
    ({}, ["1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, ["2", "3"]),
], ids=["default", "explicit"])
def test_cli_pins_blas_threads_unless_set(env, expected):
    """Importing the CLI sets one BLAS thread before numpy is first
    imported; an explicit setting wins."""
    probe = (
        "import builtins, json, os, sys\n"
        "seen = []\n"
        "real = builtins.__import__\n"
        "def spy(name, *a, **k):\n"
        "    if name == 'numpy' and 'numpy' not in sys.modules:\n"
        "        seen.append([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                     os.environ.get('OMP_NUM_THREADS')])\n"
        "    return real(name, *a, **k)\n"
        "builtins.__import__ = spy\n"
        "import mrrk.cli\n"
        "print(json.dumps(seen))\n")
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    child_env.update(env)
    child_env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", probe], env=child_env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [expected]


def test_module_entry_point_reports_usage_errors(tmp_path):
    """``python -m mrrk.cli`` reads sys.argv and exits with main's code."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"M": 5.5}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "mrrk.cli", "--config", str(cfg), "stability",
         "--model", "2dof", "--alpha", "10", "--kappa", "0.1",
         "--outdir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage error:" in proc.stderr and "Traceback" not in proc.stderr


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


def test_omega1_reaches_stability_and_accuracy(tmp_path):
    """``--omega1`` sets the 4-DOF model's slow frequency: scan.csv records
    it, and it moves the spectral radii and the propagator errors."""
    stab = ["stability", "--model", "4dof", "--alpha", "10", "--kappa",
            "0.1", "--M", "4", "--c-max", "5"]
    acc = ["accuracy", "--C", "0.5", "--steps", "2"]
    runs = {}
    for omega1 in ("1", "2"):
        out = tmp_path / omega1
        assert main(stab + ["--omega1", omega1,
                            "--outdir", str(out / "stab")]) == 0
        assert main(acc + ["--omega1", omega1,
                           "--outdir", str(out / "acc")]) == 0
        _, scan = read_csv(out / "stab" / "scan.csv")
        _, errors = read_csv(out / "acc" / "errors.csv")
        assert {float(r[4]) for r in scan} == {float(omega1)}
        runs[omega1] = ([r[10] for r in scan], errors)
    assert runs["1"][0] != runs["2"][0]
    assert runs["1"][1] != runs["2"][1]


_PARAMS = [("inverter", "U_op", 6.0), ("inverter", "U_tau", 0.8),
           ("inverter", "Gamma", 250.0),
           ("heating", "K_ps", 0.1), ("heating", "T_h", 295.15),
           ("heating", "T_l", 287.15), ("heating", "T_s0", 353.15),
           ("heating", "G_hn", 180.0), ("heating", "G_u", 120.0),
           ("heating", "t_h", 30.0), ("heating", "K_pu", 2.0),
           ("heating", "step_width", 2.0)]


@pytest.mark.parametrize("name,field,value", _PARAMS,
                         ids=[f"{n}-{f}" for n, f, _ in _PARAMS])
def test_problem_parameters_reach_the_rhs(name, field, value):
    """A valid non-default value of each model parameter changes the RHS."""
    size = {"N": 10 if name == "inverter" else 5}
    default = make_problem(name, size)
    changed = make_problem(name, dict(size, **{field: value}))
    if name == "inverter":
        y, t = np.linspace(0.2, 4.8, default.N), 12.0
    else:
        # Half a second into the first set-point switch, whose transition
        # is one second wide, so T_h, T_l and step_width all act.
        t_up, _ = bench.heating_schedule(bench.HeatingParams(**size))
        y = np.concatenate([[330.0], np.full(5, 50.0), np.full(5, 289.5),
                            [0.0]])
        t = t_up.min() + 0.5
    f_default, f_changed = np.empty(default.N), np.empty(default.N)
    default.rhs(y, t, f_default)
    changed.rhs(y, t, f_changed)
    assert not np.array_equal(f_default, f_changed)


# Problem size and span of the bad-parameter sweep, per problem.
_TINY = {"inverter": {"N": 10, "t_span": [0, 0.5]},
         "burgers": {"N": 10, "t_span": [0, 0.01]},
         "heating": {"N": 2, "t_span": [0, 10]}}
_BAD = [(name, f.name, value) for name, (cls, _) in cli._PROBLEMS.items()
        for f in dataclasses.fields(cls) if f.type in ("int", "float")
        for value in ("0", "-1", "NaN", "Infinity")]


@pytest.mark.parametrize("name,field,value", _BAD,
                         ids=[f"{n}-{f}={v}" for n, f, v in _BAD])
def test_bad_problem_parameter_never_raises(tmp_path, capsys, name, field,
                                            value):
    """Every numeric parameter at 0, -1, NaN and inf, on a tiny run, ends
    in an exit code (0, 2 or 3), never in an exception; a usage error is
    one line."""
    argv = ["solve", "--problem", name, "--output-dt", "0.1"]
    for key, default in _TINY[name].items():
        if key != field:
            argv += ["--param", f"{key}={json.dumps(default)}"]
    argv += ["--param", f"{field}={value}", "--outdir", str(tmp_path)]
    with np.errstate(all="ignore"):
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3)
    if rc == 2:
        assert err.startswith("usage error:") and err.count("\n") == 1


_AT_CONSTRUCTION = [
    ("burgers", "L_dom=0", None), ("heating", "t_h=0", None),
    ("burgers", "L_dom=-5", None), ("heating", "step_width=0", None),
    ("inverter", "Gamma=NaN", None), ("heating", "G_hn=0", None),
    ("heating", "G_hn=-1", None),
    ("heating", "T_s0=293.15",
     "require T_s0 > T_h, got T_s0=293.15, T_h=293.15"),
    ("heating", "T_h=350", "require T_s0 > T_h, got T_s0=343.15, T_h=350")]


@pytest.mark.parametrize("name,param,message", _AT_CONSTRUCTION,
                         ids=[f"{n}-{p}" for n, p, _ in _AT_CONSTRUCTION])
def test_bad_problem_parameter_fails_at_construction(tmp_path, capsys, name,
                                                      param, message):
    """A zero or negative length, a zero time constant or transition
    width, a NaN gain, a heating supply conductance G_hn <= 0 and a supply
    start temperature T_s0 at or below T_h exit 2 with one usage-error
    line, before any run: they used to raise ZeroDivisionError, run on, or
    fail only after the run (G_hn = 0 divided by Q_max = 0 in
    `smooth_sat`, and G_hn < 0 or T_s0 < T_h reversed its range)."""
    rc = main(["solve", "--problem", name, "--param", "N=10", "--param",
               param, "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    field = param.partition("=")[0]
    assert err.startswith(
        f"usage error: {message or f'{field} must be finite and '}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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
