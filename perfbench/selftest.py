"""Self-test of the benchmark's correctness checks.

Each check is fed a known-good result, which must pass, and a deliberately
wrong one (a perturbed final state, one flipped table cell), which must
fail.  `run.py` runs this before every measurement; run it alone with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path


def _expect(cond, what):
    if not cond:
        raise SystemExit(f"benchmark self-test failed: {what}")


def check_integration_checks():
    import numpy as np
    from mrrk.adapt import SolverConfig
    import cases
    cfg = SolverConfig(rtol=1e-5, atol=1e-5)
    ref = np.linspace(-3.0, 300.0, 202)
    T = 43200.0
    tol = cfg.rtol * np.abs(ref) + cfg.atol
    good = ref + 0.5 * tol
    _expect(cases.check_integration(T, good, ref, T, cfg) is None,
            "an accurate final state was rejected")
    for i in (0, 101, 201):
        bad = good.copy()
        bad[i] += 2.0 * cases.ERR_LIMIT * tol[i]
        _expect(cases.check_integration(T, bad, ref, T, cfg) is not None,
                f"a final state perturbed at component {i} passed")
    bad = good.copy()
    bad[7] = np.nan
    _expect(cases.check_integration(T, bad, ref, T, cfg) is not None,
            "a non-finite final state passed")
    _expect(cases.check_integration(0.99 * T, good, ref, T, cfg) is not None,
            "an integration that stopped short of T passed")


def check_cell_checks():
    import cases
    from mrrk import stability
    cells = cases.stability_cells()
    _expect(len(cells) == 504, f"{len(cells)} table cells, not 504")
    ids = {c.id for c in cells}
    _expect(cases.STANDING_MISMATCHES <= ids,
            "a standing mismatch names no table cell")
    cell = cells[0]                      # erk4/Hermite, alpha 1, M = 2
    entry = stability.table_entry(cell.model, cell.method, cell.interp,
                                  cell.M)
    _expect(cases.check_cell(cell, entry) is None,
            f"published cell {cell.id} = {cell.expected} was rejected")
    _expect(cases.check_cell(cell, entry + 1) is not None,
            "a flipped numeric cell passed")
    _expect(cases.check_cell(cell, ">= 100") is not None,
            "a cell flipped to the stable sentinel passed")
    stable = next(c for c in cells if c.expected == cases.GE)
    _expect(cases.check_cell(stable, ">= 100") is None,
            "a stable-everywhere cell was rejected")
    _expect(cases.check_cell(stable, 7) is not None,
            "a stable cell flipped to a number passed")


def run():
    check_integration_checks()
    check_cell_checks()


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    run()
    print("benchmark self-test passed")
