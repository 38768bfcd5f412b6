"""The seed-table script ``studies/claims.py``: it imports and judges rows
as the acceptance tests do, without running a pipeline."""

import copy
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import PEAKS_5B, RATIO_5A, SUM_OF_SINGLETONS_TOL

SCRIPT = Path(__file__).resolve().parents[1] / "studies" / "claims.py"


@pytest.fixture(scope="module")
def claims():
    spec = importlib.util.spec_from_file_location("claims", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(deep=0.25):
    """A row shaped like ``run_seed``'s, on which every criterion holds, 5a
    exactly at its ratio."""
    phases = ("generation", "grid_fit", "linear_train", "deepset_train", "evaluation", "criterion_9")
    return {
        "phase_s": {name: float(i + 1) for i, name in enumerate(phases)},
        "d_error": {"naive_linear": RATIO_5A * deep, "learnt_linear": RATIO_5A * deep, "learnt_nonlinear": deep},
        "ratio_5a": {"naive_over_deepset": RATIO_5A, "linear_over_deepset": RATIO_5A},
        "peaks_5b": dict(PEAKS_5B),
        "k4_d_error": {"learnt_linear": 0.5, "learnt_nonlinear": 0.125},
        "k4_errors": {"learnt_linear": [0.5] * 5, "learnt_nonlinear": [0.125] * 5},
        "k4_sum_of_singletons_gap": SUM_OF_SINGLETONS_TOL / 2,
        "final_loss": {"linear": 0.01, "deepset": 0.02, "probe_linear": 0.03, "probe_deepset": 0.04},
    }


def test_parse_seeds(claims):
    assert claims.parse_seeds("1-3,42") == [1, 2, 3, 42]


def test_holds_judges_each_criterion_by_the_acceptance_thresholds(claims):
    row = _row()
    assert claims.holds(row) == {"5a": True, "5b": True, "9": True}
    below = copy.deepcopy(row)
    below["d_error"]["naive_linear"] = float(np.nextafter(RATIO_5A * 0.25, 0.0))
    assert claims.holds(below)["5a"] is False
    mismatch = copy.deepcopy(row)
    mismatch["peaks_5b"]["naive_linear"] += 1
    assert claims.holds(mismatch) == {"5a": True, "5b": False, "9": True}
    nan = copy.deepcopy(row)
    nan["k4_errors"]["learnt_nonlinear"][2] = math.nan
    assert claims.holds(nan) == {"5a": True, "5b": True, "9": False}


def test_summary_and_table_row_of_synthetic_rows(claims):
    rows = [_row(0.25), _row(0.5), _row(1.0)]
    summary = claims.summarise(rows)
    assert sorted(summary) == sorted(claims.SUMMARISED)
    assert summary["d_error"]["learnt_nonlinear"] == {"min": 0.25, "median": 0.5, "max": 1.0}
    assert summary["peaks_5b"]["naive_linear"] == {"min": 3, "median": 3, "max": 3}
    line = claims.table_row(7, rows[0])
    assert line.startswith("| 7 | f32 | ") and line.endswith(" | 3.0 / 4.0 |")
    assert "| 1.30 / 1.30 |" in line and "| 3/3/1/1 |" in line
