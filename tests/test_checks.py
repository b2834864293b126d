"""The verify suites' rows, byte for byte.

The default `isocut verify --format json` output is pinned to a golden file,
and wrong values planted one cell at a time pin the status and the actual
value that the failing rows report.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from isocut import checks
from isocut.closedform import ConditionKind
from isocut.graphs import HammingParams

GOLDEN_FAST = Path(__file__).parent / "data" / "verify_fast.json"


def test_default_verify_json_is_byte_identical_to_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "isocut.cli", "verify", "--format", "json",
         "--threads", "1"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN_FAST.read_bytes()


def _plant(monkeypatch, name, wrong):
    """Replace checks.<name> by a copy that returns wrong(*args) where that
    is not None, and the true value everywhere else."""
    true = getattr(checks, name)

    def planted(*args):
        got = wrong(*args)
        return true(*args) if got is None else got

    monkeypatch.setattr(checks, name, planted)


def _rows(suite):
    return {r.name: r for r in suite()}


@pytest.mark.parametrize(
    "cell, actual",
    [
        ((9, 100), ["n=9 m=100"]),
        ((16, 6561), ["n=16 m=6561"]),
    ],
)
def test_ternary_reduction_names_the_planted_cell(monkeypatch, cell, actual):
    _plant(
        monkeypatch,
        "min_boundary_ternary",
        lambda m, dim: -1 if (dim, m) == cell else None,
    )
    rows = _rows(checks.reduction_checks)
    assert rows["binary-reduction"].status == "pass"
    row = rows["ternary-reduction"]
    assert (row.status, row.actual) == ("fail", actual)
    assert row.expected == "agreement for m <= 6561 at n=9 and n=16"


def test_reduction_row_keeps_the_first_five_problems(monkeypatch):
    _plant(monkeypatch, "min_boundary_binary", lambda m, dim: -1 if m > 4090 else None)
    row = _rows(checks.reduction_checks)["binary-reduction"]
    assert row.status == "fail"
    assert row.actual == [f"n=13 m={m}" for m in range(4091, 4096)]


@pytest.mark.parametrize(
    "cell, actual",
    [
        ((2, 1, HammingParams(3, 4)), ["K_3^4 g=2 t=1"]),
        ((1, 0, HammingParams(2, 2)), ["K_2^2 g=1 t=0"]),
        ((9, 3, HammingParams(10, 8)), ["K_10^8 g=9 t=3"]),
    ],
)
def test_block_formula_row_names_the_planted_block(monkeypatch, cell, actual):
    _plant(
        monkeypatch,
        "sublayer_block_boundary",
        lambda g, t, params: -1 if (g, t, params) == cell else None,
    )
    rows = _rows(checks.monotonicity_checks)
    row = rows["block-formula-consistency"]
    assert (row.status, row.actual) == ("fail", actual)
    assert rows["threshold-floor"].status == "pass"


@pytest.mark.parametrize(
    "cell, wrong, actual",
    [
        ((ConditionKind.extra(9), HammingParams(3, 4)), 37, ["extra(9)@t=2: 37!=36"]),
        (
            (ConditionKind.super_degree(0), HammingParams(2, 2)),
            0,
            ["super(0)@t=0: 0!=2"],
        ),
        (
            (ConditionKind.cyclic(), HammingParams(2, 2)),
            99,
            ["cyclic: expected DomainError, got 99"],
        ),
        ((ConditionKind.cyclic(), HammingParams(4, 3)), 22, ["cyclic: 22!=21"]),
    ],
)
def test_connectivity_grid_row_names_the_planted_condition(
    monkeypatch, cell, wrong, actual
):
    _plant(
        monkeypatch,
        "conditional_connectivity",
        lambda cond, params: wrong if (cond, params) == cell else None,
    )
    rows = [r for r in checks.connectivity_grid_checks() if r.status != "pass"]
    assert [(r.name, r.status, r.actual) for r in rows] == [
        (f"connectivity-grid {cell[1]}", "fail", actual)
    ]
    assert rows[0].expected == "all conditions match closed forms"


def test_suffix_minimum_row_names_the_planted_h(monkeypatch):
    cell = (ConditionKind.extra(3), HammingParams(2, 3))
    wrong = checks.conditional_connectivity(*cell) + 1
    _plant(
        monkeypatch,
        "conditional_connectivity",
        lambda cond, params: wrong if (cond, params) == cell else None,
    )
    rows = [r for r in checks.oracle_agreement_checks() if r.status != "pass"]
    assert [(r.name, r.status, r.actual) for r in rows] == [
        ("suffix-minimum[extra] K_2^3", "fail", [f"h=3: {wrong}!={wrong - 1}"])
    ]


@pytest.mark.parametrize(
    "field, actual",
    [
        ("cut_size", ["m=3: witness recount 99"]),
        ("complement_connected", ["m=3: witness complement disconnected"]),
    ],
)
def test_bc_transfer_row_checks_its_witnesses(monkeypatch, field, actual):
    # one witness of one network reported wrong: only that network's row fails
    true = checks.evaluate_cut
    wrong = {"cut_size": 99, "complement_connected": False}[field]

    def planted(graph, witness):
        report = true(graph, witness)
        if graph.label == "bc(3,reversal)" and len(witness) == 3:
            return dataclasses.replace(report, **{field: wrong})
        return report

    monkeypatch.setattr(checks, "evaluate_cut", planted)
    rows = [r for r in checks.bc_transfer_checks() if r.status != "pass"]
    assert [(r.name, r.actual) for r in rows] == [("bc-transfer bc(3,reversal)", actual)]
