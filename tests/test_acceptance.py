"""Acceptance gate: one test per shipping criterion, each with its time budget.

Run with -v to get the per-criterion pass/fail lines. The heavy criteria
(3, 4, 7) re-run the full check suites rather than trusting cached results,
so this file alone takes a couple of minutes.
"""

import os
import time

import pytest

from isocut import checks
from isocut.closedform import max_degree_sum, min_edge_boundary
from isocut.graphs import Graph, HammingParams, bc_network, hamming_graph
from isocut.oracle import OracleBudget

ORACLE_ACCEPTANCE_BUDGET = OracleBudget(
    max_subsets=400_000_000,
    parallel_chunks=os.cpu_count() or 1,
)


def run_suite(make_rows, budget_s):
    t0 = time.monotonic()
    rows = make_rows()
    elapsed = time.monotonic() - t0
    failures = [r for r in rows if r.status == "fail"]
    assert not failures, [r.name + f": expected={r.expected} actual={r.actual}" for r in failures]
    assert elapsed < budget_s, f"suite took {elapsed:.1f}s, budget {budget_s}s"
    return rows


def test_criterion_01_reference_table_cells():
    rows = run_suite(checks.table_one_checks, budget_s=1.0)
    # the five cells themselves, stated flat so a regression names the number
    expect = {
        (2, 4, 5): (10, 10),
        (3, 4, 8): (28, 36),
        (4, 4, 10): (42, 78),
        (5, 2, 7): (26, 30),
        (10, 2, 12): (96, 120),
    }
    assert checks.GOLDEN_BOUNDARY_CELLS == expect
    for (arity, dim, m), (ex, xi) in expect.items():
        p = HammingParams(arity, dim)
        assert max_degree_sum(m, p) == ex
        assert min_edge_boundary(m, p) == xi
    # one row flags the corrected cell so the deviation is never silent
    assert any(r.status == "note" for r in rows)


@pytest.mark.xfail(
    strict=True,
    reason="the published table quotes (42, 14) for the arity-5 dim-2 cell at "
    "m=7; exhaustive enumeration gives (26, 30), and (42, 14) would need a "
    "7-vertex set inducing 21 edges, impossible when the largest clique has "
    "5 vertices. Kept as a strict expected-failure so the discrepancy stays "
    "visible; see GOLDEN_BOUNDARY_CELLS / DEVIANT_REFERENCE_CELL in checks.",
)
def test_criterion_01_recorded_reference_pair():
    arity, dim, m = checks.DEVIANT_REFERENCE_CELL["cell"]
    p = HammingParams(arity, dim)
    quoted = checks.DEVIANT_REFERENCE_CELL["quoted"]
    assert (max_degree_sum(m, p), min_edge_boundary(m, p)) == quoted


def test_criterion_02_connectivity_value_grid():
    rows = run_suite(checks.connectivity_grid_checks, budget_s=1.0)
    # spotted formulas, arity by arity
    assert len(rows) == 9 * 7  # L in 2..10, n in 2..8


def test_criterion_03_witness_consistency_sweep():
    rows = run_suite(checks.witness_sweep_checks, budget_s=300.0)
    assert sum(r.status == "pass" for r in rows) >= 200


def test_criterion_04_oracle_formula_agreement():
    rows = run_suite(
        lambda: checks.oracle_agreement_checks(ORACLE_ACCEPTANCE_BUDGET, full=True),
        budget_s=900.0,
    )
    covered = {name.split()[-1] for name in (r.name for r in rows)}
    assert covered == {"K_2^2", "K_2^3", "K_2^4", "K_3^2", "K_4^2", "K_5^2", "K_3^3"}


def test_criterion_05_monotonicity_lemmas():
    rows = run_suite(checks.monotonicity_checks, budget_s=60.0)
    names = {r.name for r in rows}
    assert names == {
        "degree-sum-split",
        "unit-step-monotone",
        "block-step-monotone",
        "power-step-monotone",
        "threshold-floor",
        "block-formula-consistency",
    }


def test_criterion_05_floor_row_sees_every_size(monkeypatch):
    # one block of K_10^8, far past where sizes used to be sampled, made one
    # worse than the true least boundary above it
    planted = (HammingParams(10, 8), 3 * 10**5)
    true_boundary = checks.min_edge_boundary

    def planted_boundary(m, params):
        return true_boundary(m, params) + ((params, m) == planted)

    monkeypatch.setattr(checks, "min_edge_boundary", planted_boundary)
    rows = {r.name: r for r in checks.monotonicity_checks()}
    assert rows["threshold-floor"].status == "fail"
    assert rows["threshold-floor"].actual == ["K_10^8 threshold=300000"]


def test_criterion_06_bc_network_transfer():
    rows = run_suite(
        lambda: checks.bc_transfer_checks(ORACLE_ACCEPTANCE_BUDGET, full=True),
        budget_s=120.0,
    )
    # every dim-4 matching variant must hit 4-extra connectivity 8
    extra4 = [r for r in rows if r.name.startswith("bc-extra-4")]
    assert len(extra4) == 7
    assert all(r.expected == (8, 8) for r in extra4)
    # the 14 variants and each policy at dims 10 and 12 are BC networks
    structure = [r.name for r in rows if r.name.startswith("bc-structure ")]
    assert len(structure) == 14 + 6
    assert "bc-structure bc(12,seeded_random,seed=0)" in structure


def test_criterion_06_structure_rejects_non_bc_graphs():
    assert checks._bc_structure_row(hamming_graph(HammingParams(3, 2))).status == "fail"
    # move the level-3 edge 0-4 to 0-5 inside the lower half: still
    # symmetric, and vertex 0 still has one neighbour per level
    edges = set(bc_network(4).edges()) - {(0, 4)} | {(0, 5)}
    rows = [[] for _ in range(16)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    moved = Graph(16, tuple(map(tuple, map(sorted, rows))), label="moved")
    row = checks._bc_structure_row(moved)
    assert row.status == "fail"
    assert row.actual == ["v=4: neighbours [5, 6, 12]", "v=5: neighbours [0, 1, 4, 7, 13]"]


def test_criterion_07_two_part_optimality():
    rows = run_suite(
        lambda: checks.two_part_checks(ORACLE_ACCEPTANCE_BUDGET),
        budget_s=600.0,
    )
    graphs = {r.name.split()[1] for r in rows}
    assert graphs == {"K_2^3", "K_2^4", "K_3^2", "K_4^2"}


def test_criterion_08_reduced_form_agreement():
    run_suite(checks.reduction_checks, budget_s=1.0)
