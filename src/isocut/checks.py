"""Verification suites shared by the CLI and the test suite.

Each suite returns a list of CheckResult rows so the same code backs
`isocut verify` and the acceptance tests. Rows carry expected/actual values
for the summary printer; a row with status "note" documents something worth
seeing without being a failure (the one known golden-data erratum, the
analytic tail of the clique sweep).

Row rule: every exhaustive row is built by `_listed_row` from an iterable of
cells, each yielding a problem text or None when it holds. The row fails iff
some cell has a problem; its actual value is then the first five problems,
else its summary with `{count}` replaced by the number of cells.

Tier flag: a suite whose grid grows under `isocut verify --full` takes
`full: bool = False`, which means what that option means.

Golden values here were frozen from independent enumeration before the
formula code existed; the oracle suites re-derive them on every full run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, count, pairwise, repeat, takewhile

from .closedform import (
    ConditionKind,
    _min_boundary_from,
    conditional_connectivity,
    decompose,
    degree_sum_split,
    max_degree_sum,
    min_boundary_binary,
    min_boundary_ternary,
    min_edge_boundary,
    sublayer_block_boundary,
)
from .construct import evaluate_cut, prefix_cut_sweep
from .errors import DomainError
from .graphs import MATCHING_POLICIES, HammingParams, bc_network, hamming_graph
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    bipartite_property_check,
    brute_boundary_profile,
    brute_extra_connectivity,
)

__all__ = [
    "CheckResult",
    "table_one_checks",
    "connectivity_grid_checks",
    "witness_sweep_checks",
    "monotonicity_checks",
    "reduction_checks",
    "oracle_agreement_checks",
    "bc_transfer_checks",
    "two_part_checks",
    "ORACLE_GRID_FAST",
    "ORACLE_GRID_FULL",
    "BC_SEEDS",
    "TWO_PART_GRAPHS",
]


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "note"
    expected: object = None
    actual: object = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _row(name, expected, actual, detail="") -> CheckResult:
    status = "pass" if expected == actual else "fail"
    return CheckResult(name, status, expected, actual, detail)


def _listed_row(name, expected, cells, summary) -> CheckResult:
    """A row over `cells`, each a problem text or None when it holds.

    It fails iff some cell has a problem; its actual value is the first five
    problems, or `summary` formatted with the cell `count` when there are none.
    """
    n_cells = 0
    bad = []
    for n_cells, problem in enumerate(cells, start=1):
        if problem is not None and len(bad) < 5:
            bad.append(problem)
    status = "fail" if bad else "pass"
    return CheckResult(name, status, expected, bad or summary.format(count=n_cells))


# --- golden boundary table -----------------------------------------------------
#
# (arity, dim, m) -> (max degree sum, boundary). All five confirmed by
# exhaustive enumeration of m-subsets. The widely quoted value for
# (5, 2, 7) is (42, 14); that pair is impossible: a degree sum of 42 over 7
# vertices means 21 induced edges, a 7-clique, and K_5^2 has clique number 5.
# Enumeration (and the general formula) give (26, 30) instead.

GOLDEN_BOUNDARY_CELLS = {
    (2, 4, 5): (10, 10),
    (3, 4, 8): (28, 36),
    (4, 4, 10): (42, 78),
    (5, 2, 7): (26, 30),
    (10, 2, 12): (96, 120),
}

DEVIANT_REFERENCE_CELL = {
    "cell": (5, 2, 7),
    "quoted": (42, 14),
    "exact": (26, 30),
}


def table_one_checks() -> list[CheckResult]:
    rows = []
    for (arity, dim, m), (want_ex, want_xi) in sorted(GOLDEN_BOUNDARY_CELLS.items()):
        params = HammingParams(arity, dim)
        got = (max_degree_sum(m, params), min_edge_boundary(m, params))
        rows.append(
            _row(
                f"boundary-cell {params} m={m}",
                (want_ex, want_xi),
                got,
                "max degree sum / min boundary",
            )
        )
    cell = DEVIANT_REFERENCE_CELL
    rows.append(
        CheckResult(
            "boundary-cell K_5^2 m=7 erratum",
            "note",
            cell["quoted"],
            cell["exact"],
            "quoted reference pair needs a K_7 inside K_5^2 (clique number 5); "
            "enumeration and formula agree on (26, 30)",
        )
    )
    return rows


# --- conditional connectivity grid ---------------------------------------------

_MAX_ARITY, _MAX_DIM = 10, 8  # the closed-form grid: every K_L^n, L <= 10, n <= 8


def _grid(max_arity: int = _MAX_ARITY, max_dim: int = _MAX_DIM):
    for arity in range(2, max_arity + 1):
        for dim in range(2, max_dim + 1):
            yield HammingParams(arity, dim)


def _cyclic_expected(arity: int, dim: int) -> int | None:
    """Closed cyclic value on the grid; None where the condition is infeasible."""
    if arity == 2:
        return (dim - 2) * 4 if dim >= 3 else None
    if arity == 3:
        return 2 * (dim - 1) * 3
    return 3 * ((arity - 1) * dim - 2)


def _connectivity_cells(params: HammingParams):
    arity, dim = params.arity, params.dim
    for t in range(dim):
        want = (arity - 1) * (dim - t) * arity**t
        block = arity**t
        conds = (
            ConditionKind.extra(block),
            ConditionKind.embedded(t),
            ConditionKind.super_degree((arity - 1) * t),
            ConditionKind.average_degree((arity - 1) * t),
            ConditionKind.isoperimetric(block),
        )
        for cond in conds:
            got = conditional_connectivity(cond, params)
            yield None if got == want else f"{cond.describe()}@t={t}: {got}!={want}"
    want = _cyclic_expected(arity, dim)
    if want is None:
        try:
            got = conditional_connectivity(ConditionKind.cyclic(), params)
        except DomainError:
            yield None
        else:
            yield f"cyclic: expected DomainError, got {got}"
    else:
        got = conditional_connectivity(ConditionKind.cyclic(), params)
        yield None if got == want else f"cyclic: {got}!={want}"


def connectivity_grid_checks() -> list[CheckResult]:
    """Every structured condition on the (arity, dim) grid against the
    single closed expression (arity-1)(dim-t)·arity^t, plus the cyclic rule."""
    return [
        _listed_row(
            f"connectivity-grid {params}",
            "all conditions match closed forms",
            _connectivity_cells(params),
            "{count} conditions",
        )
        for params in _grid()
    ]


# --- witness construction sweep -------------------------------------------------

_SWEEP_VERTEX_LIMIT = 10_000  # every K_L^n with at most this many vertices
_SWEEP_CLIQUE_LIMIT = 100  # K_L materialized up to here, analytic beyond


def _sweep_problem(sweep, params: HammingParams) -> str | None:
    m = sweep.size
    want_cut = min_edge_boundary(m, params)
    want_internal = max_degree_sum(m, params) // 2
    if (
        sweep.cut_size == want_cut
        and sweep.internal_edges == want_internal
        and sweep.side_connected
        and sweep.complement_connected
    ):
        return None
    return (
        f"m={m}: cut {sweep.cut_size}/{want_cut} internal "
        f"{sweep.internal_edges}/{want_internal} conn "
        f"{sweep.side_connected},{sweep.complement_connected}"
    )


def _witness_sweep_row(params: HammingParams) -> CheckResult:
    graph = hamming_graph(params, max_vertices=_SWEEP_VERTEX_LIMIT)
    half = params.half_size
    return _listed_row(
        f"witness-sweep {params}",
        "cut=boundary, internal=degree-sum/2, both sides connected",
        (_sweep_problem(sweep, params) for sweep in prefix_cut_sweep(graph, half)),
        f"{half} prefix sizes exact",
    )


def _clique_tail_row() -> CheckResult:
    """Cliques beyond the materialization limit, checked analytically.

    On K_L the initial segment {0..m-1} cuts exactly m(L-m) edges (every
    in/out pair is adjacent), induces C(m,2) edges, and both sides are
    cliques, hence connected. The formula side reduces to the same numbers:
    m < L decomposes as a single digit, so the degree sum is m(m-1) and the
    boundary (L-1)m - m(m-1) = m(L-m). The loop below spot-checks the API at
    the ends and middle of every range so a regression cannot hide behind
    the algebra.
    """

    def cells():
        for arity in range(_SWEEP_CLIQUE_LIMIT + 1, 10_000 + 1):
            params = HammingParams(arity, 1)
            half = arity // 2
            for m in sorted({1, 2, half // 2, half - 1, half}):
                yield None if (
                    max_degree_sum(m, params) == m * (m - 1)
                    and min_edge_boundary(m, params) == m * (arity - m)
                ) else f"K_{arity} m={m}"

    row = _listed_row(
        "clique-sweep-tail",
        "degree sum m(m-1), boundary m(L-m)",
        cells(),
        "{count} spot checks pass; remaining sizes follow from the "
        "single-digit reduction (see docstring)",
    )
    if row.ok:
        row.status = "note"
    return row


def witness_sweep_checks() -> list[CheckResult]:
    """Prefix sets of every materializable K_L^n realize the closed forms."""
    rows = [
        _witness_sweep_row(HammingParams(arity, 1))
        for arity in range(2, _SWEEP_CLIQUE_LIMIT + 1)
    ]
    for dim in range(2, _SWEEP_VERTEX_LIMIT.bit_length()):
        arities = takewhile(lambda a: a**dim <= _SWEEP_VERTEX_LIMIT, count(2))
        rows += [_witness_sweep_row(HammingParams(a, dim)) for a in arities]
    rows.append(_clique_tail_row())
    return rows


# --- boundary function monotonicity ---------------------------------------------

def _split_cells():
    for params in _grid(6, 6):
        arity = params.arity
        for total in range(2, arity ** (params.dim // 2) + 1):
            terms = decompose(total, arity).terms
            for j in range(1, len(terms)):
                h1 = sum(a * arity**b for a, b in terms[:j])
                h2 = total - h1
                split = degree_sum_split(h1, h2, params)
                holds = split == max_degree_sum(total, params)
                yield None if holds else f"{params} {h1}+{h2}"


def _unit_step_cells():
    for params in _grid():
        top = params.arity ** (params.dim // 2)
        bounds = (min_edge_boundary(m, params) for m in range(1, top + 1))
        for m, (prev, cur) in enumerate(pairwise(bounds), start=2):
            yield None if cur >= prev else f"{params} m={m}"


def _block_step_cells():
    # g*arity^t -> (g+1)*arity^t, from the empty set's boundary 0
    for params in _grid():
        arity = params.arity
        for t in range(params.dim - 1):
            sizes = (g * arity**t for g in range(1, arity))
            bounds = chain((0,), (min_edge_boundary(m, params) for m in sizes))
            for g, (prev, cur) in enumerate(pairwise(bounds), start=1):
                yield None if cur >= prev else f"{params} g={g} t={t}"


def _power_step_cells():
    for params in _grid():
        bounds = (min_edge_boundary(params.arity**t, params) for t in range(params.dim))
        for t, (prev, cur) in enumerate(pairwise(bounds)):
            yield None if cur >= prev else f"{params} t={t}"


def _half_blocks():
    """(params, g, t, size) for every block of size g·arity^t <= floor(N/2)
    on the grid."""
    for params in _grid():
        for t in range(params.dim):
            for g in range(1, params.arity):
                size = g * params.arity**t
                if size <= params.half_size:
                    yield params, g, t, size


def _floor_cells():
    for params, _, _, size in _half_blocks():
        holds = _min_boundary_from(size, params) >= min_edge_boundary(size, params)
        yield None if holds else f"{params} threshold={size}"


def _block_formula_cells():
    for params, g, t, size in _half_blocks():
        holds = sublayer_block_boundary(g, t, params) == min_edge_boundary(size, params)
        yield None if holds else f"{params} g={g} t={t}"


def monotonicity_checks() -> list[CheckResult]:
    """The staircase structure of the boundary function, checked cellwise.

    Covers: the split identity for degree sums; unit steps never decrease
    below the square-root threshold; whole-block and power steps never
    decrease; the floor property (no m at or above a block, offsets inside
    it included, beats the block value); and the block formula agreeing with
    the general one. Every row is exhaustive on the whole grid: the floor row
    compares a block's boundary with the digit DP's least boundary over all
    sizes from it up to floor(N/2), which is exact however many sizes that
    is.
    """
    return [
        _listed_row(name, expected, cells(), summary)
        for name, cells, summary, expected in (
            ("degree-sum-split", _split_cells, "{count} splits",
             "split sum equals direct degree sum"),
            ("unit-step-monotone", _unit_step_cells, "{count} steps",
             "boundary never decreases on the first interval"),
            ("block-step-monotone", _block_step_cells, "{count} steps",
             "boundary never decreases block to block"),
            ("power-step-monotone", _power_step_cells, "{count} steps",
             "boundary never decreases power to power"),
            ("threshold-floor", _floor_cells, "{count} thresholds",
             "no size at or above a block beats the block boundary"),
            ("block-formula-consistency", _block_formula_cells, "{count} blocks",
             "block expression equals general boundary"),
        )
    ]


# --- base-2 / base-3 reductions -------------------------------------------------

def _reduction_cells(reduced, arity: int, dims, top: int):
    for dim in dims:
        params = HammingParams(arity, dim)
        for m in range(1, top + 1):
            holds = reduced(m, dim) == min_edge_boundary(m, params)
            yield None if holds else f"n={dim} m={m}"


def reduction_checks() -> list[CheckResult]:
    rows = []
    for name, reduced, arity, dims, top in (
        ("binary-reduction", min_boundary_binary, 2, (13, 24), 2**12),
        ("ternary-reduction", min_boundary_ternary, 3, (9, 16), 3**8),
    ):
        summary = f"agreement for m <= {top} at n={dims[0]} and n={dims[1]}"
        cells = _reduction_cells(reduced, arity, dims, top)
        rows.append(_listed_row(name, summary, cells, summary))
    return rows


# --- oracle agreement -----------------------------------------------------------

ORACLE_GRID_FAST = ((2, 2), (2, 3), (3, 2), (4, 2))
ORACLE_GRID_FULL = ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2), (3, 3))
_ORACLE_M_CAP = 12  # profiles stop at this size (or floor(N/2) if smaller)


def _profile_row(name, expected, graph, params, profile, mode) -> CheckResult:
    """Each size's enumerated minimum equals the closed form of `params`,
    and its witness recounts to it with the sides `mode` asks connected."""

    def cells():
        for m, entry in enumerate(profile, start=1):
            if entry is None:
                yield f"m={m}: no qualifying set"
                continue
            cut, witness = entry
            want = min_edge_boundary(m, params)
            if cut != want:
                yield f"m={m}: {cut}!={want}"
                continue
            report = evaluate_cut(graph, witness)
            if report.cut_size != cut:
                yield f"m={m}: witness recount {report.cut_size}"
            elif mode in ("connected", "bilateral") and not report.side_connected:
                yield f"m={m}: witness side disconnected"
            elif mode == "bilateral" and not report.complement_connected:
                yield f"m={m}: witness complement disconnected"
            else:
                yield None

    return _listed_row(name, expected, cells(), f"sizes 1..{len(profile)}")


def _suffix_cells(kind: str, params: HammingParams, wants):
    for h, want in enumerate(wants, start=1):
        got = conditional_connectivity(ConditionKind(kind, h), params)
        yield None if got == want else f"h={h}: {got}!={want}"


def oracle_agreement_checks(
    budget: OracleBudget = DEFAULT_BUDGET, full: bool = False
) -> list[CheckResult]:
    """Unconstrained, connected and both-sides-connected minima all equal
    the closed form on small graphs, with verified witnesses."""
    rows = []
    for arity, dim in ORACLE_GRID_FULL if full else ORACLE_GRID_FAST:
        params = HammingParams(arity, dim)
        graph = hamming_graph(params)
        max_m = min(_ORACLE_M_CAP, params.half_size)
        profiles = {}
        for mode in ("any", "connected", "bilateral"):
            profiles[mode] = brute_boundary_profile(graph, max_m, mode, budget)
            rows.append(
                _profile_row(
                    f"scan-minimum[{mode}] {params}",
                    "enumerated minima equal closed form, witnesses check out",
                    graph, params, profiles[mode], mode,
                )
            )
        if max_m < params.half_size:
            continue
        # the least cut with a side of at least h vertices: suffix minima
        for kind, mode in (("extra", "bilateral"), ("isoperimetric", "any")):
            cuts = [math.inf if e is None else e[0] for e in profiles[mode]]
            wants = list(accumulate(reversed(cuts), min))[::-1]
            rows.append(_listed_row(
                f"suffix-minimum[{kind}] {params}",
                f"closed form equals the suffix minima of scan-minimum[{mode}]",
                _suffix_cells(kind, params, wants), "h=1..{count}",
            ))
    return rows


# --- bijective connection transfer ----------------------------------------------

BC_SEEDS = (7, 13, 42, 99, 2024)
_BC_DIMS = (3, 4)
_BC_STRUCTURE_DIMS = (10, 12)


def _bc_variants(dim: int):
    yield bc_network(dim, "identity")
    yield bc_network(dim, "reversal")
    for seed in BC_SEEDS:
        yield bc_network(dim, "seeded_random", seed=seed)


def _bc_structure_row(graph) -> CheckResult:
    """Whether ``graph`` is a BC network, read off its adjacency alone.

    A graph on 2^n vertices is one iff its rows are symmetric and every
    vertex v has exactly one neighbour u at each level
    ``(u ^ v).bit_length()`` in 1..n. Then the level-k edges are a perfect
    matching between the two halves of every block of 2^k ids, so each
    block is two BC networks one level down joined by a perfect matching.
    """
    n_vertices = graph.vertex_count
    dim = n_vertices.bit_length() - 1

    def cells():
        holds = n_vertices == 1 << dim
        yield None if holds else f"{n_vertices} vertices, not a power of 2"
        levels = list(range(1, dim + 1))
        arcs = set()
        for v, row in enumerate(graph.adjacency):
            arcs.update(zip(repeat(v), row))
            holds = sorted((u ^ v).bit_length() for u in row) == levels
            yield None if holds else f"v={v}: neighbours {list(row)}"
        for v, u in sorted(arcs):
            yield None if (u, v) in arcs else f"{v}->{u} has no {u}->{v}"

    return _listed_row(
        f"bc-structure {graph.label}",
        "symmetric rows, one neighbour per level",
        cells(),
        f"levels 1..{dim} at {n_vertices} vertices",
    )


def bc_transfer_checks(
    budget: OracleBudget = DEFAULT_BUDGET, full: bool = False
) -> list[CheckResult]:
    """Every matching variant, and each policy at dims 10 and 12, is a BC
    network; the both-sides-connected minima of every variant coincide with
    the binary Hamming values, and the 4-extra connectivity of the dim-4
    networks equals 4*4-8."""
    rows = []
    for dim in _BC_DIMS:
        params = HammingParams(2, dim)
        half = params.half_size
        for graph in _bc_variants(dim):
            rows.append(_bc_structure_row(graph))
            if not full and dim == 4 and "identity" not in graph.label:
                continue
            profile = brute_boundary_profile(graph, half, "bilateral", budget)
            rows.append(
                _profile_row(
                    f"bc-transfer {graph.label}",
                    "matches binary Hamming boundary",
                    graph, params, profile, "bilateral",
                )
            )
            if dim == 4:
                formula = conditional_connectivity(ConditionKind.extra(4), params)
                got = brute_extra_connectivity(graph, 4, budget).optimum
                rows.append(
                    _row(
                        f"bc-extra-4 {graph.label}",
                        (8, 8),
                        (formula, got),
                        "4-extra connectivity, formula and enumeration, "
                        "both equal 4*4-8",
                    )
                )
    for dim in _BC_STRUCTURE_DIMS:
        for policy in MATCHING_POLICIES:
            rows.append(_bc_structure_row(bc_network(dim, policy)))
    return rows


# --- two-part structure of minimum conditional cuts ------------------------------

TWO_PART_GRAPHS = ((2, 3), (2, 4), (3, 2), (4, 2))


def _feasible_conditions(params: HammingParams):
    for kind in ("extra", "isoperimetric"):
        for h in range(1, params.half_size + 1):
            yield ConditionKind(kind, h)
    for t in range(params.dim):
        yield ConditionKind.embedded(t)
        yield ConditionKind.super_degree((params.arity - 1) * t)
        yield ConditionKind.average_degree((params.arity - 1) * t)
    if _cyclic_expected(params.arity, params.dim) is not None:
        yield ConditionKind.cyclic()


def two_part_checks(budget: OracleBudget = DEFAULT_BUDGET) -> list[CheckResult]:
    """Every minimum conditional cut splits the graph into exactly two
    qualifying parts, verified by exhausting multi-part alternatives."""
    rows = []
    for arity, dim in TWO_PART_GRAPHS:
        params = HammingParams(arity, dim)
        graph = hamming_graph(params)
        for cond in _feasible_conditions(params):
            holds = bipartite_property_check(graph, cond, params, budget)
            rows.append(
                _row(
                    f"two-part {params} {cond.describe()}",
                    True,
                    holds,
                    "no multi-part split matches the bipartition optimum",
                )
            )
    return rows
