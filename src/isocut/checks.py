"""Verification suites shared by the CLI and the test suite.

Each suite returns a list of CheckResult rows so the same code backs
`isocut verify` and the acceptance tests. Rows carry expected/actual values
for the summary printer; a row with status "note" documents something worth
seeing without being a failure (the one known golden-data erratum, the
analytic tail of the clique sweep).

Golden values here were frozen from independent enumeration before the
formula code existed; the oracle suites re-derive them on every full run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat

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


def _listed_row(name, expected, bad, summary) -> CheckResult:
    """A row that fails iff `bad` lists a problem; its actual value is the
    first five problems, or `summary` when there are none."""
    return CheckResult(name, "fail" if bad else "pass", expected, bad[:5] or summary)


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


def connectivity_grid_checks() -> list[CheckResult]:
    """Every structured condition on the (arity, dim) grid against the
    single closed expression (arity-1)(dim-t)·arity^t, plus the cyclic rule."""
    rows = []
    for params in _grid():
        arity, dim = params.arity, params.dim
        bad = []
        checked = 0
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
                checked += 1
                got = conditional_connectivity(cond, params)
                if got != want:
                    bad.append(f"{cond.describe()}@t={t}: {got}!={want}")
        want_cyc = _cyclic_expected(arity, dim)
        checked += 1
        if want_cyc is None:
            try:
                got = conditional_connectivity(ConditionKind.cyclic(), params)
                bad.append(f"cyclic: expected DomainError, got {got}")
            except DomainError:
                pass
        else:
            got = conditional_connectivity(ConditionKind.cyclic(), params)
            if got != want_cyc:
                bad.append(f"cyclic: {got}!={want_cyc}")
        rows.append(
            _listed_row(
                f"connectivity-grid {params}",
                "all conditions match closed forms",
                bad,
                f"{checked} conditions",
            )
        )
    return rows


# --- witness construction sweep -------------------------------------------------

_SWEEP_VERTEX_LIMIT = 10_000  # every K_L^n with at most this many vertices
_SWEEP_CLIQUE_LIMIT = 100  # K_L materialized up to here, analytic beyond


def _witness_sweep_row(params: HammingParams) -> CheckResult:
    graph = hamming_graph(params, max_vertices=_SWEEP_VERTEX_LIMIT)
    half = params.half_size
    rows = prefix_cut_sweep(graph, half)
    bad = []
    for sweep in rows:
        m = sweep.size
        want_cut = min_edge_boundary(m, params)
        want_internal = max_degree_sum(m, params) // 2
        if (
            sweep.cut_size != want_cut
            or sweep.internal_edges != want_internal
            or not sweep.side_connected
            or not sweep.complement_connected
        ):
            bad.append(
                f"m={m}: cut {sweep.cut_size}/{want_cut} internal "
                f"{sweep.internal_edges}/{want_internal} conn "
                f"{sweep.side_connected},{sweep.complement_connected}"
            )
    return _listed_row(
        f"witness-sweep {params}",
        "cut=boundary, internal=degree-sum/2, both sides connected",
        bad,
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
    bad = []
    spots = 0
    for arity in range(_SWEEP_CLIQUE_LIMIT + 1, 10_000 + 1):
        params = HammingParams(arity, 1)
        half = arity // 2
        for m in sorted({1, 2, half // 2, half - 1, half}):
            if m < 1:
                continue
            spots += 1
            if max_degree_sum(m, params) != m * (m - 1) or min_edge_boundary(
                m, params
            ) != m * (arity - m):
                bad.append(f"K_{arity} m={m}")
    if bad:
        return CheckResult(
            "clique-sweep-tail",
            "fail",
            "degree sum m(m-1), boundary m(L-m)",
            bad[:5],
        )
    return CheckResult(
        "clique-sweep-tail",
        "note",
        "degree sum m(m-1), boundary m(L-m)",
        f"{spots} spot checks pass; remaining sizes follow from the "
        "single-digit reduction (see docstring)",
    )


def witness_sweep_checks() -> list[CheckResult]:
    """Prefix sets of every materializable K_L^n realize the closed forms."""
    rows = []
    for arity in range(2, _SWEEP_CLIQUE_LIMIT + 1):
        rows.append(_witness_sweep_row(HammingParams(arity, 1)))
    dim = 2
    while 2**dim <= _SWEEP_VERTEX_LIMIT:
        arity = 2
        while arity**dim <= _SWEEP_VERTEX_LIMIT:
            rows.append(_witness_sweep_row(HammingParams(arity, dim)))
            arity += 1
        dim += 1
    rows.append(_clique_tail_row())
    return rows


# --- boundary function monotonicity ---------------------------------------------

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
    rows = []

    # split identity for degree sums
    bad = []
    count = 0
    for params in _grid(6, 6):
        arity = params.arity
        for total in range(2, arity ** (params.dim // 2) + 1):
            terms = decompose(total, arity).terms
            for j in range(1, len(terms)):
                h1 = sum(a * arity**b for a, b in terms[:j])
                h2 = total - h1
                count += 1
                if degree_sum_split(h1, h2, params) != max_degree_sum(total, params):
                    bad.append(f"{params} {h1}+{h2}")
    rows.append(
        _listed_row(
            "degree-sum-split",
            "split sum equals direct degree sum",
            bad,
            f"{count} splits",
        )
    )

    # unit steps below the square-root threshold
    bad = []
    count = 0
    for params in _grid():
        top = params.arity ** (params.dim // 2)
        prev = min_edge_boundary(1, params)
        for m in range(2, top + 1):
            cur = min_edge_boundary(m, params)
            count += 1
            if cur < prev:
                bad.append(f"{params} m={m}")
            prev = cur
    rows.append(
        _listed_row(
            "unit-step-monotone",
            "boundary never decreases on the first interval",
            bad,
            f"{count} steps",
        )
    )

    # whole-block steps: g*arity^t -> (g+1)*arity^t
    bad = []
    count = 0
    for params in _grid():
        arity = params.arity
        for t in range(params.dim - 1):
            block = arity**t
            prev = 0  # boundary of the empty set
            for g in range(1, arity):
                cur = min_edge_boundary(g * block, params)
                count += 1
                if cur < prev:
                    bad.append(f"{params} g={g} t={t}")
                prev = cur
    rows.append(
        _listed_row(
            "block-step-monotone",
            "boundary never decreases block to block",
            bad,
            f"{count} steps",
        )
    )

    # power steps arity^t -> arity^(t+1)
    bad = []
    count = 0
    for params in _grid():
        arity = params.arity
        for t in range(params.dim - 1):
            count += 1
            if min_edge_boundary(arity ** (t + 1), params) < min_edge_boundary(
                arity**t, params
            ):
                bad.append(f"{params} t={t}")
    rows.append(
        _listed_row(
            "power-step-monotone",
            "boundary never decreases power to power",
            bad,
            f"{count} steps",
        )
    )

    # floor property: nothing at or above a block undercuts the block value
    bad = []
    count = 0
    for params in _grid():
        arity = params.arity
        for t in range(params.dim):
            for g in range(1, arity):
                thr = g * arity**t
                if thr > params.half_size:
                    continue
                count += 1
                if _min_boundary_from(thr, params) < min_edge_boundary(thr, params):
                    bad.append(f"{params} threshold={thr}")
    rows.append(
        _listed_row(
            "threshold-floor",
            "no size at or above a block beats the block boundary",
            bad,
            f"{count} thresholds",
        )
    )

    # block formula agrees with the general boundary
    bad = []
    count = 0
    for params in _grid():
        arity = params.arity
        half = params.half_size
        for t in range(params.dim):
            for g in range(1, arity):
                if g * arity**t > half:
                    continue
                count += 1
                if sublayer_block_boundary(g, t, params) != min_edge_boundary(
                    g * arity**t, params
                ):
                    bad.append(f"{params} g={g} t={t}")
    rows.append(
        _listed_row(
            "block-formula-consistency",
            "block expression equals general boundary",
            bad,
            f"{count} blocks",
        )
    )
    return rows


# --- base-2 / base-3 reductions -------------------------------------------------

def reduction_checks() -> list[CheckResult]:
    rows = []
    bad = []
    for dim in (13, 24):
        params = HammingParams(2, dim)
        for m in range(1, 2**12 + 1):
            if min_boundary_binary(m, dim) != min_edge_boundary(m, params):
                bad.append(f"n={dim} m={m}")
    rows.append(
        _row(
            "binary-reduction",
            "agreement for m <= 4096 at n=13 and n=24",
            bad[:5] or "agreement for m <= 4096 at n=13 and n=24",
        )
    )
    bad = []
    for dim in (9, 16):
        params = HammingParams(3, dim)
        for m in range(1, 3**8 + 1):
            if min_boundary_ternary(m, dim) != min_edge_boundary(m, params):
                bad.append(f"n={dim} m={m}")
    rows.append(
        _row(
            "ternary-reduction",
            "agreement for m <= 6561 at n=9 and n=16",
            bad[:5] or "agreement for m <= 6561 at n=9 and n=16",
        )
    )
    return rows


# --- oracle agreement -----------------------------------------------------------

ORACLE_GRID_FAST = ((2, 2), (2, 3), (3, 2), (4, 2))
ORACLE_GRID_FULL = ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2), (3, 3))
_ORACLE_M_CAP = 12  # profiles stop at this size (or floor(N/2) if smaller)


def _profile_row(graph, params, profile, mode) -> CheckResult:
    bad = []
    for m, entry in enumerate(profile, start=1):
        if entry is None:
            bad.append(f"m={m}: no qualifying set")
            continue
        cut, witness = entry
        want = min_edge_boundary(m, params)
        if cut != want:
            bad.append(f"m={m}: {cut}!={want}")
            continue
        report = evaluate_cut(graph, witness)
        if report.cut_size != cut:
            bad.append(f"m={m}: witness recount {report.cut_size}")
        elif mode in ("connected", "bilateral") and not report.side_connected:
            bad.append(f"m={m}: witness side disconnected")
        elif mode == "bilateral" and not report.complement_connected:
            bad.append(f"m={m}: witness complement disconnected")
    return _listed_row(
        f"scan-minimum[{mode}] {params}",
        "enumerated minima equal closed form, witnesses check out",
        bad,
        f"sizes 1..{len(profile)}",
    )


def oracle_agreement_checks(
    budget: OracleBudget = DEFAULT_BUDGET,
    grid=ORACLE_GRID_FAST,
) -> list[CheckResult]:
    """Unconstrained, connected and both-sides-connected minima all equal
    the closed form on small graphs, with verified witnesses."""
    rows = []
    for arity, dim in grid:
        params = HammingParams(arity, dim)
        graph = hamming_graph(params)
        max_m = min(_ORACLE_M_CAP, params.half_size)
        profiles = {}
        for mode in ("any", "connected", "bilateral"):
            profiles[mode] = brute_boundary_profile(graph, max_m, mode, budget)
            rows.append(_profile_row(graph, params, profiles[mode], mode))
        if max_m < params.half_size:
            continue
        # the least cut with a side of at least h vertices: suffix minima
        for kind, mode in (("extra", "bilateral"), ("isoperimetric", "any")):
            cuts = [math.inf if e is None else e[0] for e in profiles[mode]]
            want = list(accumulate(reversed(cuts), min))[::-1]
            conds = (ConditionKind(kind, h) for h in range(1, max_m + 1))
            got = [conditional_connectivity(c, params) for c in conds]
            rows.append(_row(f"suffix-minimum[{kind}] {params}", want, got))
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
    levels = list(range(1, dim + 1))
    bad = [] if n_vertices == 1 << dim else [f"{n_vertices} vertices, not a power of 2"]
    arcs = set()
    for v, row in enumerate(graph.adjacency):
        arcs.update(zip(repeat(v), row))
        if sorted((u ^ v).bit_length() for u in row) != levels:
            bad.append(f"v={v}: neighbours {list(row)}")
    bad += [f"{v}->{u} has no {u}->{v}" for v, u in sorted(arcs) if (u, v) not in arcs]
    return _listed_row(
        f"bc-structure {graph.label}",
        "symmetric rows, one neighbour per level",
        bad,
        f"levels 1..{dim} at {n_vertices} vertices",
    )


def bc_transfer_checks(
    budget: OracleBudget = DEFAULT_BUDGET, fast: bool = False
) -> list[CheckResult]:
    """Every matching variant, and each policy at dims 10 and 12, is a BC
    network; the both-sides-connected minima of every variant coincide with
    the binary Hamming values, and the 4-extra connectivity of the dim-4
    networks equals 4*4-8."""
    rows = []
    for dim in _BC_DIMS:
        params = HammingParams(2, dim)
        half = 2 ** (dim - 1)
        for graph in _bc_variants(dim):
            rows.append(_bc_structure_row(graph))
            if fast and dim == 4 and "identity" not in graph.label:
                continue
            profile = brute_boundary_profile(graph, half, "bilateral", budget)
            bad = []
            for m in range(1, half + 1):
                entry = profile[m - 1]
                want = min_edge_boundary(m, params)
                if entry is None or entry[0] != want:
                    got = None if entry is None else entry[0]
                    bad.append(f"m={m}: {got}!={want}")
            rows.append(
                _listed_row(
                    f"bc-transfer {graph.label}",
                    "matches binary Hamming boundary",
                    bad,
                    f"sizes 1..{half}",
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
    half = params.vertex_count // 2
    for h in range(1, half + 1):
        yield ConditionKind.extra(h)
    for h in range(1, half + 1):
        yield ConditionKind.isoperimetric(h)
    for t in range(params.dim):
        yield ConditionKind.embedded(t)
        yield ConditionKind.super_degree((params.arity - 1) * t)
        yield ConditionKind.average_degree((params.arity - 1) * t)
    try:
        ConditionKind.cyclic().sublayer_split(params)
        yield ConditionKind.cyclic()
    except DomainError:
        pass


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
