"""Subset-enumeration oracle: cross-checks against a direct reference scan.

The reference enumerator below is deliberately naive (itertools over all
combinations, set-based cut counting) so the two implementations share
nothing but the graph. Witnesses must match too: both sides resolve ties
by the lexicographically least sorted vertex tuple.
"""

import ast
import contextlib
import itertools
import multiprocessing
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

from isocut import oracle
from isocut.checks import BC_SEEDS
from isocut.closedform import (
    ConditionKind,
    conditional_connectivity,
    min_edge_boundary,
)
from isocut.errors import (
    BudgetError,
    DomainError,
    InfeasibleError,
    SubsetBudgetError,
    UnsupportedError,
)
from isocut.graphs import HammingParams, bc_network, hamming_graph
from isocut.oracle import (
    OracleBudget,
    bipartite_property_check,
    brute_boundary_profile,
    brute_conditional,
    brute_extra_connectivity,
    brute_min_boundary,
    brute_min_boundary_bilateral,
    brute_min_boundary_connected,
)

from helpers import (
    counted_visitor,
    graph_from_edges,
    pocket_graph,
    relabelled,
    set_components,
    ungated_walker,
)


def reference_profile(graph, max_m, mode):
    """First-minimum-in-lex-order scan over raw combinations."""
    n = graph.vertex_count
    out = []
    for m in range(1, max_m + 1):
        best = None
        for combo in itertools.combinations(range(n), m):
            inside = set(combo)
            if mode in ("connected", "bilateral"):
                if len(set_components(graph, combo)) != 1:
                    continue
            if mode == "bilateral":
                rest = [v for v in range(n) if v not in inside]
                if len(set_components(graph, rest)) != 1:
                    continue
            cut = sum(
                1 for v in combo for w in graph.adjacency[v] if w not in inside
            )
            if best is None or cut < best[0]:
                best = (cut, combo)
        out.append(best)
    return out


CROSS_CHECK_GRAPHS = [
    ("q3", lambda: hamming_graph(HammingParams(2, 3)), 4),
    ("k32", lambda: hamming_graph(HammingParams(3, 2)), 4),
    ("bc3-seed7", lambda: bc_network(3, "seeded_random", seed=7), 4),
    ("pocket", pocket_graph, 6),
]


def imported_names(path):
    """(module, name) for each name a source file imports, the package
    dropped from the module: `from .closedform import X` and `from
    isocut.closedform import X` both give ("closedform", "X"), and a whole
    module, as in `from . import checks`, gives ("checks", "*")."""
    out = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            out |= {(module.removeprefix("isocut."), "*") for module in modules}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                module = module.removeprefix("isocut").lstrip(".")
            if module:
                out |= {(module, alias.name) for alias in node.names}
            else:
                out |= {(alias.name, "*") for alias in node.names}
    return out


class TestIndependence:
    def test_oracle_shares_no_formula_code(self):
        # the oracle certifies the closed forms, so it may take only the
        # condition type from them, and nothing from the suites that compare
        imports = imported_names(oracle.__file__)
        assert {name for module, name in imports if module == "closedform"} == {"ConditionKind"}
        assert not {name for module, name in imports if module == "checks"}


class TestAgainstReference:
    @pytest.mark.parametrize("mode", ["any", "connected", "bilateral"])
    @pytest.mark.parametrize(
        "name,make,max_m", CROSS_CHECK_GRAPHS, ids=[g[0] for g in CROSS_CHECK_GRAPHS]
    )
    def test_profiles_and_witnesses(self, name, make, max_m, mode):
        graph = make()
        got = brute_boundary_profile(graph, max_m, mode=mode)
        assert got == reference_profile(graph, max_m, mode)

    def test_random_graphs(self):
        import random

        for seed in (1, 2, 3):
            rng = random.Random(seed)
            n = 9
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            ]
            graph = graph_from_edges(n, edges, f"gnp-{seed}")
            for mode in ("any", "connected", "bilateral"):
                got = brute_boundary_profile(graph, 4, mode=mode)
                assert got == reference_profile(graph, 4, mode), (seed, mode)

    @pytest.mark.parametrize(
        "make",
        [
            partial(hamming_graph, HammingParams(2, 3)),
            partial(bc_network, 4, "seeded_random", seed=7),
        ],
        ids=["q3-certified", "bc4-seed7-not-certified"],
    )
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_single_vertex_sets(self, make, chunks):
        graph = make()
        budget = OracleBudget(parallel_chunks=chunks)
        for mode in ("any", "connected", "bilateral"):
            got = brute_boundary_profile(graph, 1, mode=mode, budget=budget)
            assert got == reference_profile(graph, 1, mode), mode
        for mode, brute in (
            ("connected", brute_min_boundary_connected),
            ("bilateral", brute_min_boundary_bilateral),
        ):
            (want,) = reference_profile(graph, 1, mode)
            r = brute(graph, 1, budget=budget)
            assert (r.optimum, r.witness, r.atom_size) == (*want, 1), mode

    def test_pocket_mode_separation(self):
        graph = pocket_graph()
        any6 = brute_boundary_profile(graph, 6, mode="any")[5]
        conn6 = brute_boundary_profile(graph, 6, mode="connected")[5]
        bi6 = brute_boundary_profile(graph, 6, mode="bilateral")[5]
        assert any6[0] == 2 and any6[1] == (6, 7, 8, 9, 10, 11)
        assert conn6[0] == 3 and conn6[1] == (0, 1, 2, 3, 4, 5)
        assert any6[0] < conn6[0] < bi6[0]


class TestFrozenProfiles:
    def test_q3_all_modes_match_formula(self):
        p = HammingParams(2, 3)
        graph = hamming_graph(p)
        expect = [3, 4, 5, 4]
        for mode in ("any", "connected", "bilateral"):
            prof = brute_boundary_profile(graph, 4, mode=mode)
            assert [e[0] for e in prof] == expect
        assert [min_edge_boundary(m, p) for m in range(1, 5)] == expect

    def test_q3_witnesses_are_prefixes(self):
        graph = hamming_graph(HammingParams(2, 3))
        prof = brute_boundary_profile(graph, 4, mode="bilateral")
        assert [e[1] for e in prof] == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]

    def test_q4_bilateral_matches_formula(self):
        p = HammingParams(2, 4)
        graph = hamming_graph(p)
        prof = brute_boundary_profile(graph, 8, mode="bilateral")
        assert [e[0] for e in prof] == [4, 6, 8, 8, 10, 10, 10, 8]
        assert [e[0] for e in prof] == [
            min_edge_boundary(m, p) for m in range(1, 9)
        ]


class TestWrapperFunctions:
    def test_min_boundary_report(self):
        graph = hamming_graph(HammingParams(2, 3))
        r = brute_min_boundary(graph, 3)
        assert r.optimum == 5
        assert r.witness == (0, 1, 2)
        assert r.atom_size == 3
        assert r.report.cut_size == 5
        assert r.report.internal_edges == 2
        assert r.subsets_visited > 0

    def test_connected_and_bilateral_wrappers(self):
        graph = pocket_graph()
        assert brute_min_boundary(graph, 6).optimum == 2
        assert brute_min_boundary_connected(graph, 6).optimum == 3
        assert brute_min_boundary_bilateral(graph, 6).optimum > 3

    def test_m_domain(self):
        graph = hamming_graph(HammingParams(2, 3))
        with pytest.raises(DomainError):
            brute_min_boundary(graph, 0)
        with pytest.raises(DomainError):
            brute_min_boundary(graph, 5)  # above half

    @pytest.mark.parametrize(
        "call",
        [
            partial(brute_min_boundary, m=2.0),
            partial(brute_boundary_profile, max_m=2.0),
            partial(brute_boundary_profile, max_m="3"),
            partial(brute_extra_connectivity, h=2.0),
            partial(brute_min_boundary_connected, m=True),
        ],
        ids=["min-boundary-float", "profile-float", "profile-str", "extra-float",
             "connected-bool"],
    )
    def test_sizes_must_be_integers(self, call):
        with pytest.raises(DomainError):
            call(hamming_graph(HammingParams(2, 3)))

    @pytest.mark.parametrize(
        "field,value",
        [("max_subsets", 100.5), ("parallel_chunks", True), ("parallel_chunks", 1.5),
         ("max_subsets", "32")],
    )
    def test_budget_fields_must_be_integers(self, field, value):
        with pytest.raises(DomainError):
            OracleBudget(**{field: value})

    def test_infeasible_sizes(self):
        edgeless = graph_from_edges(4, [], "edgeless")
        with pytest.raises(InfeasibleError):
            brute_min_boundary_connected(edgeless, 2)
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], "star")
        assert brute_min_boundary_connected(star, 2).witness == (0, 1)
        with pytest.raises(InfeasibleError):
            brute_min_boundary_bilateral(star, 2)  # the other two leaves fall apart


class TestLexOrder:
    def test_matches_sorted_tuple_order(self):
        sets = [
            combo for k in range(1, 9) for combo in itertools.combinations(range(8), k)
        ]
        masks = [sum(1 << v for v in combo) for combo in sets]
        for a, ta in zip(masks, sets):
            for b, tb in zip(masks, sets):
                if a != b:
                    assert oracle._lex_less(a, b) == (ta < tb), (ta, tb)


def _conditional_cell(arity, dim, cond):
    def run(budget):
        p = HammingParams(arity, dim)
        r = brute_conditional(hamming_graph(p), cond, params=p, budget=budget)
        return r.optimum, r.witness, r.atom_size, r.report, r.subsets_visited

    return run


def partition_minima(graph, cond, params, cut_budget, budget=oracle.DEFAULT_BUDGET):
    """The (min_cut, part_counts) of the oracle's partition scan."""
    pred = oracle._side_predicate(cond, params, graph)
    return oracle._partition_minima(
        graph, pred, cut_budget, cond.kind == "isoperimetric", budget
    )


def _two_part_cell(arity, dim, cond):
    def run(budget):
        p = HammingParams(arity, dim)
        graph = hamming_graph(p)
        holds = bipartite_property_check(graph, cond, params=p, budget=budget)
        optimum = brute_conditional(graph, cond, params=p).optimum
        return holds, partition_minima(graph, cond, p, optimum, budget)

    return run


def _two_part_bc4_cell(cond):
    """The two-part check on the uncertified BC network, with its partition
    scan's (outcome, states): the scan's many refined tasks are where the
    closed-edge prune and _split meet."""

    def run(budget):
        with recorded_partition_scans() as scans:
            holds = bipartite_property_check(
                bc_network(4, "seeded_random", seed=7), cond, budget=budget
            )
        return holds, scans

    return run


DETERMINISM_CELLS = [
    (
        "bilateral-q4",
        lambda b: brute_boundary_profile(
            hamming_graph(HammingParams(2, 4)), 8, mode="bilateral", budget=b
        ),
        4,
    ),
    (
        "any-k32",
        lambda b: brute_boundary_profile(
            hamming_graph(HammingParams(3, 2)), 4, mode="any", budget=b
        ),
        3,
    ),
    ("cyclic-q4", _conditional_cell(2, 4, ConditionKind.cyclic()), 2),
    ("super-k32", _conditional_cell(3, 2, ConditionKind.super_degree(2)), 2),
    ("embedded1-q3", _conditional_cell(2, 3, ConditionKind.embedded(1)), 2),
    ("two-part-cyclic-q4", _two_part_cell(2, 4, ConditionKind.cyclic()), 2),
    ("two-part-isoperimetric3-k42", _two_part_cell(4, 2, ConditionKind.isoperimetric(3)), 2),
    ("two-part-extra2-bc4", _two_part_bc4_cell(ConditionKind.extra(2)), 2),
    # the pruned scan of K_5^2 runs the pairs (0, 1) and (0, 6) as two tasks
    (
        "any-k52",
        lambda b: brute_boundary_profile(
            hamming_graph(HammingParams(5, 2)), 8, mode="any", budget=b
        ),
        2,
    ),
]


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def start_method(request):
    saved = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(saved, force=True)


class TestDeterminism:
    @pytest.mark.parametrize(
        "run,chunks",
        [cell[1:] for cell in DETERMINISM_CELLS],
        ids=[cell[0] for cell in DETERMINISM_CELLS],
    )
    def test_serial_equals_parallel(self, start_method, run, chunks):
        serial = run(OracleBudget(parallel_chunks=1))
        parallel = run(OracleBudget(parallel_chunks=chunks))
        assert serial == parallel


def connected_half(graph, max_subsets, chunks=1):
    return brute_min_boundary_connected(
        graph,
        graph.vertex_count // 2,
        budget=OracleBudget(max_subsets=max_subsets, parallel_chunks=chunks),
    )


def connected_q4(max_subsets, chunks=1):
    return connected_half(hamming_graph(HammingParams(2, 4)), max_subsets, chunks)


def connected_bc4(max_subsets, chunks=1):
    # the certificate rejects this graph, so its 15910 connected sets of size
    # <= 8 spread over 33 (root, first extension) tasks of at most 3365 states
    return connected_half(bc_network(4, "seeded_random", seed=7), max_subsets, chunks)


def assert_cap_is_exact(graph, exact, chunks):
    assert connected_half(graph, OracleBudget().max_subsets).subsets_visited == exact
    assert connected_half(graph, exact, chunks).subsets_visited == exact
    with pytest.raises(SubsetBudgetError):
        connected_half(graph, exact - 1, chunks)


class TestBudgets:
    def test_vertex_cap(self):
        graph = hamming_graph(HammingParams(2, 6))
        with pytest.raises(BudgetError):
            brute_min_boundary(graph, 2)

    def test_subset_precheck(self):
        graph = hamming_graph(HammingParams(2, 3))
        with pytest.raises(SubsetBudgetError):
            brute_min_boundary(graph, 4, budget=OracleBudget(max_subsets=5))

    def test_connected_scan_cap(self):
        graph = hamming_graph(HammingParams(2, 4))
        with pytest.raises(SubsetBudgetError):
            brute_min_boundary_connected(graph, 8, budget=OracleBudget(max_subsets=40))

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_cap_is_global(self, chunks):
        # 15910 states in all, though every task fits under the cap
        with pytest.raises(SubsetBudgetError):
            connected_bc4(5000, chunks)

    def test_share_cap_is_cumulative(self):
        # each of the 48 tasks fits under 5000 states, the share of all of
        # them (15910) does not, so the share stops at the task that passes
        graph = bc_network(4, "seeded_random", seed=7)
        state = oracle._engine_state(
            graph, 8, free=False, visitor=oracle._profile_visitor, bilateral=False
        )
        items = oracle._tasks(graph, state)
        assert len(items) == 48
        assert max(oracle._grow_task(state, [item], 5000)[1] for item in items) < 5000
        assert oracle._grow_task(state, items, 15910)[1] == 15910
        with pytest.raises(SubsetBudgetError):
            oracle._grow_task(state, items, 5000)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_cap_at_exact_state_count(self, chunks):
        # {0} and the connected sets of size <= 8 that hold {0, 1}: the one
        # task (0, 0), since the stabiliser of 0 moves 1 onto all of N(0)
        assert_cap_is_exact(hamming_graph(HammingParams(2, 4)), 3247, chunks)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_cut_visitor_cap_is_exact(self, chunks):
        # the cyclic search on K_2^4 walks the same 3247 states, most of
        # them kept from its visitor by the best cut
        graph = hamming_graph(HammingParams(2, 4))
        cond = ConditionKind.cyclic()
        budget = OracleBudget(max_subsets=3247, parallel_chunks=chunks)
        assert brute_conditional(graph, cond, budget=budget).subsets_visited == 3247
        with pytest.raises(SubsetBudgetError):
            brute_conditional(
                graph, cond, budget=OracleBudget(max_subsets=3246, parallel_chunks=chunks)
            )

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_cap_at_exact_state_count_not_transitive(self, chunks):
        # every connected set of size <= 8: the certificate rejects this graph
        assert_cap_is_exact(bc_network(4, "seeded_random", seed=7), 15910, chunks)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_over_budget_scan_stops_before_it_scans(self, chunks):
        # K_2^5 up to size 16 is about 2**29 sets: the caller's share takes
        # its first large task's sets from its tally, and fails, before its
        # scan recurses once
        graph = hamming_graph(HammingParams(2, 5))
        budget = OracleBudget(max_subsets=10**6, parallel_chunks=chunks)

        def tripwire(frame, event, arg):
            code = frame.f_code
            if code.co_name == "rec" and code.co_filename == oracle.__file__:
                raise AssertionError("the over-budget scan started")

        previous = sys.gettrace()
        sys.settrace(tripwire)
        try:
            with pytest.raises(SubsetBudgetError):
                brute_min_boundary(graph, 16, budget)
        finally:
            sys.settrace(previous)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_pruned_scan_cap_is_exact(self, chunks):
        # {0} and the sets of size 2..8 whose two least vertices are (0, 1)
        # or (0, 6), the orbit minima of the stabiliser of 0 in K_5^2:
        # 1 + 145499 + 31180, against 536155 sets that contain 0
        graph = hamming_graph(HammingParams(5, 2))
        budget = OracleBudget(max_subsets=176680, parallel_chunks=chunks)
        assert brute_min_boundary(graph, 8, budget=budget).subsets_visited == 176680
        with pytest.raises(SubsetBudgetError):
            brute_min_boundary(
                graph, 8, budget=OracleBudget(max_subsets=176679, parallel_chunks=chunks)
            )


class TestPartitionBudget:
    # on K_2^4 the cyclic bipartition search walks {0} and the 3246 connected
    # sets up to size 8 that hold {0, 1}; the scan of partitions into
    # connected cyclic parts, its first part pruned the same way and every
    # part's subtrees by the closed-edge bound, then takes 4076 states,
    # counted against a budget of its own
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_partition_scan_is_capped(self, chunks):
        graph = hamming_graph(HammingParams(2, 4))
        cond = ConditionKind.cyclic()
        budget = OracleBudget(max_subsets=3247, parallel_chunks=chunks)
        assert brute_conditional(graph, cond, budget=budget).subsets_visited == 3247
        with pytest.raises(SubsetBudgetError):
            bipartite_property_check(graph, cond, budget=budget)

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_cap_at_exact_state_count(self, chunks):
        graph = hamming_graph(HammingParams(2, 4))
        cond = ConditionKind.cyclic()
        assert bipartite_property_check(
            graph, cond, budget=OracleBudget(max_subsets=4076, parallel_chunks=chunks)
        )
        with pytest.raises(SubsetBudgetError):
            bipartite_property_check(
                graph, cond, budget=OracleBudget(max_subsets=4075, parallel_chunks=chunks)
            )


def q4_connected_result(max_subsets, chunks):
    r = connected_q4(max_subsets, chunks)
    return r.optimum, r.witness, r.atom_size, r.report, r.subsets_visited


def bc4_connected_result(max_subsets, chunks):
    r = connected_bc4(max_subsets, chunks)
    return r.optimum, r.witness, r.atom_size, r.report, r.subsets_visited


class TestPoolLifecycle:
    def test_reused_across_calls(self, start_method):
        # the caller counts as one of the parallel_chunks processes
        chunks = 2
        connected_q4(10**6, chunks)
        first = {p.pid for p in multiprocessing.active_children()}
        connected_q4(10**6, chunks)
        second = {p.pid for p in multiprocessing.active_children()}
        assert len(first) == chunks - 1 and first == second

    def test_fresh_after_budget_error(self, start_method):
        # the total passes the cap before all 33 tasks have reported, so
        # the workers may still be running some of them
        with pytest.raises(SubsetBudgetError):
            connected_bc4(5000, 2)
        assert bc4_connected_result(10**6, 2) == bc4_connected_result(10**6, 1)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_budget_errors_never_hang(self):
        # multiprocessing.Pool.terminate hangs now and then when a worker it
        # kills is sending a result; under fork a few hundred calls show it
        code = (
            "import multiprocessing\n"
            "multiprocessing.set_start_method('fork')\n"
            "from isocut import OracleBudget, SubsetBudgetError, bc_network\n"
            "from isocut.oracle import brute_min_boundary_connected\n"
            "graph = bc_network(4, 'seeded_random', seed=7)\n"
            "budget = OracleBudget(max_subsets=5000, parallel_chunks=2)\n"
            "for _ in range(300):\n"
            "    try:\n"
            "        brute_min_boundary_connected(graph, 8, budget)\n"
            "    except SubsetBudgetError:\n"
            "        pass\n"
            "    else:\n"
            "        raise SystemExit('no budget error')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_threads_share_the_workers(self):
        serial = q4_connected_result(10**6, 1)
        results = []

        def run():
            for _ in range(5):
                results.append(q4_connected_result(10**6, 2))

        threads = [threading.Thread(target=run, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == [serial] * 20

    def test_threads_mix_serial_and_parallel_calls(self):
        # the caller runs a share of each parallel call itself, so a call
        # must read its state from its own arguments, never from a global
        # that a concurrent call may have replaced
        cells = [
            (hamming_graph(HammingParams(2, 4)), 8),
            (hamming_graph(HammingParams(4, 2)), 8),
            (hamming_graph(HammingParams(3, 2)), 4),
            (bc_network(4, "seeded_random", seed=7), 8),
        ]
        serial = [brute_boundary_profile(graph, m, "bilateral") for graph, m in cells]
        got, errors = [], []

        def run(k):
            # each thread starts at another cell, so concurrent calls differ
            try:
                for step in range(k, k + 10 * len(cells)):
                    index = step % len(cells)
                    graph, m = cells[index]
                    budget = OracleBudget(parallel_chunks=1 + step // len(cells) % 2)
                    got.append((index, brute_boundary_profile(graph, m, "bilateral", budget)))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(got) == 8 * 10 * len(cells)
        assert all(profile == serial[index] for index, profile in got)

    def test_exit_does_not_hang(self, start_method):
        code = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "from isocut import HammingParams, OracleBudget, hamming_graph\n"
            "from isocut.oracle import brute_min_boundary_connected\n"
            "graph = hamming_graph(HammingParams(2, 4))\n"
            "budget = OracleBudget(parallel_chunks=2)\n"
            "print(brute_min_boundary_connected(graph, 8, budget).optimum)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, start_method],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "8"


class TestConditionalOracle:
    def test_extra_small(self):
        graph = hamming_graph(HammingParams(2, 3))
        r = brute_conditional(graph, ConditionKind.extra(1))
        assert (r.optimum, r.witness) == (3, (0,))
        r = brute_conditional(graph, ConditionKind.extra(2))
        assert (r.optimum, r.witness, r.atom_size) == (4, (0, 1), 2)

    def test_extra_matches_scan(self):
        p = HammingParams(2, 4)
        graph = hamming_graph(p)
        # h=5 is past L^floor(n/2) and not a single block: the digit DP answers
        for h in (1, 2, 3, 5):
            got = brute_extra_connectivity(graph, h, budget=OracleBudget()).optimum
            assert got == conditional_connectivity(ConditionKind.extra(h), p)

    def test_cyclic_q4(self):
        graph = hamming_graph(HammingParams(2, 4))
        r = brute_conditional(graph, ConditionKind.cyclic())
        assert r.optimum == 8
        assert r.witness == (0, 1, 2, 3)  # least 2-dimensional subcube

    def test_super_and_average_k32(self):
        graph = hamming_graph(HammingParams(3, 2))
        p = HammingParams(3, 2)
        for cond in (ConditionKind.super_degree(2), ConditionKind.average_degree(2)):
            r = brute_conditional(graph, cond, params=p)
            assert r.optimum == 6
            assert r.witness == (0, 1, 2)  # one full row

    def test_embedded_needs_params(self):
        graph = hamming_graph(HammingParams(2, 3))
        p = HammingParams(2, 3)
        r = brute_conditional(graph, ConditionKind.embedded(1), params=p)
        # a single axis edge already carries a 1-dimensional sub-layer
        assert (r.optimum, r.witness) == (4, (0, 1))
        with pytest.raises(UnsupportedError):
            brute_conditional(graph, ConditionKind.embedded(1))

    def test_embedded_rejects_foreign_graph(self):
        graph = bc_network(3, "seeded_random", seed=7)
        with pytest.raises(UnsupportedError):
            brute_conditional(
                graph, ConditionKind.embedded(1), params=HammingParams(2, 3)
            )

    def test_isoperimetric_q4(self):
        graph = hamming_graph(HammingParams(2, 4))
        r = brute_conditional(graph, ConditionKind.isoperimetric(5))
        assert r.optimum == 8
        assert r.atom_size == 8
        assert r.witness == tuple(range(8))

    def test_infeasible(self):
        q3 = hamming_graph(HammingParams(2, 3))
        with pytest.raises(InfeasibleError):
            brute_conditional(q3, ConditionKind.extra(5))
        q2 = hamming_graph(HammingParams(2, 2))
        with pytest.raises(InfeasibleError):
            brute_conditional(q2, ConditionKind.cyclic())

    @pytest.mark.parametrize("kind", ["extra", "isoperimetric"])
    def test_impossible_size_rejected_before_enumeration(self, kind):
        # a one-subset budget would stop any enumeration at its first set
        k33 = hamming_graph(HammingParams(3, 3))
        want = f"{kind}\\(14\\) needs both sides >= 14, impossible on 27 vertices"
        with pytest.raises(InfeasibleError, match=want):
            brute_conditional(
                k33, ConditionKind(kind, 14), budget=OracleBudget(max_subsets=1)
            )

    def test_extra_connectivity_is_the_extra_condition(self):
        q3 = hamming_graph(HammingParams(2, 3))
        a = brute_extra_connectivity(q3, 2)
        b = brute_conditional(q3, ConditionKind.extra(2))
        assert (a.optimum, a.witness, a.atom_size) == (b.optimum, b.witness, b.atom_size)
        with pytest.raises(InfeasibleError, match="extra\\(5\\) needs both sides >= 5"):
            brute_extra_connectivity(q3, 5)

    def test_extra_domain(self):
        q3 = hamming_graph(HammingParams(2, 3))
        with pytest.raises(DomainError):
            brute_extra_connectivity(q3, 0)


def _edge_masks(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


class TestCyclePredicate:
    @pytest.mark.parametrize(
        "n,edges,cyclic",
        [
            (4, [(0, 1), (1, 2), (2, 3)], False),
            (4, [(0, 1), (1, 2), (2, 3), (3, 0)], True),
            (6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], True),
            (6, [(0, 1), (1, 2), (3, 4), (4, 5)], False),
        ],
        ids=["path", "C4", "path-and-triangle", "two-paths"],
    )
    def test_whole_vertex_set(self, n, edges, cyclic):
        masks = _edge_masks(n, edges)
        assert oracle._has_cycle(masks, (1 << n) - 1, n, len(edges)) is cyclic

    def test_side_inside_a_larger_graph(self):
        # path 0-1-2 plus triangle 3-4-5; dropping 5 leaves two paths
        masks = _edge_masks(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        assert not oracle._has_cycle(masks, 0b011111, 5, 3)
        assert oracle._has_cycle(masks, 0b111000, 3, 3)


class TestBipartiteProperty:
    def test_holds_on_small_cases(self):
        q3 = hamming_graph(HammingParams(2, 3))
        assert bipartite_property_check(q3, ConditionKind.extra(1))
        assert bipartite_property_check(q3, ConditionKind.isoperimetric(2))
        k32 = hamming_graph(HammingParams(3, 2))
        assert bipartite_property_check(k32, ConditionKind.extra(2))


# --- root-0 enumeration and orbit pruning on certified graphs -----------------

def assert_translations_reach_zero(graph, arity, dim):
    """For every vertex v, some composition of the digit steps sends v to 0
    and maps the edge set onto itself."""
    n = graph.vertex_count
    steps = oracle._digit_steps(arity, dim)
    edges = set(graph.edges())
    for v in range(n):
        image = list(range(n))
        for step in steps:
            # the power of this step that takes v's image lowest
            best = current = image
            for _ in range(arity):
                current = [step[x] for x in current]
                if current[v] < best[v]:
                    best = current
            image = best
        assert image[v] == 0, (graph.label, v)
        moved = {tuple(sorted((image[a], image[b]))) for a, b in edges}
        assert moved == edges, (graph.label, v)


def assert_moves_fix_zero(graph, arity, dim):
    """Every stabiliser move is a permutation that fixes 0 and maps the edge
    set onto itself."""
    n = graph.vertex_count
    edges = set(graph.edges())
    for move in oracle._stabiliser_moves(arity, dim):
        assert move[0] == 0 and sorted(move) == list(range(n)), graph.label
        assert {tuple(sorted((move[a], move[b]))) for a, b in edges} == edges, graph.label


def weight_minima(arity, dim):
    """The least vertex of the same Hamming weight as v, for every v of K_L^n:
    the orbits of the stabiliser of 0 are the weight classes."""
    def weight(v):
        return sum(v // arity**p % arity != 0 for p in range(dim))

    least = {}
    for v in range(arity**dim):
        least.setdefault(weight(v), v)
    return tuple(least[weight(v)] for v in range(arity**dim))


def weight3_q4():
    """The Cayley graph of Z_2^4 on the weight-3 generators {7, 11, 13, 14}:
    a hypercube whose ids pass the certificate, with every digit-position
    swap an automorphism, but with 0's least neighbour 7, not 1."""
    edges = {tuple(sorted((v, v ^ g))) for v in range(16) for g in (7, 11, 13, 14)}
    return graph_from_edges(16, edges, "q4-weight3")


def cayley_z3_squared():
    """The Cayley graph of Z_3^2 with generators +-(1, 0) and +-(1, 1), with
    (d0, d1) read as d0 + 3*d1. Its digit translations are automorphisms,
    but neither the digit swap nor the value swap (1 2) at digit 0 is."""
    gens = ((1, 0), (2, 0), (1, 1), (2, 2))
    edges = {
        tuple(sorted((d0 + 3 * d1, (d0 + g0) % 3 + 3 * ((d1 + g1) % 3))))
        for d0 in range(3) for d1 in range(3) for g0, g1 in gens
    }
    return graph_from_edges(9, edges, "cayley-z3^2")


@pytest.fixture
def certificates_cleared():
    """Clears the certificate cache when the test ends, so that no later
    test reads a certificate computed under this test's patches."""
    yield
    oracle._orbit_minima.cache_clear()


class TestCertificate:
    def test_hamming_up_to_32_vertices(self):
        for arity in range(2, 33):
            for dim in range(1, 6):
                if arity**dim > 32:
                    break
                graph = hamming_graph(HammingParams(arity, dim))
                # every move is kept: the orbits are the whole weight classes
                assert oracle._orbit_minima(graph) == weight_minima(arity, dim), graph.label
                assert_translations_reach_zero(graph, arity, dim)
                assert_moves_fix_zero(graph, arity, dim)

    def test_cayley_bc_networks(self):
        for dim in range(1, 6):
            identity = bc_network(dim, "identity")
            assert oracle._orbit_minima(identity) == weight_minima(2, dim), identity.label
            assert_moves_fix_zero(identity, 2, dim)
            for graph in (identity, bc_network(dim, "reversal")):
                assert oracle._orbit_minima(graph) is not None, graph.label
                assert_translations_reach_zero(graph, 2, dim)

    @pytest.mark.parametrize("dim", [4, 5])
    def test_seeded_random_bc_rejected(self, dim):
        for seed in BC_SEEDS:
            graph = bc_network(dim, "seeded_random", seed=seed)
            assert oracle._orbit_minima(graph) is None, graph.label

    def test_rejected(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], "star")
        k32 = hamming_graph(HammingParams(3, 2))
        for graph in (pocket_graph(), star, relabelled(k32, seed=1)):
            assert oracle._orbit_minima(graph) is None, graph.label

    def test_least_neighbour_above_one(self):
        # H moves 7 onto all of N(0), yet the least optimal connected 4-set
        # {0, 3, 13, 14} does not hold 7: growth must keep root 0's tasks
        graph = weight3_q4()
        assert oracle._orbit_minima(graph) == weight_minima(2, 4)
        assert graph.adjacency[0][0] == 7
        state = oracle._engine_state(graph, 4, free=False)
        tasks = [(mask, ext == 0) for mask, ext, *_ in oracle._tasks(graph, state)]
        assert tasks == [(1, True)] + [(1 | 1 << w, False) for w in graph.adjacency[0]]
        assert brute_min_boundary_connected(graph, 4).witness == (0, 3, 13, 14)

    def test_translations_without_stabiliser(self, monkeypatch, certificates_cleared):
        graph = cayley_z3_squared()
        assert_translations_reach_zero(graph, 3, 2)
        neighbours = [set(nbrs) for nbrs in graph.adjacency]
        moves = oracle._stabiliser_moves(3, 2)
        assert len(moves) == 2
        assert not any(oracle._automorphism(m, graph.adjacency, neighbours) for m in moves)
        assert oracle._orbit_minima(graph) == tuple(range(9))
        pruned = oracle_outcomes(graph, None, 4)
        monkeypatch.setattr(oracle, "_stabiliser_moves", lambda arity, dim: [])
        oracle._orbit_minima.cache_clear()
        assert pruned == oracle_outcomes(graph, None, 4)  # states too

    def test_computed_once_per_check(self):
        # brute_conditional and the partition scan both read the certificate
        graph = graph_from_edges(9, list(hamming_graph(HammingParams(3, 2)).edges()), "fresh")
        before = oracle._orbit_minima.cache_info()
        bipartite_property_check(graph, ConditionKind("extra", 2))
        after = oracle._orbit_minima.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1


def condition_grid(graph, params):
    """Every condition kind at every value that can matter on graph."""
    half = graph.vertex_count // 2
    degree = max(len(nbrs) for nbrs in graph.adjacency)
    out = [ConditionKind(k, h) for k in ("extra", "isoperimetric") for h in range(1, half + 1)]
    out += [ConditionKind.super_degree(k) for k in range(degree + 1)]
    out += [ConditionKind.average_degree(k) for k in range(degree + 1)]
    out.append(ConditionKind.cyclic())
    if params is not None:
        out += [ConditionKind.embedded(t) for t in range(params.dim)]
    return out


@contextlib.contextmanager
def recorded_partition_scans():
    """A list that gets the (outcome, states visited) of every partition
    scan run inside the block, bipartite_property_check's included."""
    record = []
    scan, run_tasks = oracle._partition_minima, oracle._run_tasks

    def recorded(*args):
        visits = []

        def counted(*task_args):
            results, visited = run_tasks(*task_args)
            visits.append(visited)
            return results, visited

        with mock.patch.object(oracle, "_run_tasks", counted):
            outcome = scan(*args)
        record.append((outcome, visits[0]))
        return outcome

    with mock.patch.object(oracle, "_partition_minima", recorded):
        yield record


# Bell(9) = 21147: up to 9 vertices the partition scan can also run at a cut
# budget that admits every partition; on 16 it would near Bell(16) ~ 1e10
FULL_BUDGET_SCAN_VERTICES = 9


def oracle_outcomes(graph, params, max_m):
    """(results, bipartition and profile state counts, partition-scan state
    counts) of every condition and profile mode. The partition scan runs at
    the bipartition optimum, and at the edge count on small graphs."""
    results, states = [], []
    with recorded_partition_scans() as scans:
        for cond in condition_grid(graph, params):
            if graph.vertex_count <= FULL_BUDGET_SCAN_VERTICES:
                partition_minima(graph, cond, params, graph.edge_count)
            try:
                r = brute_conditional(graph, cond, params=params)
            except InfeasibleError:
                results.append((cond.describe(), "infeasible"))
                continue
            holds = bipartite_property_check(graph, cond, params=params)
            results.append((cond.describe(), r.optimum, r.witness, r.atom_size, r.report, holds))
            states.append(r.subsets_visited)
    results += [outcome for outcome, _ in scans]
    for mode in ("any", "connected", "bilateral"):
        entries, visited = oracle._profile(graph, max_m, mode, oracle.DEFAULT_BUDGET)
        results.append((mode, entries))
        states.append(visited)
    return results, states, [visited for _, visited in scans]


def three_levels(monkeypatch, run):
    """run() with root 0 and the stabiliser of 0, with root 0 alone, and
    with the full enumeration. The certificate cache is cleared after each
    patch, so that the patched level really runs."""
    pruned = run()
    monkeypatch.setattr(oracle, "_stabiliser_moves", lambda arity, dim: [])
    oracle._orbit_minima.cache_clear()
    root_zero = run()
    monkeypatch.setattr(oracle, "_base_reading", lambda graph: None)
    oracle._orbit_minima.cache_clear()
    return pruned, root_zero, run()


REDUCTION_GRAPHS = [
    (f"k{arity}{dim}", partial(hamming_graph, HammingParams(arity, dim)),
     HammingParams(arity, dim))
    for arity, dim in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2))
] + [
    (f"bc4-{policy}", partial(bc_network, 4, policy, seed=7), None)
    for policy in ("identity", "reversal", "seeded_random")
] + [("q4-weight3", weight3_q4, None)]


class TestRootZeroReduction:
    @pytest.mark.parametrize(
        "make,params", [g[1:] for g in REDUCTION_GRAPHS], ids=[g[0] for g in REDUCTION_GRAPHS]
    )
    def test_only_the_work_changes(self, monkeypatch, certificates_cleared, make, params):
        graph = make()
        orbit = oracle._orbit_minima(graph)
        pruned, root_zero, full = three_levels(
            monkeypatch, lambda: oracle_outcomes(graph, params, graph.vertex_count // 2)
        )
        assert pruned[0] == root_zero[0] == full[0]
        root_pairs = list(zip(root_zero[1], full[1]))
        pruned_pairs = list(zip(pruned[1], root_zero[1]))
        # the partition scan always starts at vertex 0, so only H prunes it
        assert root_zero[2] == full[2]
        pruned_parts = list(zip(pruned[2], root_zero[2]))
        assert pruned_parts
        if orbit is None:
            assert all(r == f for r, f in root_pairs) and all(p == r for p, r in pruned_pairs)
            assert all(p == r for p, r in pruned_parts)
        elif {orbit[w] for w in graph.adjacency[0]} == {1}:
            # 1 is in N(0) and H moves it onto N(0): every engine visits strictly less
            assert all(r < f for r, f in root_pairs) and all(p < r for p, r in pruned_pairs)
            assert all(p < r for p, r in pruned_parts)
        else:
            assert all(r < f for r, f in root_pairs) and all(p <= r for p, r in pruned_pairs)
            assert all(p <= r for p, r in pruned_parts)

    @pytest.mark.parametrize("arity,dim,max_m", [(3, 3, 5), (5, 2, 6)])
    def test_profiles_unchanged(self, monkeypatch, certificates_cleared, arity, dim, max_m):
        graph = hamming_graph(HammingParams(arity, dim))
        modes = ("any", "connected", "bilateral")
        pruned, root_zero, full = three_levels(
            monkeypatch, lambda: [brute_boundary_profile(graph, max_m, mode) for mode in modes]
        )
        assert pruned == root_zero == full


# --- partition scan against a direct enumeration of set partitions --------------

def set_partitions(n):
    """Every partition of range(n), as a list of blocks (Bell(n) of them)."""
    blocks = []

    def place(v):
        if v == n:
            yield [tuple(block) for block in blocks]
            return
        for block in blocks:
            block.append(v)
            yield from place(v + 1)
            block.pop()
        blocks.append([v])
        yield from place(v + 1)
        blocks.pop()

    yield from place(0)


def reference_part_ok(graph, cond, params, block):
    """Whether one part qualifies, from sets and the definitions alone."""
    inside = set(block)
    if cond.kind != "isoperimetric" and len(set_components(graph, block)) != 1:
        return False
    degrees = [sum(w in inside for w in graph.adjacency[v]) for v in block]
    internal = sum(degrees) // 2
    kind, value = cond.kind, cond.value
    if kind in ("extra", "isoperimetric"):
        return len(block) >= value
    if kind == "super":
        return min(degrees) >= value
    if kind == "average":
        return 2 * internal >= value * len(block)
    if kind == "cyclic":
        return internal >= len(block)  # a connected part with a cycle
    assert kind == "embedded"
    # some axis sub-layer of dimension value: the vertices that agree with
    # one vertex of the part on every digit outside `free` lie in the part
    arity, dim = params.arity, params.dim

    def digits(v):
        return [v // arity**p % arity for p in range(dim)]

    for free in itertools.combinations(range(dim), value):
        fixed = [p for p in range(dim) if p not in free]
        for v in block:
            dv = digits(v)
            layer = [u for u in range(graph.vertex_count)
                     if all(digits(u)[p] == dv[p] for p in fixed)]
            if inside.issuperset(layer):
                return True
    return False


def reference_partition_minima(graph, cond, params, cut_budget, partitions):
    """(min_cut, part_counts) over the partitions into >= 2 qualifying parts
    with cut <= cut_budget."""
    ok = {}
    best, counts = None, set()
    for blocks, cut in partitions:
        if len(blocks) < 2 or cut > cut_budget:
            continue
        for block in blocks:
            if block not in ok:
                ok[block] = reference_part_ok(graph, cond, params, block)
        if not all(ok[block] for block in blocks):
            continue
        if best is None or cut < best:
            best, counts = cut, {len(blocks)}
        elif cut == best:
            counts.add(len(blocks))
    return best, counts


PARTITION_GRAPHS = [
    ("q3", partial(hamming_graph, HammingParams(2, 3)), HammingParams(2, 3)),
    ("k32", partial(hamming_graph, HammingParams(3, 2)), HammingParams(3, 2)),
    # q3 and k32 are certified, so their first parts are pruned under H;
    # relabelled, k32 is not, and its scan takes every task of root 0
    ("k32-relabelled", lambda: relabelled(hamming_graph(HammingParams(3, 2)), seed=1), None),
    ("bc3-seed13", partial(bc_network, 3, "seeded_random", seed=13), None),
    # three components: the least cuts (0) split in two or three parts, and
    # the scan finds them in different tasks
    ("three-components",
     lambda: graph_from_edges(7, [(1, 2), (1, 3), (1, 6), (4, 5)], "three-components"),
     None),
]


class TestPartitionScanAgainstReference:
    @pytest.mark.parametrize(
        "make,params", [g[1:] for g in PARTITION_GRAPHS], ids=[g[0] for g in PARTITION_GRAPHS]
    )
    def test_every_condition(self, make, params):
        graph = make()
        edges = list(graph.edges())
        partitions = []
        for blocks in set_partitions(graph.vertex_count):
            where = {v: k for k, block in enumerate(blocks) for v in block}
            partitions.append((blocks, sum(where[u] != where[v] for u, v in edges)))
        for cond in condition_grid(graph, params):
            budgets = [graph.edge_count]  # every qualifying partition
            try:
                budgets.append(brute_conditional(graph, cond, params=params).optimum)
            except InfeasibleError:
                pass
            for cut_budget in budgets:
                want = reference_partition_minima(graph, cond, params, cut_budget, partitions)
                got = partition_minima(graph, cond, params, cut_budget)
                assert got == want, (cond.describe(), cut_budget)


# --- tasks split node by node for a parallel call ------------------------------

SPLIT_GRAPHS = [
    ("k52", partial(hamming_graph, HammingParams(5, 2)), HammingParams(5, 2), 8),
    ("k33", partial(hamming_graph, HammingParams(3, 3)), HammingParams(3, 3), 6),
    ("k24", partial(hamming_graph, HammingParams(2, 4)), HammingParams(2, 4), 8),
    ("k42", partial(hamming_graph, HammingParams(4, 2)), HammingParams(4, 2), 8),
    ("bc4-seed7", partial(bc_network, 4, "seeded_random", seed=7), None, 8),
]

# the target of a call with two processes
SPLIT_TARGET = 16


def refined_run(run, target=None):
    """run()'s outcome and each of its engine calls' (task, state, items,
    states visited), with the items refined to at least target first when
    a target is given."""
    calls = []
    run_tasks = oracle._run_tasks

    def refined(task, state, items, budget):
        if target is not None:
            items = oracle._refine(state, items, target)
        results, visited = run_tasks(task, state, items, budget)
        calls.append((task, state, items, visited))
        return results, visited

    with mock.patch.object(oracle, "_run_tasks", refined):
        return run(), calls


def split_runs(graph, params, max_m):
    """The fixed-size scan, connected growth, and the free and connected
    partition scans. The cut visitor's scan up to N/2 and the partition
    scans, which walk first parts of every size, run only on graphs of 16
    vertices: on K_5^2 and K_3^3 they take seconds."""
    runs = {
        mode: partial(oracle._profile, graph, max_m, mode, oracle.DEFAULT_BUDGET)
        for mode in ("any", "connected", "bilateral")
    }
    if graph.vertex_count <= 16:
        runs["extra(2)"] = partial(brute_conditional, graph, ConditionKind.extra(2), params)
        for cond in (ConditionKind.isoperimetric(2), ConditionKind.extra(2)):
            optimum = brute_conditional(graph, cond, params=params).optimum
            runs[f"partition {cond.describe()}"] = partial(
                partition_minima, graph, cond, params, optimum
            )
    return runs


def without_time(outcome):
    if isinstance(outcome, oracle.FragmentResult):
        return outcome.optimum, outcome.witness, outcome.atom_size, outcome.report
    return outcome


class TestTaskSplit:
    @pytest.mark.parametrize(
        "make,params,max_m", [g[1:] for g in SPLIT_GRAPHS], ids=[g[0] for g in SPLIT_GRAPHS]
    )
    def test_refined_tasks_take_the_same_sets(self, make, params, max_m):
        graph = make()
        for name, run in split_runs(graph, params, max_m).items():
            whole, ((task, state, items, visited),) = refined_run(run)
            split, ((_, _, finer, split_visited),) = refined_run(run, SPLIT_TARGET)
            assert without_time(split) == without_time(whole), name
            assert split_visited == visited, name
            # short of the target only where a further level splits nothing
            assert len(finer) >= SPLIT_TARGET or oracle._refine(state, finer, 10**6) == finer
            if task is oracle._beta_task:
                assert sum(oracle._scan_states(state, item) for item in finer) == visited
                assert sum(oracle._scan_states(state, item) for item in items) == visited

    @pytest.mark.parametrize("mode", ["any", "connected"])
    def test_interleaved_shares_balance_k52(self, mode):
        graph = hamming_graph(HammingParams(5, 2))
        _, ((task, state, items, visited),) = refined_run(
            partial(oracle._profile, graph, 8, mode, oracle.DEFAULT_BUDGET), SPLIT_TARGET
        )
        assert len(items) >= SPLIT_TARGET
        states = [task(state, items[k::2], visited)[1] for k in range(2)]
        assert sum(states) == visited
        assert max(states) <= 0.6 * visited

    def test_only_parallel_calls_split(self):
        graph = hamming_graph(HammingParams(5, 2))
        refine, refined = oracle._refine, []

        def recorded(state, items, target):
            refined.append(refine(state, items, target))
            return refined[-1]

        items = []
        with mock.patch.object(oracle, "_refine", recorded):
            for chunks in (1, 2):
                budget = OracleBudget(parallel_chunks=chunks)
                _, ((_, _, tasks, _),) = refined_run(
                    partial(oracle._profile, graph, 8, "connected", budget)
                )
                items.append(tasks)
        # {0} alone (ext = 0) and the subtree of {0, 1}, split only when
        # there are two processes
        assert items[0] == items[1]
        assert [(mask, ext == 0) for mask, ext, *_ in items[0]] == [(1, True), (3, False)]
        assert len(refined) == 1 and len(refined[0]) >= SPLIT_TARGET

    def test_paths_past_the_size_cap_stay_whole(self):
        # with max_m = 1 each task is one root's node; none is empty and
        # none splits: {0} alone on the certified K_2^3, every root on the
        # uncertified BC network
        for graph, roots in (
            (hamming_graph(HammingParams(2, 3)), 1),
            (bc_network(3, "seeded_random", seed=7), 8),
        ):
            for free in (True, False):
                state = oracle._engine_state(graph, 1, free=free)
                items = oracle._tasks(graph, state)
                assert [(node[0], node[3]) for node in items] == [
                    (1 << root, 1) for root in range(roots)
                ]
                assert oracle._refine(state, items, SPLIT_TARGET) == items
                if free:
                    assert [oracle._scan_states(state, item) for item in items] == [1] * roots

    @pytest.mark.parametrize(
        "make,params,max_m", [g[1:] for g in SPLIT_GRAPHS], ids=[g[0] for g in SPLIT_GRAPHS]
    )
    def test_tasks_come_in_lexicographic_order(self, make, params, max_m):
        # a share of the fixed-size scan keeps the first optimum it meets
        # at each size, which is the least only if the share's sets come
        # in lexicographic order; an interleaved share keeps the order of
        # the whole list
        graph = make()
        state = oracle._engine_state(graph, max_m, free=True)
        items = oracle._tasks(graph, state)
        for target in (1, SPLIT_TARGET, 64):
            finer = oracle._refine(state, items, target)
            sets = [s for item in finer for s in scanned_sets(state, item)]
            assert sets == sorted(set(sets)), target
            assert len(sets) == sum(oracle._scan_states(state, item) for item in finer)


def scanned_sets(state, item):
    """The sets of a fixed-size scan task, as sorted vertex tuples, in the
    order the task takes them: the node's set, then depth first every set
    that extends it by vertices above its largest, none when ext = 0."""
    mask, ext, *_ = item
    n, max_m = len(state["masks"]), state["max_m"]
    out = []

    def rec(prefix):
        out.append(prefix)
        if ext and len(prefix) < max_m:
            for v in range(prefix[-1] + 1, n):
                rec(prefix + (v,))

    rec(oracle._bits_tuple(mask))
    return out


# --- the walker's bound gate against the ungated reference walker ---------------

def counted_walker(walker, calls):
    """walker, its visitor wrapped to count its calls in calls[0]."""

    def make(rows, degrees, max_m, visit, bound, tally, limit=None):
        def counted(*state):
            calls[0] += 1
            visit(*state)

        return walker(rows, degrees, max_m, counted, bound, tally, limit)

    return make


GATE_GRAPHS = SPLIT_GRAPHS + [
    ("bc4-seed13", partial(bc_network, 4, "seeded_random", seed=13), None, 8),
]


class TestBoundGate:
    @pytest.mark.parametrize(
        "make,params,max_m", [g[1:] for g in GATE_GRAPHS], ids=[g[0] for g in GATE_GRAPHS]
    )
    def test_same_outcome_fewer_visits(self, make, params, max_m):
        graph = make()
        for name, run in split_runs(graph, params, max_m).items():
            if name == "any":
                continue  # the fixed-size scan, which has no walker
            outcomes = []
            for walker in (oracle._walker, ungated_walker):
                calls = [0]
                with mock.patch.object(oracle, "_walker", counted_walker(walker, calls)):
                    outcome, ((_, _, _, visited),) = refined_run(run)
                outcomes.append((without_time(outcome), visited, calls[0]))
            (gated, gated_states, gated_calls), (ungated, states, ungated_calls) = outcomes
            assert gated == ungated, name
            if name.startswith("partition"):
                # the closed-edge bound prunes subtrees, which the reference grows
                assert gated_states < states, name
            else:
                assert gated_states == states, name
            # the reference visits every state it walks, the gate fewer
            assert ungated_calls == states, name
            assert gated_calls < ungated_calls, name


# --- one visitor, and for growth one walker, per share ---------------------------

def partition_cell(make, cond, params=None):
    """The partition scan at the bipartition optimum: its (min_cut,
    part_counts) and the states it walks."""

    def run(budget):
        graph = make()
        optimum = brute_conditional(graph, cond, params=params).optimum
        with recorded_partition_scans() as scans:
            partition_minima(graph, cond, params, optimum, budget)
        return scans

    return run


def profile_cell(make, max_m, mode):
    return lambda budget: oracle._profile(make(), max_m, mode, budget)


BC4 = partial(bc_network, 4, "seeded_random", seed=7)
SHARE_CELLS = [
    ("profile-bilateral-bc4", "_profile_visitor", profile_cell(BC4, 8, "bilateral")),
    ("profile-connected-k33", "_profile_visitor",
     profile_cell(partial(hamming_graph, HammingParams(3, 3)), 5, "connected")),
    ("cyclic-q4", "_cut_visitor", _conditional_cell(2, 4, ConditionKind.cyclic())),
    ("super2-k32", "_cut_visitor", _conditional_cell(3, 2, ConditionKind.super_degree(2))),
    ("partition-extra2-bc4", "_partition_visitor", partition_cell(BC4, ConditionKind.extra(2))),
    ("partition-isoperimetric3-k42", "_partition_visitor",
     partition_cell(partial(hamming_graph, HammingParams(4, 2)),
                    ConditionKind.isoperimetric(3), HammingParams(4, 2))),
]


class TestOneVisitorPerShare:
    @pytest.mark.parametrize(
        "name,run", [c[1:] for c in SHARE_CELLS], ids=[c[0] for c in SHARE_CELLS]
    )
    def test_factory_runs_once_per_share(self, tmp_path, name, run):
        # every cell has several tasks serially and at least 16 refined at
        # two processes, so a factory per task would run more often
        outcomes = []
        for chunks in (1, 2):
            log = tmp_path / f"factory-{chunks}.log"
            log.touch()
            with mock.patch.object(oracle, name, partial(counted_visitor, name, log)):
                outcomes.append(run(OracleBudget(parallel_chunks=chunks)))
            assert log.read_text().split() == [name] * chunks
        # results and states
        assert outcomes[0] == outcomes[1]

    def test_serial_share_shares_its_bound(self):
        # the uncertified BC network takes every root's tasks: run as one
        # share, a bound lowered on one task gates the next
        graph = BC4()
        state = oracle._engine_state(
            graph, 8, free=False, visitor=oracle._profile_visitor, bilateral=True
        )
        items = oracle._tasks(graph, state)
        assert len(items) == 48
        runs = []
        for shares in ([items], [[item] for item in items]):
            calls = [0]
            with mock.patch.object(oracle, "_walker", counted_walker(oracle._walker, calls)):
                parts = [oracle._grow_task(state, share, 10**6) for share in shares]
            entries = [oracle._least(part[m] for part, _ in parts) for m in range(1, 9)]
            runs.append((entries, sum(states for _, states in parts), calls[0]))
        (entries, states, calls), (apart_entries, apart_states, apart_calls) = runs
        assert entries == apart_entries
        assert states == apart_states
        assert calls < apart_calls
