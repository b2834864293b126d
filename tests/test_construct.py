"""Optimal-set construction and materialized cut reports."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from isocut import construct
from isocut.closedform import decompose, max_degree_sum, min_edge_boundary
from isocut.construct import (
    CutReport,
    SubLayer,
    SubLayerFamily,
    evaluate_cut,
    family_census,
    optimal_set,
    prefix_cut_sweep,
    sublayer_families,
)
from isocut.errors import DomainError
from isocut.graphs import (
    Graph,
    HammingParams,
    bc_network,
    encode,
    hamming_graph,
)

from helpers import graph_from_edges, pocket_graph, relabelled, set_components


@pytest.fixture(scope="module")
def q4():
    return hamming_graph(HammingParams(2, 4))


def random_graph_with_late_isolated_vertex(seed):
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(24), 2) if rng.random() < 0.15]
    return graph_from_edges(26, [(u, v) for u, v in edges if 20 not in (u, v)], "random")


# graphs whose prefixes or suffixes fail the certificate, so the sweep falls
# back to evaluate_cut
UNCERTIFIED_GRAPHS = [
    relabelled(hamming_graph(HammingParams(3, 2)), seed=1),
    relabelled(hamming_graph(HammingParams(2, 4)), seed=2),
    pocket_graph(),
    random_graph_with_late_isolated_vertex(seed=3),
]
CERTIFIED_GRAPHS = [
    hamming_graph(HammingParams(2, 5)),
    hamming_graph(HammingParams(4, 3)),
    hamming_graph(HammingParams(6, 1)),
    *(bc_network(5, policy, seed=4) for policy in ("identity", "reversal", "seeded_random")),
]

# small graphs for the certificate's edge cases in evaluate_cut
CUBE = hamming_graph(HammingParams(2, 3))
TWO_EDGES = graph_from_edges(5, [(0, 1), (2, 3)], "two-edges")
ISOLATED = graph_from_edges(5, [(0, 1), (3, 4)], "isolated")


class LoggedRows(tuple):
    """Adjacency rows that log the index of every row read through indexing."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.read = []
        return self

    def __getitem__(self, index):
        self.read.append(index)
        return super().__getitem__(index)


def reference_sweep(graph, max_size):
    """Each prefix counted afresh, its connectivity from ``set_components``."""
    n = graph.vertex_count
    rows = []
    for m in range(1, max_size + 1):
        entries = [u for v in range(m) for u in graph.adjacency[v]]
        inside = sum(1 for u in entries if u < m)
        rows.append(
            (
                m,
                len(entries) - inside,
                inside // 2,
                len(set_components(graph, range(m))) == 1,
                len(set_components(graph, range(m, n))) == 1,
            )
        )
    return rows


def frozenset_evaluate_cut(graph, vertex_set):
    """Reference cut report: frozenset membership, one edge at a time."""
    side = frozenset(vertex_set)
    internal = cut = 0
    for v in side:
        for u in graph.adjacency[v]:
            if u in side:
                internal += 1
            else:
                cut += 1
    complement = [v for v in range(graph.vertex_count) if v not in side]
    side_parts = tuple(len(c) for c in set_components(graph, side))
    comp_parts = tuple(len(c) for c in set_components(graph, complement))
    return CutReport(
        len(side), cut, internal // 2, len(side_parts) == 1, len(comp_parts) == 1,
        side_parts, comp_parts,
    )


def reference_families(m, params):
    """Decomposition blocks with each layer's prefix read off its first vertex."""
    families = []
    offset = 0
    for a, b in decompose(m, params.arity).terms:
        size = params.arity**b
        prefixes = [encode(offset + j * size, params)[: params.dim - b] for j in range(a)]
        families.append(SubLayerFamily(b, tuple(SubLayer(q, b) for q in prefixes)))
        offset += a * size
    return tuple(families)


def reference_census(families, params):
    """The census one pair of layers at a time; overlapping layers raise."""
    flat = [(i, layer) for i, family in enumerate(families) for layer in family.layers]
    within = sum(
        (params.arity - 1) * layer.free_dims * params.arity**layer.free_dims // 2
        for _, layer in flat
    )
    matchings = {True: 0, False: 0}  # keyed by "same family"
    for (fam_i, one), (fam_j, other) in itertools.combinations(flat, 2):
        if one.free_dims < other.free_dims:
            one, other = other, one
        differing = sum(x != y for x, y in zip(one.prefix, other.prefix[: len(one.prefix)]))
        if differing == 0:
            raise DomainError("sub-layers overlap")
        if differing == 1:
            matchings[fam_i == fam_j] += params.arity**other.free_dims
    internal = within + matchings[True] + matchings[False]
    vertices = sum(params.arity**layer.free_dims for _, layer in flat)
    return {
        "within_layers": within,
        "same_family_matchings": matchings[True],
        "cross_family_matchings": matchings[False],
        "internal_edges": internal,
        "cut_size": params.degree * vertices - 2 * internal,
    }


def census_outcome(census, families, params):
    try:
        return census(families, params)
    except DomainError:
        return DomainError


def random_params(rng):
    """Arity log-uniform over 2..1000, any dim up to the 64-bit vertex cap."""
    arity = round(2 ** rng.uniform(1, math.log2(1000)))
    top = 1
    while (arity ** (top + 1)).bit_length() <= 64:
        top += 1
    return HammingParams(arity, rng.randint(1, top))


def capped_size(rng, params, layers):
    """A random m <= N/2 whose digits, most significant first, sum to at most
    ``layers``: each digit is cut to what is left."""
    m, budget = 0, layers
    for d in encode(rng.randint(1, params.half_size), params):
        d = min(d, budget)
        budget -= d
        m = m * params.arity + d
    return m


def family(head, digits, free_dims):
    return SubLayerFamily(free_dims, tuple(SubLayer((*head, d), free_dims) for d in digits))


class TestOptimalSet:
    def test_is_numeric_prefix(self):
        p = HammingParams(3, 3)
        for m in (1, 5, 13):
            assert sorted(optimal_set(m, p)) == list(range(m))

    @pytest.mark.parametrize("arity,dim", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_achieves_formula(self, arity, dim):
        p = HammingParams(arity, dim)
        g = hamming_graph(p)
        for m in range(1, p.half_size + 1):
            report = evaluate_cut(g, optimal_set(m, p))
            assert report.set_size == m
            assert report.cut_size == min_edge_boundary(m, p)
            assert 2 * report.internal_edges == max_degree_sum(m, p)
            assert report.side_connected
            assert report.complement_connected

    def test_domain(self):
        p = HammingParams(2, 4)
        with pytest.raises(DomainError):
            optimal_set(0, p)
        with pytest.raises(DomainError):
            optimal_set(9, p)  # above half

    @pytest.mark.parametrize("call", [optimal_set, sublayer_families], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("m", [2.0, True, "2"], ids=repr)
    def test_rejects_non_integer_sizes(self, call, m):
        with pytest.raises(DomainError):
            call(m, HammingParams(2, 4))


class TestSublayerFamilies:
    def test_family_shape_follows_decomposition(self):
        p = HammingParams(4, 3)
        m = 16 + 3 * 4 + 1
        fams = sublayer_families(m, p)
        assert [(len(f.layers), f.free_dims) for f in fams] == [
            (a, b) for a, b in decompose(m, 4).terms
        ]

    def test_layers_tile_the_set(self):
        p = HammingParams(3, 3)
        for m in (7, 12, 13):
            fams = sublayer_families(m, p)
            covered = []
            for fam in fams:
                for layer in fam.layers:
                    # the layer is every vertex whose leading digits are its prefix
                    fixed = len(layer.prefix)
                    assert fixed + layer.free_dims == p.dim
                    covered.extend(
                        v
                        for v in range(p.vertex_count)
                        if encode(v, p)[:fixed] == layer.prefix
                    )
            assert sorted(covered) == sorted(optimal_set(m, p))

    def test_labels(self):
        p = HammingParams(2, 4)
        fams = sublayer_families(5, p)  # 5 = 2^2 + 1
        assert [layer.label(p) for layer in fams[0].layers] == ["00XX"]
        assert [layer.label(p) for layer in fams[1].layers] == ["0100"]

    def test_census_matches_report(self, q4):
        p = HammingParams(2, 4)
        for m in range(1, 9):
            fams = sublayer_families(m, p)
            census = family_census(fams, p)
            report = evaluate_cut(q4, optimal_set(m, p))
            assert census["internal_edges"] == report.internal_edges
            assert census["cut_size"] == report.cut_size


class TestFamilyCensus:
    def test_families_and_census_equal_references_on_small_graphs(self):
        cells = 0
        for arity in range(2, 7):
            for dim in range(1, 7):
                p = HammingParams(arity, dim)
                if p.vertex_count > 5000:
                    continue
                for m in range(1, p.half_size + 1):
                    fams = sublayer_families(m, p)
                    assert fams == reference_families(m, p), (arity, dim, m)
                    assert family_census(fams, p) == reference_census(fams, p), (arity, dim, m)
                    cells += 1
        assert cells == 6063

    def test_equals_pairwise_reference_across_the_64_bit_range(self):
        rng = random.Random(15)
        for _ in range(2000):
            p = random_params(rng)
            m = capped_size(rng, p, 12)
            fams = sublayer_families(m, p)
            assert family_census(fams, p) == reference_census(fams, p), (p, m)

    def test_random_families_match_reference_or_both_raise(self):
        # families of the documented shape at random, overlapping ones included
        rng = random.Random(16)
        raised = 0
        for _ in range(3000):
            p = HammingParams(rng.randint(2, 4), rng.randint(1, 4))
            fams = []
            for _ in range(rng.randint(1, 4)):
                free_dims = rng.randrange(p.dim)
                head = [rng.randrange(p.arity) for _ in range(p.dim - free_dims - 1)]
                digits = rng.sample(range(p.arity), rng.randint(1, p.arity))
                fams.append(family(head, digits, free_dims))
            want = census_outcome(reference_census, fams, p)
            assert census_outcome(family_census, fams, p) == want, (p, fams)
            raised += want is DomainError
        assert 300 < raised < 2700  # both outcomes well represented

    @pytest.mark.parametrize(
        "fams",
        [
            pytest.param([family((0,), [1, 1], 1)], id="duplicate-in-family"),
            pytest.param([family((0,), [1], 1), family((0,), [1], 1)], id="duplicate-across"),
            pytest.param([family((), [0, 1], 2), family((1,), [2], 1)], id="layer-inside-layer"),
            pytest.param([family((1, 2), [0], 0), family((1,), [2], 1)], id="shorter-after"),
            pytest.param(
                [SubLayerFamily(3, (SubLayer((), 3),)), family((2,), [0], 1)],
                id="whole-graph-shared",
            ),
            pytest.param(
                [SubLayerFamily(3, (SubLayer((), 3), SubLayer((), 3)))], id="whole-graph-twice"
            ),
        ],
    )
    def test_overlap_raises(self, fams):
        p = HammingParams(3, 3)
        with pytest.raises(DomainError, match="overlap"):
            family_census(fams, p)
        with pytest.raises(DomainError):
            reference_census(fams, p)

    @pytest.mark.parametrize(
        "fam",
        [
            # disjoint layers, so the pairwise census accepted them
            pytest.param(SubLayerFamily(1, (SubLayer((0, 1), 1), SubLayer((1, 2), 1))), id="head"),
            pytest.param(SubLayerFamily(1, (SubLayer((0, 1), 1), SubLayer((1,), 2))), id="free-dims"),
            pytest.param(
                SubLayerFamily(1, (SubLayer((0, 1), 1), SubLayer((0, 2), 2))), id="free-dims-only"
            ),
            pytest.param(SubLayerFamily(2, (SubLayer((0, 1), 1),)), id="family-free-dims"),
            pytest.param(SubLayerFamily(1, (SubLayer((0,), 1),)), id="prefix-length"),
            pytest.param(SubLayerFamily(4, (SubLayer((), 4),)), id="too-many-free-dims"),
        ],
    )
    def test_broken_family_shape_raises(self, fam):
        p = HammingParams(3, 3)
        reference_census([fam], p)
        with pytest.raises(DomainError):
            family_census([fam], p)

    def test_lone_whole_graph_layer(self):
        for p in (HammingParams(2, 1), HammingParams(3, 3), HammingParams(1000, 6)):
            fams = [SubLayerFamily(p.dim, (SubLayer((), p.dim),))]
            census = family_census(fams, p)
            assert census == reference_census(fams, p)
            assert census["internal_edges"] == p.degree * p.vertex_count // 2
            assert census["cut_size"] == 0

    def test_empty_families_count_nothing(self):
        p = HammingParams(3, 3)
        fams = sublayer_families(11, p)
        padded = [SubLayerFamily(1, ()), *fams, SubLayerFamily(3, ())]
        assert family_census(padded, p) == family_census(fams, p)

    def test_thousands_of_layers_match_the_closed_forms(self):
        # two independent paths: per-family-pair census against the digit formula
        p = HammingParams(1000, 6)
        rng = random.Random(17)
        sizes = []
        while len(sizes) < 20:
            m = rng.randint(1, p.half_size)
            if sum(encode(m, p)) > 2000:
                sizes.append(m)
        sizes.append(int("499" + "999" * 5))  # the largest digit sum, 5494 layers
        for m in sizes:
            census = family_census(sublayer_families(m, p), p)
            assert census["cut_size"] == min_edge_boundary(m, p)
            assert census["internal_edges"] == max_degree_sum(m, p) // 2


class TestEvaluateCut:
    def test_antipodal_pair(self, q4):
        report = evaluate_cut(q4, [0, 15])
        assert report.cut_size == 8
        assert report.internal_edges == 0
        assert not report.side_connected
        assert report.set_component_sizes == (1, 1)
        assert report.complement_connected

    def test_subcube(self, q4):
        report = evaluate_cut(q4, range(8))
        assert report.cut_size == 8
        assert report.internal_edges == 12
        assert report.side_connected and report.complement_connected

    def test_to_dict_shape(self, q4):
        d = evaluate_cut(q4, [0, 1]).to_dict()
        assert d["set_size"] == 2
        assert set(d["component_sizes"]) == {"set", "complement"}

    def test_rejects_bad_sets(self, q4):
        with pytest.raises(DomainError):
            evaluate_cut(q4, [])
        with pytest.raises(DomainError):
            evaluate_cut(q4, [0, 16])

    def test_duplicates_collapse(self, q4):
        assert evaluate_cut(q4, [0, 0, 1]).set_size == 2

    @pytest.mark.parametrize("vertices", [["a"], [1.0], [True, 3], [0, None]], ids=repr)
    def test_rejects_non_integer_ids(self, q4, vertices):
        with pytest.raises(DomainError):
            evaluate_cut(q4, vertices)

    def test_integer_like_ids_are_read_as_ints(self, q4):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        assert evaluate_cut(q4, [Index(0), 1]) == evaluate_cut(q4, [0, 1])

    def test_reads_no_row_above_a_prefix(self):
        q12 = hamming_graph(HammingParams(2, 12))
        rows = LoggedRows(q12.adjacency)
        graph = Graph(q12.vertex_count, rows, q12.label)
        graph._order_breaks  # the per-graph certificate, read before any cut
        for m in (1, 2, 7, 64, 1000, 2048):
            rows.read.clear()
            report = evaluate_cut(graph, range(m))
            assert report == evaluate_cut(q12, range(m))
            assert report.side_connected and report.complement_connected
            assert rows.read and max(rows.read) < m, m

    @pytest.mark.parametrize(
        "graph", [*UNCERTIFIED_GRAPHS, *CERTIFIED_GRAPHS, CUBE, TWO_EDGES, ISOLATED],
        ids=lambda g: g.label,
    )
    def test_order_breaks_match_reference(self, graph):
        n, adjacency = graph.vertex_count, graph.adjacency
        no_smaller = [v for v in range(1, n) if min(adjacency[v], default=n) > v]
        no_larger = [v for v in range(n - 1) if max(adjacency[v], default=-1) < v]
        assert graph._order_breaks == (min(no_smaller, default=n), max(no_larger, default=-1))

    def test_matches_frozenset_reference(self):
        rng = random.Random(6)
        for g in [*UNCERTIFIED_GRAPHS, *CERTIFIED_GRAPHS]:
            n = g.vertex_count
            for _ in range(30):
                # repeated ids included; sets covering every vertex are skipped
                vertices = [rng.randrange(n) for _ in range(rng.randrange(1, n + 1))]
                if len(set(vertices)) < n:
                    assert evaluate_cut(g, vertices) == frozenset_evaluate_cut(g, vertices)

    @pytest.mark.parametrize(
        "graph,vertices",
        [
            # 6's least neighbour 2 is outside the set, but 6-4-0 joins it
            pytest.param(CUBE, [0, 4, 6], id="chain-misses"),
            # 2's least neighbour 3 is in the set but above it: two parts
            pytest.param(TWO_EDGES, [0, 1, 2, 3], id="neighbour-above"),
            # vertex 2 of ISOLATED has no neighbours
            pytest.param(ISOLATED, [1, 2], id="isolated-in-set"),
            pytest.param(ISOLATED, [0, 1], id="isolated-in-complement"),
            pytest.param(ISOLATED, [2], id="isolated-alone"),
            pytest.param(CUBE, [5], id="single-member-set"),
            pytest.param(CUBE, [0, 1, 2, 3, 4, 6, 7], id="single-member-complement"),
            pytest.param(pocket_graph(), range(1, 15), id="pocket-single-complement"),
            # vertex 5, above the set's top, has no larger neighbour
            pytest.param(pocket_graph(), [0], id="dead-end-above-top"),
            pytest.param(CUBE, [0, 7], id="set-holds-last-vertex"),
        ],
    )
    def test_certificate_edge_cases_match_reference(self, graph, vertices):
        assert evaluate_cut(graph, vertices) == frozenset_evaluate_cut(graph, vertices)

    def test_isolated_vertex_is_its_own_part(self):
        g = random_graph_with_late_isolated_vertex(seed=3)
        report = evaluate_cut(g, [20])
        assert (report.cut_size, report.set_component_sizes) == (0, (1,))
        assert not report.complement_connected

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=15))
    def test_cut_plus_internal_counts_every_edge(self, q4, vertices):
        report = evaluate_cut(q4, vertices)
        degree_total = 4 * len(vertices)
        assert report.cut_size + 2 * report.internal_edges == degree_total


class TestPrefixSweep:
    def test_matches_per_size_reports(self, q4):
        rows = prefix_cut_sweep(q4)
        assert [r.size for r in rows] == list(range(1, 9))
        p = HammingParams(2, 4)
        for row in rows:
            report = evaluate_cut(q4, optimal_set(row.size, p))
            assert row.cut_size == report.cut_size
            assert row.internal_edges == report.internal_edges
            assert row.side_connected == report.side_connected
            assert row.complement_connected == report.complement_connected

    def test_max_size_trims(self, q4):
        rows = prefix_cut_sweep(q4, max_size=3)
        assert [r.size for r in rows] == [1, 2, 3]

    @pytest.mark.parametrize("max_size", [2.5, "3", True])
    def test_rejects_non_integer_max_size(self, q4, max_size):
        with pytest.raises(DomainError):
            prefix_cut_sweep(q4, max_size)

    def test_clique_row_values(self):
        g = hamming_graph(HammingParams(7, 1))
        rows = prefix_cut_sweep(g)
        assert [(r.size, r.cut_size) for r in rows] == [(1, 6), (2, 10), (3, 12)]

    @pytest.mark.parametrize("graph", UNCERTIFIED_GRAPHS + CERTIFIED_GRAPHS, ids=lambda g: g.label)
    def test_matches_per_prefix_reference(self, graph):
        n = graph.vertex_count
        for max_size in (None, n - 1, n // 3):
            rows = prefix_cut_sweep(graph, max_size)
            want = reference_sweep(graph, n // 2 if max_size is None else max_size)
            assert [tuple(r) for r in rows] == want
            assert all(type(r) is construct.SweepRow for r in rows)

    def test_evaluate_cut_runs_only_where_the_certificate_fails(self, monkeypatch):
        calls = []
        real = construct.evaluate_cut
        monkeypatch.setattr(
            construct, "evaluate_cut", lambda g, vs: calls.append(vs) or real(g, vs)
        )
        for graph in CERTIFIED_GRAPHS:
            prefix_cut_sweep(graph, graph.vertex_count - 1)
        assert calls == []
        for graph in UNCERTIFIED_GRAPHS:
            n, adjacency = graph.vertex_count, graph.adjacency
            no_smaller = [v for v in range(1, n - 1) if min(adjacency[v], default=n) > v]
            no_larger = [v for v in range(1, n - 1) if max(adjacency[v], default=-1) < v]
            want = [
                range(m) for m in range(1, n)
                if any(v < m for v in no_smaller) or any(v >= m for v in no_larger)
            ]
            prefix_cut_sweep(graph, n - 1)
            assert want and calls == want, graph.label
            calls.clear()
