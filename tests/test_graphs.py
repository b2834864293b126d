"""Graph construction, vertex codecs, and components."""

import itertools
import random
from functools import partial

import pytest
from hypothesis import given, strategies as st

from helpers import set_components
from isocut.construct import _flood
from isocut.errors import CapError, DomainError
from isocut.graphs import (
    MATCHING_POLICIES,
    Graph,
    HammingParams,
    bc_network,
    encode,
    format_digits,
    hamming_graph,
)


def digit_loop_hamming(params):
    """Reference builder: each vertex's neighbours from its digits by
    ``%``/``//``, then a sort."""
    arity, dim = params.arity, params.dim
    adjacency = []
    for v in range(params.vertex_count):
        nbrs = []
        power = 1
        rest = v
        for _ in range(dim):
            d = rest % arity
            base = v - d * power
            nbrs.extend(base + e * power for e in range(arity) if e != d)
            rest //= arity
            power *= arity
        nbrs.sort()
        adjacency.append(tuple(nbrs))
    return Graph(params.vertex_count, tuple(adjacency), label=f"hamming({arity},{dim})")


def doubling_bc(dim, matching_policy="identity", seed=0):
    """Reference builder: recursive doubling, shifting the upper copy entry
    by entry, then a sort of every row."""
    rng = random.Random(seed) if matching_policy == "seeded_random" else None
    adjacency = [[1], [0]]
    for _ in range(dim - 1):
        size = len(adjacency)
        if matching_policy == "identity":
            matching = range(size)
        elif matching_policy == "reversal":
            matching = range(size - 1, -1, -1)
        else:
            perm = list(range(size))
            rng.shuffle(perm)
            matching = perm
        doubled = [list(nbrs) for nbrs in adjacency]
        doubled.extend([u + size for u in nbrs] for nbrs in adjacency)
        for i, j in enumerate(matching):
            doubled[i].append(size + j)
            doubled[size + j].append(i)
        adjacency = doubled
    label = f"bc({dim},{matching_policy}"
    if matching_policy == "seeded_random":
        label += f",seed={seed}"
    label += ")"
    return Graph(len(adjacency), tuple(tuple(sorted(n)) for n in adjacency), label=label)


def flood(graph, within):
    """``_flood``'s parts of ``within``, each sorted; checks that it clears
    every flag."""
    flags = bytearray(graph.vertex_count)
    for v in within:
        flags[v] = 1
    parts = [sorted(part) for part in _flood(graph.adjacency, flags)]
    assert not any(flags)
    return parts


# Every K_L^n with at most 2*10^4 vertices and 4*10^5 adjacency entries,
# cliques up to K_100, and the densest graph the witness sweep builds.
BUILDER_GRID = sorted(
    {
        (arity, dim)
        for dim in range(1, 15)
        for arity in range(2, 101 if dim == 1 else 200)
        if arity**dim <= 20_000 and arity**dim * (arity - 1) * dim <= 400_000
    }
    | {(100, 2)}
)


# Every policy on dims 1-12 at four seeds, and the largest networks the
# bc-transfer benchmark sweeps.
BC_GRID = [
    (dim, policy, seed)
    for dim in range(1, 13)
    for policy in MATCHING_POLICIES
    for seed in (0, 1, 7, 12345)
] + [(14, "identity", 0), (15, "reversal", 0), (16, "seeded_random", 0)]


class NoPower(int):
    """An int that fails the test when used as an exponent, since 2**dim
    for a huge dim would take the machine's memory."""

    def __rpow__(self, base, mod=None):
        raise AssertionError(f"computed {base}**{int(self)}")


class TestHammingParams:
    def test_counts(self):
        p = HammingParams(3, 4)
        assert p.vertex_count == 81
        assert p.degree == 8
        assert p.half_size == 40

    def test_half_size_rounds_down(self):
        assert HammingParams(3, 2).half_size == 4

    @pytest.mark.parametrize(
        "arity,dim",
        [(1, 2), (0, 3), (2, 0), (2, -1), (2, 64), (3, 41), (2**32, 2), (2**64, 1)],
    )
    def test_rejects_degenerate(self, arity, dim):
        with pytest.raises(DomainError):
            HammingParams(arity, dim)

    def test_str(self):
        assert str(HammingParams(4, 3)) == "K_4^3"

    @pytest.mark.parametrize("arity,dim", [(2, 63), (3, 40), (2**64 - 1, 1)])
    def test_largest_native_graphs(self, arity, dim):
        assert HammingParams(arity, dim).vertex_count <= 2**64 - 1

    @pytest.mark.parametrize("arity,dim", [(2.5, 3), ("2", 3), (2, True)])
    def test_rejects_non_integers(self, arity, dim):
        with pytest.raises(DomainError):
            HammingParams(arity, dim)

    def test_huge_dims_rejected_without_the_power(self):
        with pytest.raises(DomainError):
            HammingParams(2, NoPower(10**18))
        with pytest.raises(DomainError):
            bc_network(NoPower(10**18))


class TestCodec:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_roundtrip(self, arity, dim, data):
        p = HammingParams(arity, dim)
        v = data.draw(st.integers(min_value=0, max_value=p.vertex_count - 1))
        digits = encode(v, p)
        assert len(digits) == dim
        assert all(0 <= d < arity for d in digits)
        value = 0
        for d in digits:
            value = value * arity + d
        assert value == v

    def test_encode_is_big_endian(self):
        p = HammingParams(10, 3)
        assert encode(247, p) == (2, 4, 7)

    def test_format_digits(self):
        assert format_digits((0, 2, 1), 3) == "021"
        assert format_digits((11, 0, 3), 12) == "11.0.3"

    def test_encode_rejects_a_float_vertex(self):
        with pytest.raises(DomainError):
            encode(2.0, HammingParams(2, 3))

    @pytest.mark.parametrize("digits,arity", [((5,), 2), ((0, 2), 2), ((-1,), 3), ((12,), 12)])
    def test_format_digits_rejects_digits_outside_the_base(self, digits, arity):
        with pytest.raises(DomainError):
            format_digits(digits, arity)


class TestHammingGraph:
    def test_q3_structure(self):
        g = hamming_graph(HammingParams(2, 3))
        assert g.vertex_count == 8
        assert g.edge_count == 12
        assert all(g.degree(v) == 3 for v in range(8))
        assert g.adjacency[0] == (1, 2, 4)
        assert g.label == "hamming(2,3)"

    @pytest.mark.parametrize("arity,dim", [(2, 4), (3, 3), (5, 2)])
    def test_edges_differ_in_one_digit(self, arity, dim):
        p = HammingParams(arity, dim)
        g = hamming_graph(p)
        edges = set(g.edges())
        for u, v in itertools.combinations(range(p.vertex_count), 2):
            du, dv = encode(u, p), encode(v, p)
            differs = sum(a != b for a, b in zip(du, dv))
            assert ((u, v) in edges) == (differs == 1)

    def test_adjacency_sorted(self):
        g = hamming_graph(HammingParams(4, 3))
        for nbrs in g.adjacency:
            assert list(nbrs) == sorted(nbrs)

    def test_vertex_cap(self):
        with pytest.raises(CapError):
            hamming_graph(HammingParams(10, 4), max_vertices=1000)

    @pytest.mark.parametrize("cap", [None, "3", 2.5, True])
    def test_rejects_non_integer_cap(self, cap):
        for build in (partial(hamming_graph, HammingParams(2, 3)), partial(bc_network, 3)):
            with pytest.raises(DomainError):
                build(max_vertices=cap)

    def test_equals_digit_loop_reference(self):
        for arity, dim in BUILDER_GRID:
            p = HammingParams(arity, dim)
            g, want = hamming_graph(p), digit_loop_hamming(p)
            assert g.vertex_count == want.vertex_count, p
            assert g.label == want.label, p
            assert g.adjacency == want.adjacency, p

    def test_largest_bench_graph_flips_one_bit(self):
        # K_2^17, the largest graph the witness sweep builds, is past BUILDER_GRID
        g = hamming_graph(HammingParams(2, 17))
        rng = random.Random(17)
        for v in rng.sample(range(g.vertex_count), 2000):
            assert g.adjacency[v] == tuple(sorted(v ^ 1 << p for p in range(17))), v

    def test_entries_share_one_int_per_vertex(self):
        g = hamming_graph(HammingParams(3, 6))  # ids past the small-int cache
        first = {}
        for row in g.adjacency:
            for u in row:
                assert first.setdefault(u, u) is u


class TestBCNetwork:
    def test_equals_doubling_reference(self):
        for dim, policy, seed in BC_GRID:
            g, want = bc_network(dim, policy, seed), doubling_bc(dim, policy, seed)
            assert g.vertex_count == want.vertex_count, (dim, policy, seed)
            assert g.label == want.label, (dim, policy, seed)
            assert g.adjacency == want.adjacency, (dim, policy, seed)

    def test_entries_share_one_int_per_vertex(self):
        g = bc_network(10, "seeded_random", seed=3)  # ids past the small-int cache
        first = {}
        for row in g.adjacency:
            for u in row:
                assert first.setdefault(u, u) is u

    def test_vertex_cap(self):
        with pytest.raises(CapError):
            bc_network(11, max_vertices=1000)

    def test_identity_matching_is_hypercube(self):
        for dim in (1, 2, 3, 4, 5):
            b = bc_network(dim, "identity")
            h = hamming_graph(HammingParams(2, dim))
            assert b.adjacency == h.adjacency

    @pytest.mark.parametrize("policy", ["identity", "reversal", "seeded_random"])
    def test_regular_and_connected(self, policy):
        for dim in (2, 3, 4):
            g = bc_network(dim, policy, seed=5)
            assert g.vertex_count == 2**dim
            assert all(g.degree(v) == dim for v in range(g.vertex_count))
            assert set_components(g, range(g.vertex_count)) == [list(range(g.vertex_count))]

    def test_seed_determinism(self):
        a = bc_network(4, "seeded_random", seed=11)
        b = bc_network(4, "seeded_random", seed=11)
        c = bc_network(4, "seeded_random", seed=12)
        assert a.adjacency == b.adjacency
        assert a.adjacency != c.adjacency

    @pytest.mark.parametrize("dim", [3.0, True])
    def test_rejects_non_integer_dim(self, dim):
        with pytest.raises(DomainError):
            bc_network(dim)

    @pytest.mark.parametrize("seed", [None, 2.5, "3", True])
    def test_rejects_non_integer_seed(self, seed):
        # seed=None would draw from the OS: one label, different graphs
        with pytest.raises(DomainError):
            bc_network(4, "seeded_random", seed=seed)

    def test_rejects_unknown_policy(self):
        with pytest.raises(DomainError):
            bc_network(3, "butterfly")

    def test_halves_joined_by_perfect_matching(self):
        g = bc_network(4, "seeded_random", seed=3)
        half = g.vertex_count // 2
        cross = [(u, v) for u, v in g.edges() if (u < half) != (v < half)]
        assert len(cross) == half
        assert len({u for u, _ in cross}) == half
        assert len({v for _, v in cross}) == half


class TestComponents:
    def test_whole_graph(self):
        g = hamming_graph(HammingParams(2, 3))
        assert flood(g, range(8)) == set_components(g, range(8)) == [list(range(8))]

    def test_induced_subset(self):
        g = hamming_graph(HammingParams(2, 3))
        # 0=000 and 3=011 are at distance two, so they sit in separate parts
        assert flood(g, [0, 3]) == set_components(g, [0, 3]) == [[0], [3]]
        assert flood(g, [0, 1, 3]) == set_components(g, [0, 1, 3]) == [[0, 1, 3]]

    def test_empty_graph_not_connected(self):
        g = Graph(vertex_count=0, adjacency=())
        assert flood(g, []) == set_components(g, []) == []

    def test_many_parts_match_set_reference(self):
        g = hamming_graph(HammingParams(2, 10))
        # even-weight vertices are independent; vertex 1 then joins nine of them
        independent = [v for v in range(1, 1024) if bin(v).count("1") % 2 == 0]
        for within, count in ((independent, 511), (independent + [1], 503)):
            parts = flood(g, within)
            assert parts == set_components(g, within)
            assert len(parts) == count

    def test_random_sets_match_set_reference(self):
        rng = random.Random(4)
        for g in (bc_network(5, "seeded_random", seed=2), hamming_graph(HammingParams(3, 3))):
            n = g.vertex_count
            for _ in range(40):
                within = [rng.randrange(n) for _ in range(rng.randrange(1, 2 * n))]
                assert flood(g, within) == set_components(g, within)
