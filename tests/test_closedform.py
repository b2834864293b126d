"""Closed-form boundary values and conditions.

Frozen reference numbers here were produced by the subset-enumeration oracle
(see test_oracle.py) and written down; the formulas must keep matching them.
"""

from functools import partial
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from isocut.closedform import (
    ConditionKind,
    conditional_connectivity,
    decompose,
    degree_sum_split,
    max_degree_sum,
    min_boundary_binary,
    min_boundary_ternary,
    min_edge_boundary,
    sublayer_block_boundary,
)
from isocut.errors import DomainError, UnsupportedError
from isocut.graphs import HammingParams

# Oracle-frozen boundary profiles, m = 1..floor(N/2).
Q3_PROFILE = (3, 4, 5, 4)
Q4_PROFILE = (4, 6, 8, 8, 10, 10, 10, 8)
K32_PROFILE = (4, 6, 6, 8)


def suffix_minima(p):
    """Reference scan: min of min_edge_boundary(m) over h <= m <= N/2, h = 1..N/2."""
    xi = (min_edge_boundary(m, p) for m in range(p.half_size, 0, -1))
    return list(accumulate(xi, min))[::-1]


def small_graphs():
    """Every K_L^n with at most 10^4 vertices, cliques up to K_100.

    Larger cliques add nothing: a size below L is one digit, so every h on
    K_L takes the single-block branch.
    """
    yield from (HammingParams(arity, 1) for arity in range(2, 101))
    dim = 2
    while 2**dim <= 10**4:
        arity = 2
        while arity**dim <= 10**4:
            yield HammingParams(arity, dim)
            arity += 1
        dim += 1


class TestDecompose:
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_roundtrip_and_shape(self, base, m):
        d = decompose(m, base)
        assert sum(a * base**b for a, b in d.terms) == m
        assert all(1 <= a <= base - 1 for a, _ in d.terms)
        exponents = [b for _, b in d.terms]
        assert exponents == sorted(exponents, reverse=True)

    def test_terms_are_nonzero_digits(self):
        # independent recomputation straight from the digit string
        for base, m in [(2, 12), (3, 26), (5, 7), (10, 90210)]:
            digits = []
            v, pos = m, 0
            while v:
                v, d = divmod(v, base)
                if d:
                    digits.append((d, pos))
                pos += 1
            assert decompose(m, base).terms == tuple(reversed(digits))

    def test_str_forms(self):
        assert str(decompose(7, 5)) == "5^1 + 2"
        assert str(decompose(26, 3)) == "2*3^2 + 2*3^1 + 2"
        assert str(decompose(8, 2)) == "2^3"

    def test_single_term(self):
        assert decompose(9, 3).is_single_term()
        assert not decompose(10, 3).is_single_term()

    @pytest.mark.parametrize("m,base", [(0, 2), (-3, 2), (5, 1), (5, 0)])
    def test_domain(self, m, base):
        with pytest.raises(DomainError):
            decompose(m, base)

    @pytest.mark.parametrize("m,base", [(2.5, 2), (4.0, 2), (True, 2), ("5", 2), (5, 2.0)])
    def test_rejects_non_integers(self, m, base):
        with pytest.raises(DomainError):
            decompose(m, base)


class TestBoundaryFormula:
    @pytest.mark.parametrize(
        "profile,arity,dim",
        [(Q3_PROFILE, 2, 3), (Q4_PROFILE, 2, 4), (K32_PROFILE, 3, 2)],
    )
    def test_frozen_profiles(self, profile, arity, dim):
        p = HammingParams(arity, dim)
        assert tuple(min_edge_boundary(m, p) for m in range(1, p.half_size + 1)) == profile

    def test_frozen_cells(self):
        # (arity, dim, m) -> (max_degree_sum, min_edge_boundary)
        cells = {
            (2, 4, 5): (10, 10),
            (3, 4, 8): (28, 36),
            (4, 4, 10): (42, 78),
            (5, 2, 7): (26, 30),
            (10, 2, 12): (96, 120),
        }
        for (arity, dim, m), (ex, xi) in cells.items():
            p = HammingParams(arity, dim)
            assert max_degree_sum(m, p) == ex
            assert min_edge_boundary(m, p) == xi

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_degree_sum_complement_identity(self, arity, dim, data):
        p = HammingParams(arity, dim)
        m = data.draw(st.integers(min_value=1, max_value=p.half_size))
        # boundary of a set equals the boundary of its complement
        lhs = p.degree * m - max_degree_sum(m, p)
        rhs = p.degree * (p.vertex_count - m) - max_degree_sum(p.vertex_count - m, p)
        assert lhs == rhs

    def test_clique_row(self):
        # dim 1 degenerates to a clique: boundary m(L-m), m <= L/2
        for arity in (2, 5, 11, 30):
            p = HammingParams(arity, 1)
            for m in range(1, p.half_size + 1):
                assert min_edge_boundary(m, p) == m * (arity - m)
                assert max_degree_sum(m, p) == m * (m - 1)

    @settings(max_examples=300)
    @given(st.integers(min_value=2, max_value=1000), st.data())
    def test_one_pass_matches_term_formula(self, arity, data):
        # every dim up to the 64-bit vertex cap
        top = 1
        while (arity ** (top + 1)).bit_length() <= 64:
            top += 1
        p = HammingParams(arity, data.draw(st.integers(min_value=1, max_value=top)))
        m = data.draw(st.integers(min_value=1, max_value=p.vertex_count))
        terms = decompose(m, arity).terms
        want = sum(((arity - 1) * a * b + (a - 1) * a) * arity**b for a, b in terms)
        want += 2 * sum(
            a * ak * arity**bk for i, (a, _) in enumerate(terms) for ak, bk in terms[i + 1 :]
        )
        assert max_degree_sum(m, p) == want

    def test_unit_step_increment(self):
        # appending vertex m to the prefix adds twice its digit sum in edges
        p = HammingParams(4, 5)
        for m in range(1, 300):
            digitsum = sum(a for a, _ in decompose(m, 4).terms) if m else 0
            assert (
                max_degree_sum(m + 1, p) - max_degree_sum(m, p) == 2 * digitsum
            )

    def test_domain(self):
        p = HammingParams(3, 2)
        with pytest.raises(DomainError):
            min_edge_boundary(0, p)
        with pytest.raises(DomainError):
            min_edge_boundary(5, p)  # above half
        with pytest.raises(DomainError):
            max_degree_sum(10, p)  # above N


P33 = HammingParams(3, 3)


class TestNonIntegerArguments:
    @pytest.mark.parametrize(
        "call",
        [
            partial(max_degree_sum, "3", P33),
            partial(max_degree_sum, 2.0, P33),
            partial(max_degree_sum, True, P33),
            partial(min_edge_boundary, "3", P33),
            partial(min_edge_boundary, 2.0, P33),
            partial(sublayer_block_boundary, 1.0, 1, P33),
            partial(sublayer_block_boundary, 1, True, P33),
            partial(min_boundary_binary, 2.0, 4),
            partial(min_boundary_ternary, "2", 4),
            partial(degree_sum_split, 9.0, 1, P33),
            partial(degree_sum_split, 9, True, P33),
        ],
        ids=[
            "degree-sum-str", "degree-sum-float", "degree-sum-bool", "boundary-str",
            "boundary-float", "block-float-g", "block-bool-t", "binary-float",
            "ternary-str", "split-float", "split-bool",
        ],
    )
    def test_raise_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_integer_like_values_are_read_as_ints(self):
        class Index:
            def __index__(self):
                return 3

        assert max_degree_sum(Index(), P33) == max_degree_sum(3, P33)
        assert min_edge_boundary(Index(), P33) == min_edge_boundary(3, P33)
        assert decompose(Index(), 2) == decompose(3, 2)


class TestReducedForms:
    def test_binary_matches_general(self):
        p = HammingParams(2, 10)
        for m in range(1, p.half_size + 1):
            assert min_boundary_binary(m, 10) == min_edge_boundary(m, p)

    def test_ternary_matches_general(self):
        p = HammingParams(3, 6)
        for m in range(1, p.half_size + 1):
            assert min_boundary_ternary(m, 6) == min_edge_boundary(m, p)

    def test_binary_power_of_two(self):
        # subcube of dimension b has boundary (n-b) 2^b
        for dim, b in [(6, 0), (6, 3), (12, 11)]:
            assert min_boundary_binary(2**b, dim) == (dim - b) * 2**b


class TestSublayerBlock:
    def test_matches_general_formula(self):
        for arity, dim in [(2, 5), (3, 4), (6, 3)]:
            p = HammingParams(arity, dim)
            for t in range(dim):
                for g in range(1, arity):
                    if g * arity**t > p.half_size:
                        continue
                    assert sublayer_block_boundary(g, t, p) == min_edge_boundary(
                        g * arity**t, p
                    )

    def test_domain(self):
        p = HammingParams(3, 3)
        with pytest.raises(DomainError):
            sublayer_block_boundary(0, 1, p)
        with pytest.raises(DomainError):
            sublayer_block_boundary(3, 1, p)  # g = arity
        with pytest.raises(DomainError):
            sublayer_block_boundary(1, 3, p)  # t = dim
        with pytest.raises(DomainError):
            sublayer_block_boundary(2, 2, p)  # block above half


class TestConditionKind:
    def test_describe(self):
        assert ConditionKind.extra(3).describe() == "extra(3)"
        assert ConditionKind.embedded(2).describe() == "embedded(2)"
        assert ConditionKind.cyclic().describe() == "cyclic"
        assert ConditionKind.super_degree(4).describe() == "super(4)"
        assert ConditionKind.average_degree(2).describe() == "average(2)"
        assert ConditionKind.isoperimetric(5).describe() == "isoperimetric(5)"

    def test_min_fragment_size(self):
        q4 = HammingParams(2, 4)
        k53 = HammingParams(5, 3)
        assert ConditionKind.extra(3).min_fragment_size(q4) == 3
        assert ConditionKind.isoperimetric(6).min_fragment_size(q4) == 6
        assert ConditionKind.embedded(2).min_fragment_size(q4) == 4
        assert ConditionKind.super_degree(2).min_fragment_size(q4) == 4
        assert ConditionKind.average_degree(3).min_fragment_size(q4) == 8
        assert ConditionKind.embedded(2).min_fragment_size(k53) == 25
        # cyclic thresholds by arity: 4 on binary, 3 on ternary, 3 otherwise
        assert ConditionKind.cyclic().min_fragment_size(q4) == 4
        assert ConditionKind.cyclic().min_fragment_size(HammingParams(3, 3)) == 3
        assert ConditionKind.cyclic().min_fragment_size(k53) == 3

    def test_sublayer_split(self):
        q4 = HammingParams(2, 4)
        assert ConditionKind.extra(4).sublayer_split(q4) == (1, 2)
        assert ConditionKind.extra(3).sublayer_split(q4) is None
        assert ConditionKind.embedded(1).sublayer_split(q4) == (1, 1)
        assert ConditionKind.cyclic().sublayer_split(q4) == (1, 2)
        assert ConditionKind.cyclic().sublayer_split(HammingParams(3, 3)) == (1, 1)
        assert ConditionKind.cyclic().sublayer_split(HammingParams(5, 3)) == (3, 0)
        k44 = HammingParams(4, 4)
        # k = 6 = 3t needs every vertex to keep 6 neighbors inside: one 2-dim sub-layer
        assert ConditionKind.super_degree(6).sublayer_split(k44) == (1, 2)

    def test_super_needs_degree_multiple(self):
        with pytest.raises(UnsupportedError):
            ConditionKind.super_degree(3).sublayer_split(HammingParams(3, 4))

    def test_embedded_dimension_range(self):
        with pytest.raises(DomainError):
            ConditionKind.embedded(4).sublayer_split(HammingParams(2, 4))

    def test_cyclic_infeasible_on_q2(self):
        with pytest.raises(DomainError):
            ConditionKind.cyclic().sublayer_split(HammingParams(2, 2))

    def test_value_validation(self):
        with pytest.raises(DomainError):
            ConditionKind.extra(0)
        with pytest.raises(DomainError):
            ConditionKind("super", -1)
        # super/average allow 0 (vacuous condition)
        assert ConditionKind.super_degree(0).value == 0

    @pytest.mark.parametrize(
        "kind,value", [("extra", 2.5), ("extra", True), ("embedded", False), ("super", "2"),
                       ("average", 2.0), ("isoperimetric", True)]
    )
    def test_rejects_non_integers(self, kind, value):
        with pytest.raises(DomainError):
            ConditionKind(kind, value)

    def test_integer_like_values_become_ints(self):
        class Index:
            def __index__(self):
                return 3

        cond = ConditionKind.extra(Index())
        assert type(cond.value) is int and cond == ConditionKind.extra(3)


class TestConditionalConnectivity:
    @pytest.mark.parametrize("arity", [2, 3, 4, 7, 10])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_grid_formula(self, arity, dim):
        p = HammingParams(arity, dim)
        for t in range(dim):
            expect = (arity - 1) * (dim - t) * arity**t
            conds = [
                ConditionKind.extra(arity**t),
                ConditionKind.embedded(t),
                ConditionKind.super_degree((arity - 1) * t),
                ConditionKind.average_degree((arity - 1) * t),
                ConditionKind.isoperimetric(arity**t),
            ]
            for cond in conds:
                assert conditional_connectivity(cond, p) == expect, (cond, t)

    def test_cyclic_values(self):
        assert conditional_connectivity(ConditionKind.cyclic(), HammingParams(2, 5)) == 12
        assert conditional_connectivity(ConditionKind.cyclic(), HammingParams(3, 4)) == 18
        for arity in (4, 5, 9):
            p = HammingParams(arity, 3)
            expect = 3 * ((arity - 1) * 3 - 2)
            assert conditional_connectivity(ConditionKind.cyclic(), p) == expect

    def test_multi_term_small_theta_uses_boundary_formula(self):
        q4 = HammingParams(2, 4)
        assert conditional_connectivity(ConditionKind.extra(3), q4) == 8

    def test_multi_term_large_theta_value(self):
        q4 = HammingParams(2, 4)
        assert conditional_connectivity(ConditionKind.extra(5), q4) == 8

    def test_theta_above_half_refuses(self):
        with pytest.raises(DomainError):
            conditional_connectivity(ConditionKind.extra(9), HammingParams(2, 4))


class TestExtraScan:
    """extra(h) and isoperimetric(h) for every h against the reference scan."""

    def test_q4_scan_values(self):
        q4 = HammingParams(2, 4)
        # suffix minima of the frozen Q4 profile
        expect = [4, 6, 8, 8, 8, 8, 8, 8]
        assert suffix_minima(q4) == expect
        for h, v in enumerate(expect, start=1):
            for kind in ("extra", "isoperimetric"):
                assert conditional_connectivity(ConditionKind(kind, h), q4) == v

    def test_every_size_matches_scan(self):
        graphs = cells = 0
        for p in small_graphs():
            graphs += 1
            for h, want in enumerate(suffix_minima(p), start=1):
                cells += 1
                for cond in (ConditionKind.extra(h), ConditionKind.isoperimetric(h)):
                    assert conditional_connectivity(cond, p) == want, (str(p), cond)
        assert (graphs, cells) == (244, 232_033)

    @pytest.mark.parametrize("arity,dim", [(2, 63), (1000, 6), (3, 40)])
    def test_largest_graphs(self, arity, dim):
        p = HammingParams(arity, dim)
        half = p.half_size
        first = arity ** (dim // 2) + 1
        for h in (first, (first + half) // 3, half - 1):
            got = [
                conditional_connectivity(ConditionKind(kind, m), p)
                for kind in ("extra", "isoperimetric")
                for m in (h, h + 1)
            ]
            assert got[:2] == got[2:]
            # a suffix minimum: nondecreasing in h and never above xi(h)
            assert got[0] <= got[1] and got[0] <= min_edge_boundary(h, p)
        top = conditional_connectivity(ConditionKind.extra(half), p)
        assert top == min_edge_boundary(half, p)

    def test_domain(self):
        for kind in ("extra", "isoperimetric"):
            with pytest.raises(DomainError):
                conditional_connectivity(ConditionKind(kind, 9), HammingParams(2, 4))


class TestDegreeSumSplit:
    def test_exponent_separated_is_additive(self):
        p = HammingParams(3, 6)
        # every exponent of h1 sits strictly above every exponent of h2
        for h1, h2 in [(81, 9), (90, 8), (189, 12)]:
            total = max_degree_sum(h1 + h2, p)
            parts = max_degree_sum(h1, p) + max_degree_sum(h2, p)
            cross = 2 * sum(
                a1 * a2 * 3**b2
                for a1, _ in decompose(h1, 3).terms
                for a2, b2 in decompose(h2, 3).terms
            )
            assert degree_sum_split(h1, h2, p) == total
            assert total == parts + cross

    @settings(max_examples=200)
    @given(st.data())
    def test_split_equals_pooled_when_separated(self, data):
        arity = data.draw(st.integers(min_value=2, max_value=6))
        dim = data.draw(st.integers(min_value=2, max_value=6))
        p = HammingParams(arity, dim)
        split = data.draw(st.integers(min_value=1, max_value=dim - 1))
        h2 = data.draw(st.integers(min_value=1, max_value=arity**split - 1))
        hi_max = (p.vertex_count - h2) // arity**split
        h1 = arity**split * data.draw(st.integers(min_value=1, max_value=hi_max))
        assert degree_sum_split(h1, h2, p) == max_degree_sum(h1 + h2, p)

    def test_interleaved_exponents_rejected(self):
        p = HammingParams(3, 6)
        with pytest.raises(DomainError, match="interleave"):
            degree_sum_split(27, 90, p)

    def test_domain(self):
        p = HammingParams(2, 3)
        with pytest.raises(DomainError):
            degree_sum_split(0, 4, p)
        with pytest.raises(DomainError):
            degree_sum_split(6, 4, p)  # sum above N
