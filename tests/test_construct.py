"""Optimal-set construction and materialized cut reports."""

import pytest
from hypothesis import given, settings, strategies as st

from isocut.closedform import decompose, max_degree_sum, min_edge_boundary
from isocut.construct import (
    evaluate_cut,
    family_census,
    optimal_set,
    prefix_cut_sweep,
    sublayer_families,
)
from isocut.errors import DomainError
from isocut.graphs import HammingParams, encode, hamming_graph


@pytest.fixture(scope="module")
def q4():
    return hamming_graph(HammingParams(2, 4))


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

    def test_clique_row_values(self):
        g = hamming_graph(HammingParams(7, 1))
        rows = prefix_cut_sweep(g)
        assert [(r.size, r.cut_size) for r in rows] == [(1, 6), (2, 10), (3, 12)]
