"""Optimal vertex sets, their sub-layer structure, and cut evaluation.

The boundary-minimizing m-vertex set of K_L^n is simply the numeric prefix
{0..m-1}. Its structure follows the base-L decomposition of m: each term
a_i * L^{b_i} contributes a block of a_i parallel b_i-dimensional sub-layers
(a sub-layer = all vertices sharing a fixed digit prefix). This module builds
both views, counts the prefix's edges from the descriptors alone, and
evaluates arbitrary cuts on materialized graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .closedform import decompose
from .errors import DomainError
from .graphs import Graph, HammingParams, components, encode, format_digits

__all__ = [
    "SubLayer",
    "SubLayerFamily",
    "CutReport",
    "SweepRow",
    "optimal_set",
    "sublayer_families",
    "family_census",
    "evaluate_cut",
    "prefix_cut_sweep",
]


def optimal_set(m: int, params: HammingParams) -> frozenset[int]:
    """The first m vertex ids, a boundary-minimizing set for every valid m."""
    if not 1 <= m <= params.half_size:
        raise DomainError(f"m must be in [1, {params.half_size}], got {m}")
    return frozenset(range(m))


@dataclass(frozen=True)
class SubLayer:
    """All vertices whose leading digits equal ``prefix``; ``free_dims`` low
    coordinates run over every value. Induces a copy of K_arity^free_dims."""

    prefix: tuple[int, ...]
    free_dims: int

    def label(self, params: HammingParams) -> str:
        body = format_digits(self.prefix, params.arity)
        return body + "X" * self.free_dims if params.arity <= 10 else (
            body + ".X" * self.free_dims
        )


@dataclass(frozen=True)
class SubLayerFamily:
    """One decomposition block: ``len(layers)`` parallel sub-layers of
    dimension ``free_dims`` (consecutive values in the last fixed digit)."""

    free_dims: int
    layers: tuple[SubLayer, ...]


def sublayer_families(m: int, params: HammingParams) -> tuple[SubLayerFamily, ...]:
    """Decompose optimal_set(m) into its sub-layer families.

    Family i carries a_i layers of dimension b_i; the layers tile {0..m-1} in
    order, so each descriptor's prefix is read straight off its first vertex.
    """
    if not 1 <= m <= params.half_size:
        raise DomainError(f"m must be in [1, {params.half_size}], got {m}")
    arity, dim = params.arity, params.dim
    families = []
    offset = 0
    for a, b in decompose(m, arity).terms:
        size = arity**b
        layers = []
        for j in range(a):
            start = offset + j * size
            layers.append(SubLayer(encode(start, params)[: dim - b], b))
        families.append(SubLayerFamily(b, tuple(layers)))
        offset += a * size
    return tuple(families)


def _matching_size(one: SubLayer, other: SubLayer, params: HammingParams) -> int:
    """Edges between two disjoint sub-layers: a perfect matching onto the
    smaller one when their prefixes differ in exactly one readable position,
    nothing otherwise."""
    if one.free_dims < other.free_dims:
        one, other = other, one
    short = len(one.prefix)
    trimmed = other.prefix[:short]
    differing = sum(1 for x, y in zip(one.prefix, trimmed) if x != y)
    if differing == 0:
        raise DomainError("sub-layers overlap; census is only defined for partitions")
    if differing == 1:
        return params.arity**other.free_dims
    return 0


def family_census(
    families: Iterable[SubLayerFamily], params: HammingParams
) -> dict[str, int]:
    """Count the prefix's internal edges from the descriptors alone.

    Three contributions: edges inside each layer (a b-dimensional layer is
    (arity-1)*b-regular on arity**b vertices), matchings between layers of the
    same family, and matchings from each layer into every layer of earlier
    (higher-dimensional) families. Cut size follows by subtracting the degree
    sum.
    """
    flat: list[tuple[int, SubLayer]] = []
    within = 0
    total_vertices = 0
    for index, family in enumerate(families):
        for layer in family.layers:
            flat.append((index, layer))
            size = params.arity**layer.free_dims
            within += (params.arity - 1) * layer.free_dims * size // 2
            total_vertices += size
    same_family = 0
    cross_family = 0
    for i in range(len(flat)):
        fam_i, layer_i = flat[i]
        for j in range(i + 1, len(flat)):
            fam_j, layer_j = flat[j]
            edges = _matching_size(layer_i, layer_j, params)
            if fam_i == fam_j:
                same_family += edges
            else:
                cross_family += edges
    internal = within + same_family + cross_family
    return {
        "within_layers": within,
        "same_family_matchings": same_family,
        "cross_family_matchings": cross_family,
        "internal_edges": internal,
        "cut_size": params.degree * total_vertices - 2 * internal,
    }


@dataclass(frozen=True)
class CutReport:
    """Full census of one bipartition (set side vs complement side)."""

    set_size: int
    cut_size: int
    internal_edges: int
    side_connected: bool
    complement_connected: bool
    set_component_sizes: tuple[int, ...]
    complement_component_sizes: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "set_size": self.set_size,
            "cut_size": self.cut_size,
            "internal_edges": self.internal_edges,
            "side_connected": self.side_connected,
            "complement_connected": self.complement_connected,
            "component_sizes": {
                "set": list(self.set_component_sizes),
                "complement": list(self.complement_component_sizes),
            },
        }


def evaluate_cut(graph: Graph, vertex_set: Iterable[int]) -> CutReport:
    """Exact edge scan of the cut around ``vertex_set``.

    The set must be a nonempty proper subset of the vertices. Component sizes
    are reported for both sides even when connected.
    """
    side = frozenset(vertex_set)
    if not side:
        raise DomainError("vertex set is empty")
    if not all(0 <= v < graph.vertex_count for v in side):
        raise DomainError("vertex id out of range")
    if len(side) == graph.vertex_count:
        raise DomainError("vertex set must be a proper subset")
    internal = 0
    cut = 0
    for v in side:
        for u in graph.adjacency[v]:
            if u in side:
                internal += 1
            else:
                cut += 1
    internal //= 2
    complement = [v for v in range(graph.vertex_count) if v not in side]
    side_parts = tuple(len(c) for c in components(graph, side))
    comp_parts = tuple(len(c) for c in components(graph, complement))
    return CutReport(
        set_size=len(side),
        cut_size=cut,
        internal_edges=internal,
        side_connected=len(side_parts) == 1,
        complement_connected=len(comp_parts) == 1,
        set_component_sizes=side_parts,
        complement_component_sizes=comp_parts,
    )


class SweepRow(NamedTuple):
    size: int
    cut_size: int
    internal_edges: int
    side_connected: bool
    complement_connected: bool


class _UnionFind:
    __slots__ = ("parent", "groups")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.groups = 0

    def add(self) -> None:
        self.groups += 1

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.groups -= 1


def prefix_cut_sweep(graph: Graph, max_size: int | None = None) -> list[SweepRow]:
    """Cut census of every prefix {0..m-1} for m = 1..max_size in O(E) total.

    One forward union-find pass tracks set-side connectivity, one backward
    pass tracks complement connectivity, and the cut/internal counters update
    incrementally as each vertex joins its side.
    """
    n = graph.vertex_count
    if max_size is None:
        max_size = n // 2
    if not 1 <= max_size <= n - 1:
        raise DomainError(f"max_size must be in [1, {n - 1}], got {max_size}")

    forward = _UnionFind(n)
    set_connected = []
    cut = 0
    internal = 0
    cuts = []
    internals = []
    for v in range(max_size):
        forward.add()
        earlier = 0
        for u in graph.adjacency[v]:
            if u < v:
                earlier += 1
                forward.union(u, v)
        internal += earlier
        cut += graph.degree(v) - 2 * earlier
        set_connected.append(forward.groups == 1)
        cuts.append(cut)
        internals.append(internal)

    backward = _UnionFind(n)
    suffix_connected = [False] * (max_size + 1)
    for v in range(n - 1, -1, -1):
        backward.add()
        for u in graph.adjacency[v]:
            if u > v:
                backward.union(u, v)
        if v <= max_size:
            suffix_connected[v] = backward.groups == 1

    return [
        SweepRow(m, cuts[m - 1], internals[m - 1], set_connected[m - 1], suffix_connected[m])
        for m in range(1, max_size + 1)
    ]
