"""Optimal vertex sets, their sub-layer structure, and cut evaluation.

The boundary-minimizing m-vertex set of K_L^n is simply the numeric prefix
{0..m-1}. Its structure follows the base-L decomposition of m: each term
a_i * L^{b_i} contributes a block of a_i parallel b_i-dimensional sub-layers
(a sub-layer = all vertices sharing a fixed digit prefix). This module builds
both views, counts the prefix's edges from the descriptors alone, and
evaluates cuts on materialized graphs.

The families come from one pass over m's digits, and the census counts per
pair of families in O(families^2 * n + layers). It relies on the family shape
``SubLayerFamily`` documents (one shared head, distinct last digits, one
dimension) and raises ``DomainError`` for a family that breaks it, as it does
for overlapping layers.

Connectivity of a cut's sides is settled by a certificate first and a flood
only where the certificate fails. A side is connected when every member but
an extreme one has a neighbour in the side that is nearer that extreme.
``evaluate_cut`` reads it off the least or greatest neighbour in each row it
reads. For the vertices above a set's greatest member, and for every prefix
and suffix in ``prefix_cut_sweep``, it reads it off ``Graph._order_breaks``:
the least vertex with no smaller neighbour and the greatest with no larger
one, computed in O(N) once per graph and cached on it. So ``evaluate_cut``
costs O(t + the entries of the set's rows), t the set's greatest member,
and the sweep of the first k prefixes O(k + the entries of their rows).
Every prefix and suffix of a Hamming graph or BC network passes, so the
optimal sets and their complements are certified without a flood. Every
other side goes to one BFS, ``_flood``: ``evaluate_cut`` floods the sides
that fail its certificate, and ``prefix_cut_sweep`` hands each prefix size
its certificate cannot settle to ``evaluate_cut``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, repeat, starmap
from operator import gt, itemgetter, lt, ne, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError
from .graphs import _GREATEST, _LEAST, Graph, HammingParams, _integer, format_digits

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
    if type(m) is not int:
        m = _integer(m, "m")
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
    dimension ``free_dims`` (consecutive values in the last fixed digit).

    ``family_census`` relies on this shape and raises ``DomainError`` where a
    family breaks it: every layer has ``free_dims`` free and
    ``dim - free_dims`` fixed coordinates, all layers share every prefix
    digit but the last (the family's head), and their last digits are
    distinct. The whole graph (an empty prefix) is one layer with no last
    digit.
    """

    free_dims: int
    layers: tuple[SubLayer, ...]


def sublayer_families(m: int, params: HammingParams) -> tuple[SubLayerFamily, ...]:
    """Decompose optimal_set(m) into its sub-layer families.

    One pass over m's base-L digits: the digit a > 0 at position b gives the
    family of a layers of dimension b whose prefixes are m's higher digits
    followed by j, for j < a. The layers tile {0..m-1} in order.
    """
    if type(m) is not int:
        m = _integer(m, "m")
    if not 1 <= m <= params.half_size:
        raise DomainError(f"m must be in [1, {params.half_size}], got {m}")
    arity, dim = params.arity, params.dim
    digits = [0] * dim  # most significant first
    top = dim  # index of the leading nonzero digit
    while m:
        top -= 1
        m, digits[top] = divmod(m, arity)
    digits = tuple(digits)
    families = []
    for fixed, a in enumerate(digits[top:], top + 1):
        if a:
            head, free_dims = digits[: fixed - 1], dim - fixed
            layers = tuple(SubLayer(head + (j,), free_dims) for j in range(a))
            families.append(SubLayerFamily(free_dims, layers))
    return tuple(families)


_OVERLAP = "sub-layers overlap; census is only defined for partitions"


def _family_block(
    family: SubLayerFamily, params: HammingParams
) -> tuple[tuple[int, ...] | None, frozenset, int]:
    """(head, last digits, layer size) of a nonempty family of the shape
    ``SubLayerFamily`` documents; the whole graph's head is None."""
    free_dims, layers = family.free_dims, family.layers
    fixed, head = params.dim - free_dims, layers[0].prefix[:-1]
    shape = {(layer.free_dims, len(layer.prefix), layer.prefix[:-1]) for layer in layers}
    if not 0 <= free_dims <= params.dim or shape != {(free_dims, fixed, head)}:
        raise DomainError(
            f"the layers of a family of {free_dims}-dimensional sub-layers of {params} "
            f"must have {fixed} prefix digits and share all but the last"
        )
    if fixed:
        digits = frozenset([layer.prefix[-1] for layer in layers])
    else:
        head, digits = None, frozenset([None])
    if len(digits) < len(layers):
        raise DomainError(_OVERLAP)
    return head, digits, params.arity**free_dims


def family_census(
    families: Iterable[SubLayerFamily], params: HammingParams
) -> dict[str, int]:
    """Count the prefix's internal edges from the descriptors alone.

    Three contributions: edges inside each layer (a b-dimensional layer is
    (arity-1)*b-regular on arity**b vertices), matchings between layers of the
    same family, and matchings between layers of different families. Two
    sub-layers are joined by a perfect matching onto the smaller one when
    their prefixes, the longer trimmed to the shorter's length, differ in
    exactly one position, and by nothing when they differ in more; equal
    trimmed prefixes mean the layers overlap, which raises ``DomainError``.
    Cut size follows by subtracting the degree sum.

    Families must have the shape ``SubLayerFamily`` documents, else
    ``DomainError``, so the census counts per pair of families rather than
    per pair of layers. Within a family each pair of layers is one matching.
    For two families with prefix lengths k1 <= k2, let d0 be the number of
    positions where their heads differ, the longer trimmed to k1 - 1 digits.
    For d0 > 1 nothing matches. Otherwise the second family's digit at
    position k1 decides: a layer of the first family whose last digit equals
    it differs from each second-family layer in d0 positions, every other
    layer in d0 + 1 (for k1 == k2, the pairs of equal last digits play that
    part). The cost is O(families^2 * n + layers).
    """
    arity = params.arity
    blocks = []
    within = same_family = total_vertices = 0
    for family in families:
        if not family.layers:
            continue
        head, digits, size = _family_block(family, params)
        count = len(digits)
        within += count * ((arity - 1) * family.free_dims * size // 2)
        same_family += count * (count - 1) // 2 * size
        total_vertices += count * size
        blocks.append((head, digits, size))
    if len(blocks) > 1 and any(head is None for head, _, _ in blocks):
        raise DomainError(_OVERLAP)  # the whole graph shares the census
    blocks.sort(key=itemgetter(2), reverse=True)  # larger layers, shorter prefixes first
    cross_family = 0
    for i, (head1, digits1, _) in enumerate(blocks):
        for head2, digits2, size2 in blocks[i + 1 :]:
            k = len(head1)
            differing = sum(map(ne, head1, head2))
            if differing > 1:
                continue
            if len(head2) == k:
                matched = len(digits1 & digits2)
            else:
                matched = len(digits2) if head2[k] in digits1 else 0
            if not differing:
                if matched:
                    raise DomainError(_OVERLAP)
                matched = len(digits1) * len(digits2)
            cross_family += matched * size2
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


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # set flags -> complement flags
_GATHER = itemgetter.__call__  # _GATHER(getter, flags) reads the getter's flags


def evaluate_cut(graph: Graph, vertex_set: Iterable[int]) -> CutReport:
    """Exact edge scan of the cut around ``vertex_set``.

    The set must be a nonempty proper subset of the vertices, given as exact
    integer ids (``DomainError`` otherwise); repeated ids count once.
    Component sizes are reported for both sides even when connected.

    With t the set's greatest member, a cut costs O(t + the entries of the
    members' rows), not O(N), once the graph's ``_order_breaks`` is cached:
    no row above t is read unless a side fails its certificate. Membership
    is a ``bytearray`` of flags, and the members are read off its first
    t + 1. The degree sum is ``map(len)`` over the members' rows, and the
    count of entries landing inside the set (twice the internal edges) is
    one ``itemgetter`` gather of flags per row, so the work per adjacency
    entry runs in C. An ``itemgetter`` of one index returns a bare value and
    one of none cannot be built, so each getter also reads the 0 flag at
    index N twice and returns a tuple for rows of every length.

    Each side's parts come from a certificate first and a flood only where
    it fails. The set side is connected when every member but the least has
    its least neighbour (``row[0]``) in the set and below itself: following
    least neighbours from any member then ends at the least member. The
    complement is connected when every member but the greatest has its
    greatest neighbour (``row[-1]``) in the complement and above itself.
    Below t that is a ``map``/``all`` pass over the complement's rows. Above
    t every vertex is in the complement and N-1 is the greatest, so those
    pass iff no vertex in (t, N-1) lacks a larger neighbour: iff
    ``last <= t`` for the graph's cached ``Graph._order_breaks``, computed
    once per graph and shared with ``prefix_cut_sweep``. A side that fails
    its test (a tested member with no neighbours fails it) is split by the
    flag-clearing BFS ``_flood``, so the report is the same either way.
    Every prefix and suffix of a Hamming graph or BC network passes (see
    ``prefix_cut_sweep``), so their optimal sets are never flooded.
    """
    members = list(vertex_set)
    if not members:
        raise DomainError("vertex set is empty")
    if not {int}.issuperset(map(type, members)):
        members = [_integer(v, "vertex id") for v in members]
    n = graph.vertex_count
    top = max(members)
    if min(members) < 0 or top >= n:
        raise DomainError("vertex id out of range")
    flags = bytearray(n + 1)  # flags[n] is the gather's padding, always 0
    for v in members:
        flags[v] = 1
    members = list(compress(range(top + 1), flags))
    if len(members) == n:
        raise DomainError("vertex set must be a proper subset")
    adjacency = graph.adjacency
    rows = list(map(adjacency.__getitem__, members))
    degree_sum = sum(map(len, rows))
    getters = starmap(partial(itemgetter, n, n), rows)
    inside = sum(map(sum, map(_GATHER, getters, repeat(flags))))

    # complement members below the top, all of them when the top is N-1
    lower = list(compress(range(top), flags[:top].translate(_FLIP)))
    if top < n - 1:
        above_passes = graph._order_breaks[1] <= top
    else:
        above_passes, lower = True, lower[:-1]  # all but the greatest
    rows_below = map(adjacency.__getitem__, lower)
    if above_passes and _chained(flags, lower, rows_below, _GREATEST, gt, 0):
        comp_parts = (n - len(members),)
    else:
        comp_parts = tuple(map(len, _flood(adjacency, flags[:n].translate(_FLIP))))
    if _chained(flags, members[1:], rows[1:], _LEAST, lt, 1):
        side_parts = (len(members),)
    else:
        side_parts = tuple(map(len, _flood(adjacency, flags)))
    return CutReport(
        set_size=len(members),
        cut_size=degree_sum - inside,
        internal_edges=inside // 2,
        side_connected=len(side_parts) == 1,
        complement_connected=len(comp_parts) == 1,
        set_component_sizes=side_parts,
        complement_component_sizes=comp_parts,
    )


def _flood(adjacency: Sequence[Sequence[int]], flags: bytearray) -> Iterator[list[int]]:
    """Components of the vertices whose flag is set, by least member; clears
    the flags.

    Roots are read in ascending order straight off the flags, so each part
    starts at its least member and no pool is searched for a minimum. Each
    part grows one BFS level at a time: the level's adjacency entries are
    gathered into a set in C, so Python tests each reached vertex once, not
    each entry. A part is returned unsorted.
    """
    for root in compress(range(len(flags)), flags):
        flags[root] = 0
        part = [root]
        level = part
        while level:
            reached = set(chain.from_iterable(map(adjacency.__getitem__, level)))
            level = [u for u in reached if flags[u]]
            for u in level:
                flags[u] = 0
            part += level
        yield part


def _chained(
    flags: bytearray, members: list[int], rows: Iterable, end, toward, side: int
) -> bool:
    """Whether each of ``members`` has its ``end`` neighbour in its row
    on ``side`` (the flag value of that side) and ``toward(neighbour,
    member)``; False for an empty row."""
    try:
        ends = list(map(end, rows))
    except IndexError:  # an isolated member
        return False
    if not all(map(toward, ends, members)):
        return False
    return bytes(map(flags.__getitem__, ends)).count(side) == len(ends)


class SweepRow(NamedTuple):
    size: int
    cut_size: int
    internal_edges: int
    side_connected: bool
    complement_connected: bool


def prefix_cut_sweep(graph: Graph, max_size: int | None = None) -> list[SweepRow]:
    """Cut census of every prefix {0..m-1} for m = 1..max_size in
    O(max_size + the entries of the first max_size rows), plus O(N) once
    per graph for its ``_order_breaks``.

    With sorted rows, ``earlier[v] = bisect_left(adjacency[v], v)`` counts the
    neighbours below v, so vertex v adds ``earlier[v]`` internal edges and
    ``degree - 2*earlier[v]`` to the cut as it joins the prefix. Both columns
    run over the first max_size vertices only.

    Connectivity uses a certificate first. A prefix is connected while every
    v > 0 in it has a smaller neighbour, and a suffix {m..N-1} while every
    v < N-1 in it has a larger one. ``Graph._order_breaks`` holds ``first``,
    the least v > 0 with no smaller neighbour, and ``last``, the greatest
    v < N-1 with no larger one, computed once per graph in O(N) and shared
    with ``evaluate_cut``. Size m is settled by the certificate unless
    m > ``first`` or m <= ``last``; each such size takes both flags from
    ``evaluate_cut(graph, range(m))`` at O(m + the entries of its rows)
    apiece, plus a flood of a side that fails.

    Hamming graphs pass both: v > 0 reaches a smaller vertex by zeroing a
    nonzero digit, and v < N-1 a larger one by raising a digit below
    arity-1. So do BC networks, by induction on the level: each half is a
    smaller BC network, and the matching joins the upper half's least vertex
    to a smaller one and the lower half's greatest to a larger one. There
    every size is settled and ``evaluate_cut`` never runs.
    """
    n = graph.vertex_count
    max_size = n // 2 if max_size is None else _integer(max_size, "max_size")
    if not 1 <= max_size <= n - 1:
        raise DomainError(f"max_size must be in [1, {n - 1}], got {max_size}")
    adjacency = graph.adjacency
    earlier = list(map(bisect_left, adjacency, range(max_size)))
    later = map(sub, map(len, adjacency), earlier)
    internals = list(accumulate(earlier))
    cuts = list(accumulate(map(sub, later, earlier)))

    set_connected = [True] * max_size
    suffix_connected = [True] * max_size
    first, last = graph._order_breaks
    unsettled = chain(
        range(1, min(last, max_size) + 1), range(max(first, last) + 1, max_size + 1)
    )
    for m in unsettled:
        report = evaluate_cut(graph, range(m))
        set_connected[m - 1] = report.side_connected
        suffix_connected[m - 1] = report.complement_connected

    # tuple.__new__ builds each row in C, skipping the NamedTuple's Python __new__
    columns = zip(range(1, max_size + 1), cuts, internals, set_connected, suffix_connected)
    return list(map(partial(tuple.__new__, SweepRow), columns))
