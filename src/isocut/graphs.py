"""Graph generators, vertex-string coding and the edge-list writer for
Hamming and BC networks.

Vertices are dense integers 0..N-1. A Hamming graph K_L^n has N = L**n
vertices; vertex ids are read as L-base n-digit strings (most significant
digit first), and two vertices are adjacent iff their strings differ in
exactly one position. Bijective-connection (BC) networks are built by
recursive doubling: two copies of the previous level joined by a perfect
matching. So the level-k matching joins the two halves of every block of
2^(k+1) ids, and a BC row sorts like a hypercube row: the partners at the
levels where the vertex has a 1 bit, highest level first, then those where
it has a 0 bit, lowest level first.

Both builders split the id's digits (or bits) into a high part h and a
low part, so the ids of one h form a block, and write each block's sorted
rows with one C-level ``zip`` (``_block_rows``). Every entry is the one
int object of a shared ``list(range(N))``.

This module builds, codes and writes graphs. The connectivity of vertex
sets is settled in ``construct``; a ``Graph`` only caches the part of its
certificate that depends on the graph alone (``Graph._order_breaks``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import eq, gt, index, itemgetter, lt, not_
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CapError, DomainError

NATIVE_UINT_MAX = 2**64 - 1

# Materialization guard, not a formula guard: closed forms never build the graph.
DEFAULT_VERTEX_CAP = 10**6

MATCHING_POLICIES = ("identity", "reversal", "seeded_random")

_LEAST, _GREATEST = itemgetter(0), itemgetter(-1)  # a sorted row's end neighbours


def _integer(value: object, name: str) -> int:
    """``value`` as an exact int; DomainError for a bool or a non-integer."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return index(value)


@dataclass(frozen=True)
class HammingParams:
    """The pair (arity, dim) identifying the Hamming graph K_arity^dim."""

    arity: int
    dim: int

    def __post_init__(self) -> None:
        if type(self.arity) is not int or type(self.dim) is not int:
            object.__setattr__(self, "arity", _integer(self.arity, "arity"))
            object.__setattr__(self, "dim", _integer(self.dim, "dim"))
        if self.arity < 2:
            raise DomainError(f"arity must be >= 2, got {self.arity}")
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        # the first test settles large inputs before any huge power is computed
        if (
            self.dim * (self.arity.bit_length() - 1) >= 64
            or self.arity**self.dim > NATIVE_UINT_MAX
        ):
            raise DomainError(
                f"vertex count {self.arity}**{self.dim} exceeds the native 64-bit range"
            )

    @property
    def vertex_count(self) -> int:
        return self.arity**self.dim

    @property
    def degree(self) -> int:
        """Common degree (arity-1)*dim of every vertex."""
        return (self.arity - 1) * self.dim

    @property
    def half_size(self) -> int:
        """floor(N/2), the largest size a small side of a cut can have."""
        return self.vertex_count // 2

    def __str__(self) -> str:
        return f"K_{self.arity}^{self.dim}"


def encode(vertex: int, params: HammingParams) -> tuple[int, ...]:
    """Digits of a vertex id, most significant first."""
    vertex = _integer(vertex, "vertex")
    if not 0 <= vertex < params.vertex_count:
        raise DomainError(f"vertex {vertex} out of range for {params}")
    digits = []
    for _ in range(params.dim):
        vertex, d = divmod(vertex, params.arity)
        digits.append(d)
    digits.reverse()
    return tuple(digits)


def format_digits(digits: Sequence[int], arity: int) -> str:
    """Compact string form: '0021' when digits fit one character each."""
    if not all(0 <= _integer(d, "digit") < arity for d in digits):
        raise DomainError(f"digits {tuple(digits)} out of range for arity {arity}")
    if arity <= 10:
        return "".join(str(d) for d in digits)
    return ".".join(str(d) for d in digits)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with sorted adjacency lists.

    Views derived from the rows are cached on first use, once per graph:
    ``edge_count``, the oracle's ``neighbor_masks``, and ``_order_breaks``,
    the vertex-order certificate that ``construct.evaluate_cut`` and
    ``construct.prefix_cut_sweep`` share.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    label: str = "custom"

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks; the oracle's working representation."""
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adjacency)

    @cached_property
    def _order_breaks(self) -> tuple[int, int]:
        """(first, last): the least v > 0 with no smaller neighbour, else N,
        and the greatest v < N-1 with no larger neighbour, else -1.

        The certificate of the vertex order that ``construct`` reads: a
        prefix {0..m-1} is connected when m <= first, and every vertex of a
        suffix {m..N-1} but N-1 has a larger neighbour when m > last. With
        sorted rows, v has no smaller (larger) neighbour iff ``row[0] > v``
        (``row[-1] < v``), one ``map`` pass each, so the per-vertex work
        runs in C. An isolated vertex has neither, and its empty row has no
        ends: then ``bisect_left(row, v)``, the neighbours below v, decides,
        as 0 for no smaller neighbour and the row's length for no larger.
        """
        n, adjacency = self.vertex_count, self.adjacency
        ids = range(n)
        try:
            no_smaller = bytes(map(gt, map(_LEAST, adjacency), ids))
            no_larger = bytes(map(lt, map(_GREATEST, adjacency), ids))
        except IndexError:  # an isolated vertex
            earlier = list(map(bisect_left, adjacency, ids))
            no_smaller = bytes(map(not_, earlier))
            no_larger = bytes(map(eq, earlier, map(len, adjacency)))
        first = no_smaller.find(1, 1)
        return n if first < 0 else first, no_larger.rfind(1, 0, n - 1)


def _check_cap(n_vertices: int, max_vertices: int) -> None:
    max_vertices = _integer(max_vertices, "max_vertices")
    if n_vertices > max_vertices:
        raise CapError(
            f"{n_vertices} vertices exceed the cap of {max_vertices}; "
            "raise max_vertices to materialize this graph"
        )


def hamming_graph(params: HammingParams, max_vertices: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Materialize K_arity^dim.

    Vertex u is adjacent to u + (e - d) * arity**p for every digit position p
    (current digit d) and every other digit value e. Rows come out sorted
    with no sort, one block of ids per ``zip``: see ``_hamming_rows``. Every
    entry is taken from one shared ``ids = list(range(N))``, so all rows
    hold a single int object per vertex.
    """
    n_vertices = params.vertex_count
    _check_cap(n_vertices, max_vertices)
    ids = list(range(n_vertices))
    adjacency = tuple(_hamming_rows(params.arity, params.dim, ids))
    return Graph(n_vertices, adjacency, label=f"hamming({params.arity},{params.dim})")


def _hamming_rows(arity: int, dim: int, ids: list[int]) -> list[tuple[int, ...]]:
    """Sorted neighbour rows of K_arity^dim, with entries taken from ``ids``.

    A neighbour that lowers digit p by some amount is below every neighbour
    that changes a lower digit only, and a neighbour that raises digit p is
    above them: a change at position p moves the id by between arity**p and
    (arity-1)*arity**p. Split the digits into a high part h and a low part r
    of ``size = arity**low`` values, so v = h*size + r. Then the sorted row
    of v is

        [u*size + r for neighbours u < h of h in K_arity^(dim-low)]
      + [h*size + w for neighbours w of r in K_arity^low]
      + [u*size + r for neighbours u > h of h],

    each piece sorted, so ``_block_rows`` writes block h with the id blocks
    ``ids[u*size:(u+1)*size]`` of h's neighbours u as the outer columns.
    For dim 1 (the clique K_arity) each row is two slices of ``ids``.
    """
    if dim == 1:
        return [(*ids[:v], *ids[v + 1 : arity]) for v in range(arity)]
    low = dim // 2
    size = arity**low
    blocks = [ids[u * size : (u + 1) * size] for u in range(arity ** (dim - low))]
    sides = (
        ([blocks[u] for u in row if u < h], [blocks[u] for u in row if u > h])
        for h, row in enumerate(_hamming_rows(arity, dim - low, ids))
    )
    return _block_rows(_hamming_rows(arity, low, ids), ids, sides)


def _block_rows(small_rows: list[tuple], ids: list[int], sides: Iterable) -> list[tuple]:
    """Sorted rows of the graph in which v = h*size + r, ``size =
    len(small_rows)``, has the entries at r of its ``below`` columns, then
    ``h*size + w`` for w in ``small_rows[r]``, then the entries at r of its
    ``above`` columns; ``sides`` yields one (below, above) pair of size-long
    columns per block h, in order. One ``itemgetter`` per position of the
    small rows, built once, takes that position for every r of a block, so
    a block's rows are one ``zip`` and the per-entry work runs in C.
    """
    size = len(small_rows)
    middle = [itemgetter(*column) for column in zip(*small_rows)]
    rows = []
    for h, (below, above) in enumerate(sides):
        block = ids[h * size : (h + 1) * size]
        rows += zip(*below, *[column(block) for column in middle], *above)
    return rows


def bc_network(
    dim: int,
    matching_policy: str = "identity",
    seed: int = 0,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> Graph:
    """Build an n-dimensional bijective-connection network.

    Level 1 is a single edge; level k joins two copies of level k-1 by a
    perfect matching chosen by ``matching_policy``:

    * ``identity``: vertex i of copy 0 matches vertex i of copy 1; this
      reproduces the hypercube K_2^dim exactly.
    * ``reversal``: vertex i matches vertex (size-1-i).
    * ``seeded_random``: a uniformly shuffled matching per level, drawn from
      CPython's ``random.Random(seed)`` (Mersenne Twister, Fisher-Yates
      shuffle), so graphs are reproducible given the seed.

    Since later levels copy the whole graph, the matching M drawn when the
    size is 2^k joins the two halves of every block of 2^(k+1) ids. Rows
    come out sorted with no sort: see ``_bc_rows``. Every entry is taken
    from one shared ``ids = list(range(N))``, so all rows hold a single int
    object per vertex.
    """
    dim = _integer(dim, "dim")
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if dim >= 64:
        raise DomainError(f"vertex count 2**{dim} exceeds the native 64-bit range")
    if matching_policy not in MATCHING_POLICIES:
        raise DomainError(f"unknown matching policy {matching_policy!r}")
    seed = _integer(seed, "seed")
    _check_cap(2**dim, max_vertices)
    rng = random.Random(seed) if matching_policy == "seeded_random" else None
    patterns = []
    for k in range(dim):
        size = 2**k
        if matching_policy == "identity":
            matching = range(size)
        elif matching_policy == "reversal":
            matching = range(size - 1, -1, -1)
        else:
            matching = list(range(size))
            rng.shuffle(matching)
        inverse = sorted(range(size), key=matching.__getitem__)
        patterns.append([*map(size.__add__, matching), *inverse])
    ids = list(range(2**dim))
    label = f"bc({dim},{matching_policy}"
    if matching_policy == "seeded_random":
        label += f",seed={seed}"
    label += ")"
    return Graph(len(ids), tuple(_bc_rows(patterns, ids)), label=label)


def _bc_rows(patterns: list[list[int]], ids: list[int]) -> list[tuple[int, ...]]:
    """Sorted neighbour rows of the BC network whose level-k partner pattern
    is ``patterns[k]``, with entries taken from ``ids``.

    ``patterns[k]`` maps each position of a block of 2^(k+1) ids to its
    partner's position: r < 2^k to 2^k + M[r], and 2^k + j to M^-1[j]. The
    level-k partner u of v lies in the other half of v's block, so u < v
    iff bit k of v is 1, and the partners on either side are ordered by
    level: the sorted row of v is its partners at the levels where bit k is
    1, in descending k, then those where it is 0, in ascending k (the
    hypercube's order).

    Split the levels at ``low = dim // 2``, so v = h*size + r with
    ``size = 2**low``. Each size-block is a copy of the dim-low network, so
    the middle of v's row (its partners below level low) is that network's
    row r inside the block. Each level k >= low is one partner list over
    all ids, one ``itemgetter`` per block of 2^(k+1); which lists go below
    the middle and which above depends on h only, so ``_block_rows`` takes
    their slices over block h as the outer columns. For dim 1 the rows are
    two single ids.
    """
    dim = len(patterns)
    if dim == 1:
        return [(ids[1],), (ids[0],)]
    low = dim // 2
    size = 2**low
    n_vertices = 2**dim
    partners = []
    for k in range(low, dim):
        width = 2 ** (k + 1)
        pick = itemgetter(*patterns[k])
        blocks = (ids[b : b + width] for b in range(0, n_vertices, width))
        partners.append(list(chain.from_iterable(map(pick, blocks))))
    high = range(dim - low)
    sides = (
        ([partners[j][h * size : (h + 1) * size] for j in reversed(high) if h >> j & 1],
         [partners[j][h * size : (h + 1) * size] for j in high if not h >> j & 1])
        for h in range(n_vertices // size)
    )
    return _block_rows(_bc_rows(patterns[:low], ids), ids, sides)


# --- edge-list text format ---------------------------------------------------

def write_edge_list(graph: Graph, path: str | Path) -> None:
    lines = [f"# vertices={graph.vertex_count} edges={graph.edge_count} label={graph.label}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    Path(path).write_text("\n".join(lines) + "\n")
