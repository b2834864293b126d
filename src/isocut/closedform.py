"""Closed-form edge-isoperimetric quantities of Hamming graphs.

Everything here is exact integer arithmetic driven by one object: the base-L
positional decomposition of the set size,

    m = sum_i a_i * L**b_i,   1 <= a_i <= L-1,   b_0 > b_1 > ... > b_s >= 0.

Two primitive quantities are computed from it for K_L^n:

* ``max_degree_sum(m)``: twice the largest number of edges an m-vertex
  induced subgraph can have (the numeric prefix {0..m-1} attains it).
* ``min_edge_boundary(m)``: the smallest number of edges leaving an m-vertex
  set. On Hamming graphs this minimum is the same whether or not either side
  is required to stay connected, and equals degree*m - max_degree_sum(m).

All six conditional edge-connectivities resolve to the least
min_edge_boundary(m) over sizes m from the condition's minimum fragment size
up to floor(N/2), by a digit DP over the same decomposition where no closed
form applies. Python ints are arbitrary precision, so nothing can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import DomainError, UnsupportedError
from .graphs import HammingParams, _integer

CONDITION_KINDS = ("extra", "embedded", "cyclic", "super", "average", "isoperimetric")


@dataclass(frozen=True)
class BaseDecomposition:
    """Base-`base` decomposition of a positive integer, zero digits omitted.

    ``terms`` holds (coefficient, exponent) pairs with strictly decreasing
    exponents, most significant first.
    """

    base: int
    terms: tuple[tuple[int, int], ...]

    @property
    def coefficient_sum(self) -> int:
        return sum(a for a, _ in self.terms)

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def __str__(self) -> str:
        parts = []
        for a, b in self.terms:
            factor = f"{a}*" if a > 1 else ""
            parts.append(f"{factor}{self.base}^{b}" if b else str(a))
        return " + ".join(parts)


def decompose(m: int, base: int) -> BaseDecomposition:
    if type(m) is not int or type(base) is not int:
        m, base = _integer(m, "m"), _integer(base, "base")
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    terms = []
    exponent = 0
    while m:
        m, digit = divmod(m, base)
        if digit:
            terms.append((digit, exponent))
        exponent += 1
    terms.reverse()
    return BaseDecomposition(base, tuple(terms))


def max_degree_sum(m: int, params: HammingParams) -> int:
    """Twice the maximum edge count over all m-vertex induced subgraphs.

    With m = sum a_i L^{b_i}, the numeric prefix {0..m-1} decomposes into
    blocks of parallel sub-layers, and counting its edges gives

        sum_i [ (L-1) a_i b_i + (a_i - 1) a_i ] L^{b_i}
            + 2 * sum_{i<k} a_i a_k L^{b_k}.

    The first bracket is degree sum inside and between the a_i sub-layers of
    block i; the cross term counts the perfect matchings every later (smaller)
    block sends into each earlier one. It is taken in one pass over the
    digits, least significant first, with a running power L^b: the cross
    term is 2 * sum_i a_i * (m mod L^{b_i}), and m mod L^b is the value of
    the digits already read.
    """
    if type(m) is not int:
        m = _integer(m, "m")
    if not 1 <= m <= params.vertex_count:
        raise DomainError(f"m must be in [1, {params.vertex_count}], got {m}")
    arity = params.arity
    total = 0
    low = 0  # m mod L^b
    power = 1  # L^b
    b = 0
    while m:
        m, a = divmod(m, arity)
        if a:
            total += ((arity - 1) * b + a - 1) * a * power + 2 * a * low
            low += a * power
        power *= arity
        b += 1
    return total


def min_edge_boundary(m: int, params: HammingParams) -> int:
    """Minimum edge boundary of an m-vertex set, 1 <= m <= floor(N/2).

    Computed as degree*m - max_degree_sum(m): the one pass over the digits
    inside max_degree_sum is the whole algorithm, each term
    contributing a_i[(L-1)(n-b_i) - (a_i-1) - 2*(running coefficient sum)]
    L^{b_i} to the boundary once the degree sum is subtracted. Cost is one
    term per base-L digit of m.
    """
    if type(m) is not int:
        m = _integer(m, "m")
    if not 1 <= m <= params.half_size:
        raise DomainError(f"m must be in [1, {params.half_size}], got {m}")
    return params.degree * m - max_degree_sum(m, params)


def min_boundary_binary(m: int, dim: int) -> int:
    """Arity-2 reduced form: n*m - sum_i (b_i + 2i) 2^{b_i}.

    Independent of the general expression on purpose; the two are checked
    against each other. The term index i counts from the most significant
    exponent down.
    """
    m = _integer(m, "m")
    params = HammingParams(2, dim)
    if not 1 <= m <= params.half_size:
        raise DomainError(f"m must be in [1, {params.half_size}], got {m}")
    correction = 0
    for i, (_, b) in enumerate(decompose(m, 2).terms):
        correction += (b + 2 * i) << b
    return dim * m - correction


def min_boundary_ternary(m: int, dim: int) -> int:
    """Arity-3 reduced form: 2nm - sum[2 a_i b_i + 2(a_i-1)]3^{b_i} - cross."""
    m = _integer(m, "m")
    params = HammingParams(3, dim)
    if not 1 <= m <= params.half_size:
        raise DomainError(f"m must be in [1, {params.half_size}], got {m}")
    terms = decompose(m, 3).terms
    correction = 0
    for i, (a, b) in enumerate(terms):
        correction += (2 * a * b + 2 * (a - 1)) * 3**b
        correction += 2 * a * sum(ak for ak, _ in terms[:i]) * 3**b
    return 2 * dim * m - correction


def sublayer_block_boundary(g: int, t: int, params: HammingParams) -> int:
    """Boundary of a block of g parallel t-dimensional sub-layers.

    Returns g[(L-1)(n-t) - (g-1)] L^t, the cut left by the first g*L^t
    vertices; equal to min_edge_boundary(g * L^t).
    """
    if type(g) is not int or type(t) is not int:
        g, t = _integer(g, "g"), _integer(t, "t")
    arity, dim = params.arity, params.dim
    if not 0 <= t <= dim - 1:
        raise DomainError(f"t must be in [0, {dim - 1}], got {t}")
    if not 1 <= g <= arity - 1:
        raise DomainError(f"g must be in [1, {arity - 1}], got {g}")
    block = g * arity**t
    if block > params.half_size:
        raise DomainError(
            f"block size {block} exceeds half the graph ({params.half_size})"
        )
    return g * ((arity - 1) * (dim - t) - (g - 1)) * arity**t


@dataclass(frozen=True)
class ConditionKind:
    """One of the six supported conditions on the sides of a cut.

    kind       value        side must ...
    ---------  -----------  ----------------------------------------------
    extra          h >= 1   have at least h vertices
    embedded       t >= 0   contain a t-dimensional sub-layer
    cyclic         -        contain a cycle
    super          k >= 0   induce minimum degree >= k
    average        k >= 0   induce average degree >= k
    isoperimetric  h >= 1   have at least h vertices (sides need not be
                            connected for this one)
    """

    kind: str
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CONDITION_KINDS:
            raise DomainError(f"unknown condition kind {self.kind!r}")
        if self.kind == "cyclic":
            if self.value is not None:
                raise DomainError("cyclic takes no parameter")
            return
        if self.value is None:
            raise DomainError(f"{self.kind} requires a parameter")
        if type(self.value) is not int:
            object.__setattr__(self, "value", _integer(self.value, f"{self.kind} parameter"))
        minimum = 1 if self.kind in ("extra", "isoperimetric") else 0
        if self.value < minimum:
            raise DomainError(f"{self.kind} parameter must be >= {minimum}")

    @classmethod
    def extra(cls, h: int) -> "ConditionKind":
        return cls("extra", h)

    @classmethod
    def embedded(cls, t: int) -> "ConditionKind":
        return cls("embedded", t)

    @classmethod
    def cyclic(cls) -> "ConditionKind":
        return cls("cyclic")

    @classmethod
    def super_degree(cls, k: int) -> "ConditionKind":
        return cls("super", k)

    @classmethod
    def average_degree(cls, k: int) -> "ConditionKind":
        return cls("average", k)

    @classmethod
    def isoperimetric(cls, h: int) -> "ConditionKind":
        return cls("isoperimetric", h)

    def describe(self) -> str:
        return self.kind if self.value is None else f"{self.kind}({self.value})"

    def sublayer_split(self, params: HammingParams) -> tuple[int, int] | None:
        """(g, t) with minimum fragment size g*L^t, when that form applies.

        extra/isoperimetric sizes that are not a single decomposition term
        return None.
        """
        arity, dim = params.arity, params.dim
        if self.kind in ("extra", "isoperimetric"):
            dec = decompose(self.value, arity)
            return dec.terms[0] if dec.is_single_term() else None
        if self.kind == "embedded":
            if not 0 <= self.value <= dim - 1:
                raise DomainError(
                    f"embedded dimension must be in [0, {dim - 1}], got {self.value}"
                )
            return (1, self.value)
        if self.kind in ("super", "average"):
            k = self.value
            if k % (arity - 1) != 0:
                raise UnsupportedError(
                    f"{self.kind}({k}) is only resolved for k a multiple of "
                    f"arity-1 = {arity - 1} (whole sub-layer dimensions)"
                )
            t = k // (arity - 1)
            if t > dim - 1:
                raise DomainError(
                    f"{self.kind}({k}) needs a sub-layer of dimension {t}, "
                    f"but the graph only has {dim}"
                )
            return (1, t)
        # cyclic: the smallest side carrying a cycle is C_4 in a hypercube
        # (a 2-dimensional sub-layer), a triangle = 1-dimensional sub-layer
        # at arity 3, and a triangle inside one clique (3 vertices) above.
        if arity == 2:
            g, t = 1, 2
        elif arity == 3:
            g, t = 1, 1
        else:
            g, t = 3, 0
        if g * arity**t > params.half_size:
            raise DomainError(
                f"cyclic split infeasible on {params}: a side with a cycle "
                f"needs {g * arity**t} vertices, more than half the graph"
            )
        return (g, t)

    def min_fragment_size(self, params: HammingParams) -> int:
        """Smallest vertex count of a side that can satisfy the condition."""
        if self.kind in ("extra", "isoperimetric"):
            return self.value
        g, t = self.sublayer_split(params)
        return g * params.arity**t


def _min_boundary_from(h: int, params: HammingParams) -> int:
    """min of min_edge_boundary(m) over h <= m <= floor(N/2), by a digit DP.

    A nonzero digit a at position b of m adds a[(L-1)(n-b) - (a-1) - 2s]L^b,
    s the sum of the higher digits. Digits are picked most significant first
    with state (digits left, s, prefix equal to h's, to floor(N/2)'s). A
    digit strictly inside its allowed range frees the lower digits; its own
    term is concave in a, and so is the best free completion, a minimum of
    c - 2(s+a)r over completions (c a constant, r their value). The minimum
    over the interior is thus at an end, and trying the range's ends plus
    the digit just inside each tight end is exact. O(n^3) states, at most
    n(n(L-1)+1); a loop rather than min() over a generator halves the cost.
    """
    arity, dim, half = params.arity, params.dim, params.half_size
    power = [arity**b for b in range(dim)]

    @cache
    def best(left: int, s: int, tight_low: bool, tight_high: bool) -> int:
        # least boundary share of the `left` lowest digits, s above them
        if not left:
            return 0
        b = left - 1
        lo = h // power[b] % arity if tight_low else 0
        hi = half // power[b] % arity if tight_high else arity - 1
        base = (arity - 1) * (dim - b) + 1 - 2 * s
        least = None
        # the range's ends, and the digit just inside each tight end
        for a in {lo, hi, min(lo + tight_low, hi), max(hi - tight_high, lo)}:
            rest = best(b, s + a, tight_low and a == lo, tight_high and a == hi)
            value = a * (base - a) * power[b] + rest
            if least is None or value < least:
                least = value
        return least

    return best(dim, 0, True, True)


def conditional_connectivity(cond: ConditionKind, params: HammingParams) -> int:
    """Exact conditional edge-connectivity of K_L^n for the given condition.

    This is the least min_edge_boundary(m) over theta <= m <= floor(N/2),
    theta the condition's minimum fragment size. Single blocks g*L^t and
    theta <= L^floor(n/2) (where the boundary is still nondecreasing in m)
    attain it at m = theta; other extra/isoperimetric sizes take the digit DP.
    """
    theta = cond.min_fragment_size(params)
    if theta > params.half_size:
        raise DomainError(
            f"{cond.describe()} needs fragments of {theta} vertices, "
            f"more than half of {params}"
        )
    split = cond.sublayer_split(params)
    if split is not None:
        g, t = split
        return sublayer_block_boundary(g, t, params)
    if theta <= params.arity ** (params.dim // 2):
        return min_edge_boundary(theta, params)
    return _min_boundary_from(theta, params)


def degree_sum_split(h1: int, h2: int, params: HammingParams) -> int:
    """max_degree_sum(h1 + h2) assembled from the two parts.

    Requires every exponent in h1's decomposition to exceed every exponent in
    h2's (the two digit strings do not overlap, so h1 + h2 concatenates
    them); then the whole is the sum of the parts plus one matching per
    (h1-coefficient, h2-vertex) pair:

        max_degree_sum(h1) + max_degree_sum(h2) + 2 * coefficient_sum(h1) * h2
    """
    h1, h2 = _integer(h1, "h1"), _integer(h2, "h2")
    arity = params.arity
    first = decompose(h1, arity)
    second = decompose(h2, arity)
    if h1 + h2 > params.vertex_count:
        raise DomainError(f"h1 + h2 = {h1 + h2} exceeds the vertex count")
    lowest_first = first.terms[-1][1]
    highest_second = second.terms[0][1]
    if lowest_first <= highest_second:
        raise DomainError(
            f"exponent ranges interleave: {h1} reaches down to L^{lowest_first}, "
            f"{h2} up to L^{highest_second}"
        )
    return (
        max_degree_sum(h1, params)
        + max_degree_sum(h2, params)
        + 2 * first.coefficient_sum * h2
    )
