"""Small graphs shared by the oracle and construction tests, the ungated
walker the oracle tests compare the oracle's walker against, and a counting
stand-in for the oracle's visitor factories.

Pytest puts this directory on sys.path for every test module here, so
`from helpers import ...` works whether one file or the whole suite runs.
"""

import itertools
import random

from isocut import oracle
from isocut.errors import SubsetBudgetError
from isocut.graphs import Graph

# the factories as imported, before any test patches them
VISITORS = {
    name: getattr(oracle, name)
    for name in ("_profile_visitor", "_cut_visitor", "_partition_visitor")
}


def graph_from_edges(n, edges, label):
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in adjacency), label=label)


def set_components(graph, within):
    """Reference components, each sorted, ordered by least member:
    repeatedly flood from the least vertex left."""
    pool = set(within)
    out = []
    while pool:
        root = min(pool)
        pool.discard(root)
        comp, stack = [root], [root]
        while stack:
            for u in graph.adjacency[stack.pop()]:
                if u in pool:
                    pool.discard(u)
                    comp.append(u)
                    stack.append(u)
        out.append(sorted(comp))
    return out


def relabelled(graph, seed):
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges()}
    return graph_from_edges(graph.vertex_count, edges, f"{graph.label}-relabelled")


def pocket_graph():
    """K6 core with three pendant triangles; separates the three modes.

    At m = 6 the best unrestricted set is two whole triangles (cut 2,
    disconnected), the best connected set is the core (cut 3), and the core's
    complement falls apart, pushing the bilateral optimum higher still.
    Vertex 5 has no larger neighbour.
    """
    edges = list(itertools.combinations(range(6), 2))
    for base in (6, 9, 12):
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    edges += [(0, 6), (1, 9), (2, 12)]
    return graph_from_edges(15, edges, "pocket")


def ungated_walker(rows, degrees, max_m, visit, bound, tally, limit=None):
    """The oracle's walker without its bound gate or its prune: a drop-in
    for ``oracle._walker`` that ignores bound, limit and lb, visits every
    state it grows and grows the last level by recursion. Each state it
    grows takes one from tally[0]; the caller takes one for the root, as
    with the oracle's."""

    def grow(mask, ext, seen, size, cut, internal, lb=0):
        visit(mask, size, cut, internal)
        if size == max_m:
            return
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            tally[0] -= 1
            if tally[0] < 0:
                raise SubsetBudgetError("rooted growth exceeded the states left in the budget")
            common = (rows[v] & mask).bit_count()
            fresh = rows[v] & ~seen
            grow(
                mask | low,
                ext | fresh,
                seen | fresh,
                size + 1,
                cut + degrees[v] - 2 * common,
                internal + common,
            )

    return grow


def counted_visitor(name, path, state, tally):
    """The oracle's visitor factory `name`, called after its name is appended
    to the file at path. Bound with functools.partial it pickles, so a call
    in a worker process is counted like one in the caller."""
    with open(path, "a") as log:
        log.write(name + "\n")
    return VISITORS[name](state, tally)
