"""Small graphs shared by the oracle and construction tests.

Pytest puts this directory on sys.path for every test module here, so
`from helpers import ...` works whether one file or the whole suite runs.
"""

import itertools
import random

from isocut.graphs import parse_edge_list


def graph_from_edges(n, edges, label):
    lines = [f"# vertices={n} edges={len(edges)} label={label}"]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    return parse_edge_list("\n".join(lines) + "\n")


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
