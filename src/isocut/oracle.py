"""Exhaustive ground truth for boundary minima and conditional connectivity.

Everything here enumerates, on purpose: these routines certify the closed
forms on graphs small enough to brute-force, so they avoid sharing any code
or idea with the formula side. Working notes on the engines:

* Subsets are Python int bitmasks; ``int.bit_count`` does the counting work,
  so the same code covers <= 128 vertices and beyond without a special path.
* There are two enumerators. The fixed-size scan (minima with no
  connectivity constraint) walks index-increasing combinations depth-first.
  That order IS lexicographic order of the sorted vertex tuples, so keeping
  the first optimum seen yields the canonical (lexicographically least)
  witness for free. Only its inner loop differs from the walker's, and it
  stays for that loop: on the pruned tasks of K_5^2 up to size 8 (176,680
  sets) the walker from a free start with per-size minima takes 38-39 ms
  against the scan's 30 ms, and on K_3^3 up to size 6 5.0 ms against
  3.5 ms (serial medians, Python 3.11, one core). It takes the free
  walker's tasks, whose ext there is every vertex above the set's largest,
  takes each task's sets from its share's tally before it scans them, as
  the walker takes a node's children, and returns the profile visitor's
  per-size entries, so one reduction builds every profile.
* One walker, rooted growth in the style of ESU (Wernicke 2006), does every
  other enumeration: each set is produced exactly once, grown from its
  least vertex, connected along the rows it is given or, from a "free"
  start, arbitrary. It hands a state ``(mask, size, cut, internal)`` to a
  visitor only when cut <= bound[size], where bound is a per-size list
  that the visitor owns and lowers as it improves: the profile visitor
  keeps one per-size profile, over the connected sets or over those whose
  complement is connected too (when both sides must be), with bound[size]
  its best cut at that size; the cut visitor keeps the best qualifying
  bipartition for conditional connectivity, with its best cut at every
  size, and gates its expensive checks (complement connectivity, side
  predicates) behind it. Each visitor keeps its own full test, so the gate
  only skips states the visitor would reject: on K_5^2 the connected and
  the bilateral profile up to size 8 each walk 87,798 states and visit
  234, and the two-part scans of the 52 feasible conditions on K_4^2 and
  K_2^4 walk 1,126,906 and visit 26,841. A state is counted when its
  parent grows it, and a child with nothing to grow, every child at the
  last level (size max_m) among them, is visited in the parent's loop,
  with no call of its own.
  A task is a walker state, and takes that state's subtree: the state
  with ext = 0 is its set alone. One rule, ``_split``, turns a node into
  its set alone and one task per extension, each child grown as the
  walker grows it; a node with no extension within max_m stays one task.
  A root's tasks are ``_split`` of its node, so no caller handles
  singletons and no task is empty.
* Witnesses stay bitmasks until they leave the oracle, and one rule,
  ``_lex_less``, orders them as sorted vertex tuples: with d the least
  vertex in a ^ b, the set holding d is the lesser one, unless the other
  set has no vertex above d (it is then a prefix of the first). Integer
  order of the masks would be wrong: {1,2} -> 6 is below {0,3} -> 9 but
  sorts after it. Growth order is not lexicographic, so the visitors and
  the reduction ``_least`` over (cut, mask, size) entries break every tie
  by this rule; the tasks' results then combine in any order.
* The two-part property check peels unordered partitions part by part,
  each part grown by the walker from the least vertex left, inside what
  is left: rows masked to that pool, so a part's cut counts only its edges
  into the pool, and a free start for isoperimetric parts. The partition
  visitor prunes by a cut budget at every part, its bound at every size
  the budget less the cut of the parts already peeled, and starts the next
  peel; it runs the first part through the task runner like the other
  visitors, and nested peels draw on the same share's state tally.
* On a graph that ``_orbit_minima`` certifies vertex-transitive, every
  engine visits only sets that contain vertex 0, pruned further by one
  task rule, ``_tasks``. Every condition here is invariant under
  automorphisms, so some optimal side contains 0, and the
  lexicographically least optimal side does: a tuple starting with 0 is
  less than any that does not. The same certificate yields a group H of
  automorphisms fixing 0 (digit-position swaps and value swaps of the
  base-L reading, each kept only if it is one). The least optimal side's
  second vertex v is least in its H-orbit, or some h in H would map the
  side to a lesser optimal one that still holds 0. So a free start keeps,
  of the tasks that split {0}, {0} alone and the children {0, v} whose v
  is an orbit minimum. Connected growth keeps {0} alone and the child
  {0, 1}, when 1 is a neighbour of 0 and H moves 1 onto all of
  N(0) (on K_L^n H is the whole stabiliser of 0): a larger connected side
  holds some w in N(0), and an h with h(w) = 1 maps it to a side starting
  (0, 1), so the least one holds 1. With 0's least neighbour u > 1 that
  fails, since a side may hold some x < u not in N(0); growth then takes
  root 0's tasks. The partition scan's first part, which always holds 0,
  takes the same tasks: H maps each partition to one with the same cut,
  part count and qualifying parts, and the scan reports only the least
  cut and the part counts that reach it. The state counts drop; values,
  witnesses, atom sizes and two-part verdicts do not change. The
  certificate reads only the adjacency, never the label, and is the sole
  gate: every other graph gets the full enumeration. It is computed once
  per graph: ``Graph`` is frozen and hashable, so an LRU cache of the last
  64 graphs keeps it across engine calls. The pruned scans are
  a few lopsided tasks, often {0} and the one child {0, 1}, so a parallel
  call splits them further (see the runner).
* Both enumerators split their work into tasks that go through one runner.
  ``OracleBudget.parallel_chunks`` = W counts the processes, the caller
  included. A serial call (W = 1) runs its tasks in-process as one share.
  With W > 1 there are workers to share the work, so the tasks are first
  refined one extension level at a time, each task by ``_split``,
  until there are at least 8W of them or a level splits none. The caller
  then runs the interleaved share items[0::W] itself while each of W - 1
  workers runs items[k::W], sent in one message. One visitor, and for
  growth one walker and one tally, take a share's tasks in turn, so a
  bound lowered on one task gates the next. The shares' results are
  combined with a deterministic min-reduction, so parallel results,
  witnesses and state counts match serial ones bit for bit. Every share
  takes its call's state as an argument, so threads mixing serial and
  parallel calls share nothing but the workers and the certificate cache.
  Task functions and side predicates are module-level and picklable, so
  workers run under every start method (fork, spawn, forkserver).
* The runner keeps its worker processes for the next parallel call with
  the same start method and worker count: starting them costs more than a
  small enumeration. A call that raises terminates the workers, since
  shares of it may still be running, and an exit hook terminates whatever
  workers are left.
* ``OracleBudget.max_subsets`` caps the total state count of one
  enumeration, every state walked whether or not its visitor sees it, and
  every set the scan takes: each share stops once it would walk past the
  cap, the scan before it scans a task's sets, and the runner sums
  the shares' states as they finish, so the error is raised iff the total
  exceeds the cap, serial or parallel.
"""

from __future__ import annotations

import atexit
import math
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations, product
from multiprocessing import get_context

from .closedform import ConditionKind
from .construct import CutReport, evaluate_cut
from .errors import (
    BudgetError,
    DomainError,
    InfeasibleError,
    SubsetBudgetError,
    UnsupportedError,
    VerificationError,
)
from .graphs import Graph, HammingParams, _integer

__all__ = [
    "OracleBudget",
    "FragmentResult",
    "brute_min_boundary",
    "brute_min_boundary_connected",
    "brute_min_boundary_bilateral",
    "brute_boundary_profile",
    "brute_extra_connectivity",
    "brute_conditional",
    "bipartite_property_check",
]


@dataclass(frozen=True)
class OracleBudget:
    """Caps on enumeration size.

    max_subsets caps the total number of states one enumeration walks,
    including those the walker's bound gate keeps from the visitor: each
    share of the tasks stops once it alone walks past the cap, and
    SubsetBudgetError is raised iff the total exceeds it, serial or
    parallel, in every mode. parallel_chunks is the process count, the
    caller included: 1 runs in-process; W > 1 keeps W - 1 worker processes
    and splits the tasks into shares for the caller and each worker. Each
    field must be an int (a bool is refused); DomainError otherwise.
    """

    max_subsets: int = 200_000_000
    parallel_chunks: int = 1

    def __post_init__(self) -> None:
        for name in ("max_subsets", "parallel_chunks"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.max_subsets < 1 or self.parallel_chunks < 1:
            raise DomainError("budget fields must be positive")


DEFAULT_BUDGET = OracleBudget()

MAX_VERTICES = 32  # the largest graph the oracle takes


@dataclass(frozen=True)
class FragmentResult:
    """Outcome of one exhaustive search.

    witness is the canonical optimal fragment: the lexicographically least
    (as a sorted vertex tuple) among the optimal sides of size at most
    floor(N/2) (both sides qualify at an even split). atom_size is the
    smallest fragment cardinality over all optimal cuts found.
    """

    optimum: int
    witness: tuple[int, ...]
    atom_size: int
    report: CutReport
    subsets_visited: int
    wall_time_s: float


def _bits_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _lex_less(a: int, b: int) -> bool:
    """Whether set a sorts before set b as sorted vertex tuples."""
    low = (a ^ b) & -(a ^ b)
    if a & low:
        return b >= low << 1
    return a < low


def _least(entries):
    """The least (cut, mask, size) entry, None ones skipped: the least cut,
    with the least mask (by _lex_less) and the least size among the entries
    achieving it; None when no entry is left."""
    best = None
    for entry in entries:
        if entry is None:
            continue
        if best is None or entry[0] < best[0]:
            best = entry
        elif entry[0] == best[0]:
            cut, mask, size = entry
            best = (cut, mask if _lex_less(mask, best[1]) else best[1], min(size, best[2]))
    return best


def _component(seed: int, mask: int, masks: tuple[int, ...]) -> int:
    """The vertices of `mask` reachable from `seed` (bits of mask) inside it."""
    comp = frontier = seed
    while frontier:
        grown = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            grown |= masks[low.bit_length() - 1]
        frontier = grown & mask & ~comp
        comp |= frontier
    return comp


def _mask_connected(mask: int, masks: tuple[int, ...]) -> bool:
    return mask != 0 and _component(mask & -mask, mask, masks) == mask


def _require_oracle_scale(graph: Graph) -> None:
    if graph.vertex_count > MAX_VERTICES:
        raise BudgetError(
            f"graph has {graph.vertex_count} vertices, oracle cap is "
            f"{MAX_VERTICES}"
        )


# --- symmetry certificate ----------------------------------------------------

def _base_reading(graph: Graph) -> tuple[int, int] | None:
    """The (L, n) of a K_L^n-like regular graph: L**n = N and (L-1)*n equals
    the common degree. At most one pair fits, because (x-1)ln N/ln x grows
    with x = N**(1/n); it fixes a base-L reading of the vertex ids."""
    degrees = {len(nbrs) for nbrs in graph.adjacency}
    if len(degrees) != 1:
        return None
    (degree,) = degrees
    n_vertices = graph.vertex_count
    for dim in range(1, n_vertices.bit_length()):
        arity = round(n_vertices ** (1 / dim))
        if arity**dim == n_vertices and (arity - 1) * dim == degree:
            return arity, dim
    return None


def _digit_steps(arity: int, dim: int) -> list[tuple[int, ...]]:
    """The maps "digit p plus 1 mod arity" on base-arity vertex ids, one per
    digit position p = 0..dim-1, each as a tuple image[v]."""
    steps = []
    for p in range(dim):
        power = arity**p
        steps.append(tuple(
            v - (arity - 1) * power if v // power % arity == arity - 1 else v + power
            for v in range(arity**dim)
        ))
    return steps


def _stabiliser_moves(arity: int, dim: int) -> list[tuple[int, ...]]:
    """Permutations of the base-arity ids that fix 0, each as a tuple
    image[v]: the swaps of digit positions p and p+1, and the swaps of the
    values 1 and a at digit 0 for a = 2..arity-1. On K_L^n they generate
    the whole stabiliser of 0, whose orbits are the Hamming weights."""
    ids = range(arity**dim)
    moves = []
    for p in range(dim - 1):
        low, high = arity**p, arity ** (p + 1)
        moves.append(tuple(
            v + (v // low % arity - v // high % arity) * (high - low) for v in ids
        ))
    for a in range(2, arity):
        swap = {1: a - 1, a: 1 - a}
        moves.append(tuple(v + swap.get(v % arity, 0) for v in ids))
    return moves


def _automorphism(perm: tuple[int, ...], adjacency, neighbours: list[set]) -> bool:
    """Whether perm maps every neighbourhood onto the neighbourhood of the image."""
    return all(
        {perm[u] for u in nbrs} == neighbours[perm[v]] for v, nbrs in enumerate(adjacency)
    )


@lru_cache(maxsize=64)
def _orbit_minima(graph: Graph) -> tuple[int, ...] | None:
    """The least vertex of each vertex's orbit under a certified group H of
    automorphisms fixing 0, or None when the graph is not certified
    vertex-transitive.

    Reads only the adjacency. The graph is certified when each of the n maps
    "digit p plus 1 mod L" of its base-L reading sends every neighbourhood
    onto a neighbourhood: they generate Z_L^n acting regularly. That covers
    K_L^n and the identity and reversal BC networks (XOR Cayley graphs of
    Z_2^n). H is generated by the `_stabiliser_moves` that pass the same
    test; the others are dropped, so H may be trivial. An automorphism keeps
    a side's size, internal edges, induced minimum degree, cycles and
    connectivity, and the translations and moves map axis sub-layers of
    K_L^n onto axis sub-layers, so they keep every condition kind.
    """
    reading = _base_reading(graph)
    if reading is None:
        return None
    adjacency = graph.adjacency
    neighbours = [set(nbrs) for nbrs in adjacency]
    if not all(_automorphism(step, adjacency, neighbours) for step in _digit_steps(*reading)):
        return None
    # a disjoint-set forest of the orbits; each root is its class's least member
    least = list(range(graph.vertex_count))

    def find(v: int) -> int:
        while least[v] != v:
            least[v] = v = least[least[v]]
        return v

    for move in _stabiliser_moves(*reading):
        if _automorphism(move, adjacency, neighbours):
            for v, w in enumerate(move):
                a, b = find(v), find(w)
                least[max(a, b)] = min(a, b)
    return tuple(find(v) for v in range(graph.vertex_count))


def _tasks(graph: Graph, state: dict, rooted: bool = False) -> list:
    """The tasks whose sets include the lexicographically least optimal
    side of any automorphism-invariant problem over connected sets, or over
    arbitrary sets when state['free']: ``_split`` of every root's node on an
    uncertified graph (root 0's when rooted), and on a certified one that of
    root 0's, pruned under H as the module notes say. Were 0's least
    neighbour u > 1, a connected side could hold 0 and some x < u outside
    N(0) and be less than every side holding {0, u}, so keeping only the
    child {0, 1} needs u = 1.
    """
    n = graph.vertex_count
    masks, degrees, free = state["masks"], state["degrees"], state["free"]
    orbit = _orbit_minima(graph)
    nbrs = graph.adjacency[0]
    keep = range(n)  # pruned, a task's set is {0} or {0, v}: keep it by its largest vertex
    if orbit is not None and free:
        keep = {v for v in range(n) if orbit[v] == v}
    elif orbit is not None and nbrs and nbrs[0] == 1 and all(orbit[w] == 1 for w in nbrs):
        keep = {0, 1}
    roots = n if orbit is None and not rooted else 1
    return [
        task
        for root in range(roots)
        for task in _split(state, _root_node(masks, degrees, root, state["full"], free))
        if task[0].bit_length() - 1 in keep
    ]


# --- task runner --------------------------------------------------------------
#
# A task is a module-level function task(state, items, cap) -> (result,
# visited) that runs one share of a call's items and raises SubsetBudgetError
# once the share walks more than cap states; it reads its call's state only
# from the argument, so concurrent calls share nothing but the workers.
#
# Each worker process has a pipe of its own and shares no lock with the
# others, so terminating the workers mid-call is safe. multiprocessing.Pool
# is not used: its terminate can hang when it kills a worker that holds the
# lock of the shared result queue.

_POOL: dict = {}  # at most one entry, (start method, workers) -> [(process, pipe)]
_POOL_LOCK = threading.Lock()  # held by the one parallel call using _POOL


def _serve(pipe) -> None:
    """Worker loop: run each share (task, state, items, cap) that arrives
    and send back (True, its outcome) or (False, the exception raised)."""
    while True:
        try:
            task, *share = pipe.recv()
        except EOFError:
            return
        try:
            reply = (True, task(*share))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        pipe.send(reply)


def _pool(workers: int) -> list:
    """The pipes to the workers for the current start method and worker
    count; workers kept for another key are terminated first."""
    ctx = get_context()
    key = (ctx.get_start_method(), workers)
    if key not in _POOL:
        _close_pools()
        members = []
        for _ in range(workers):
            mine, theirs = ctx.Pipe()
            process = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            members.append((process, mine))
        _POOL[key] = members
    return [pipe for _, pipe in _POOL[key]]


@atexit.register
def _close_pools() -> None:
    while _POOL:
        for process, pipe in _POOL.popitem()[1]:
            process.terminate()
            process.join()
            pipe.close()


def _reply(pipe) -> tuple:
    ok, value = pipe.recv()
    if not ok:
        raise value
    return value


def _run_tasks(task, state: dict, items: list, budget: OracleBudget):
    """The results of task, one per share of items, and their total states.

    budget.parallel_chunks counts the processes, the caller included: with
    W > 1 of them, the items are first refined to at least 8W tasks, as far
    as their nodes split (the pruned scans are a few lopsided tasks, often
    two), and share k is the interleaved items[k::W]; the caller runs share
    0 while each of W - 1 kept workers runs one other share, sent in one
    message. A serial call runs every item as one share. Each share is one
    call task(state, share, cap), capped at budget.max_subsets, and the
    shares' totals are summed as they finish, so SubsetBudgetError is
    raised iff the total exceeds the cap, serial or parallel.
    """
    cap = budget.max_subsets
    width = budget.parallel_chunks
    if width > 1:
        items = _refine(state, items, 8 * width)
    shares = [items[k::width] for k in range(max(1, min(width, len(items))))]
    parallel = len(shares) > 1
    visited = 0
    results = []
    with _POOL_LOCK if parallel else nullcontext():
        try:
            pipes = _pool(width - 1)[:len(shares) - 1] if parallel else []
            for pipe, share in zip(pipes, shares[1:]):
                pipe.send((task, state, share, cap))
            # the caller runs its share before it reads the workers' replies
            for result, states in chain([task(state, shares[0], cap)], map(_reply, pipes)):
                visited += states
                if visited > cap:
                    raise SubsetBudgetError(f"enumeration exceeded max_subsets={cap}")
                results.append(result)
        except BaseException:
            if parallel:
                _close_pools()  # shares of this call may still be running
            raise
    return results, visited


# --- engine: fixed-size scan, no connectivity --------------------------------

def _beta_task(state, items, cap):
    """The least (cut, mask, size) entry of each size 1..max_m, None where
    nothing was scanned, over the sets of the tasks in items (see _split),
    and the number of those sets; SubsetBudgetError once the share takes
    more than cap sets.

    A task's sets come in lexicographic order (its set, then depth first
    those extending it by vertices of ext, every vertex above its largest),
    and _tasks and _refine emit tasks in that order of their sets, which a
    share keeps; so the first optimum kept at each size, by strict <, is
    the least. Like the walker, the share takes a task's sets from its
    tally (see _take) before it scans any of them.
    """
    masks = state["masks"]
    degrees = state["degrees"]
    max_m = state["max_m"]
    n = len(masks)
    tally = [cap]
    best_cut = [None] * (max_m + 1)
    best_mask = [None] * (max_m + 1)

    def rec(start: int, mask: int, size: int, cut: int) -> None:
        nsize = size + 1
        grow = nsize < max_m
        bc = best_cut[nsize]
        for v in range(start, n):
            bit = 1 << v
            ncut = cut + degrees[v] - 2 * (masks[v] & mask).bit_count()
            if bc is None or ncut < bc:
                bc = ncut
                best_cut[nsize] = ncut
                best_mask[nsize] = mask | bit
            if grow:
                rec(v + 1, mask | bit, nsize, ncut)

    for node in items:
        _take(tally, _scan_states(state, node))
        mask, ext, _, size, cut, _ = node
        if best_cut[size] is None or cut < best_cut[size]:
            best_cut[size] = cut
            best_mask[size] = mask
        if ext and size < max_m:
            rec(mask.bit_length(), mask, size, cut)
    entries = [
        None if cut is None else (cut, mask, size)
        for size, (cut, mask) in enumerate(zip(best_cut, best_mask))
    ]
    return entries, cap - tally[0]


def _scan_states(state: dict, node: tuple) -> int:
    """The sets of size 1..max_m that fixed-size scan task `node` takes: its
    set, and every set that extends it by vertices of ext."""
    _, ext, _, size, _, _ = node
    return sum(math.comb(ext.bit_count(), k) for k in range(state["max_m"] - size + 1))


# --- engine: rooted growth ----------------------------------------------------

_OVER_BUDGET = "enumeration exceeded the states left in the budget"


def _take(tally: list, states: int) -> None:
    """Take states from tally[0]; SubsetBudgetError once it falls below zero,
    so the tasks and walkers of a share share one cap."""
    tally[0] -= states
    if tally[0] < 0:
        raise SubsetBudgetError(_OVER_BUDGET)


def _walker(rows, degrees, max_m, visit, bound, tally):
    """grow(mask, ext, seen, size, cut, internal): ESU-style rooted growth.

    Visits the state if cut <= bound[size], then, while size < max_m, grows
    it by each vertex of ext in ascending order; the vertex added makes its
    neighbours along rows that are not in seen extendable further down. The
    visitor owns bound and may lower it as it improves, so the gate only
    skips states its own test would reject. cut and internal count edges
    along rows, with degrees[v] the popcount of rows[v]. A state is counted
    when its parent grows it: a node takes its children, ext.bit_count()
    of them, from the tally (as _take does) before it visits or grows any
    of them, and the caller takes one for the root. A child with nothing
    to grow is visited in the parent's loop, with no call of its own; so
    is every child at size max_m, for which no ext or seen is computed.
    """

    def grow(mask, ext, seen, size, cut, internal):
        if cut <= bound[size]:
            visit(mask, size, cut, internal)
        if size == max_m or not ext:
            return
        tally[0] -= ext.bit_count()
        if tally[0] < 0:
            raise SubsetBudgetError(_OVER_BUDGET)
        size += 1
        if size == max_m:
            while ext:
                low = ext & -ext
                ext ^= low
                v = low.bit_length() - 1
                common = (rows[v] & mask).bit_count()
                child_cut = cut + degrees[v] - 2 * common
                if child_cut <= bound[size]:
                    visit(mask | low, size, child_cut, internal + common)
            return
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            row = rows[v]
            common = (row & mask).bit_count()
            child_cut = cut + degrees[v] - 2 * common
            fresh = row & ~seen
            if ext | fresh:
                grow(mask | low, ext | fresh, seen | fresh, size, child_cut, internal + common)
            elif child_cut <= bound[size]:
                visit(mask | low, size, child_cut, internal + common)

    return grow


def _root_node(rows, degrees, root: int, pool: int, free: bool) -> tuple:
    """The walker state of {root} for the sets whose least vertex is root
    inside pool: connected along rows, or any subset of pool when free,
    where every larger pool vertex is in ext and all of them count as
    seen."""
    low_mask = (1 << (root + 1)) - 1
    if free:
        ext, seen = pool & ~low_mask, -1
    else:
        ext = rows[root] & ~low_mask
        seen = low_mask | ext
    return 1 << root, ext, seen, 1, degrees[root], 0


def _split(state: dict, node: tuple) -> list:
    """The tasks that together take node's subtree: its set alone, the node
    with ext = 0, and each child, grown as the walker grows it; [node] where
    node has no extension within max_m."""
    mask, ext, seen, size, cut, internal = node
    if not ext or size == state["max_m"]:
        return [node]
    masks = state["masks"]
    degrees = state["degrees"]
    tasks = [(mask, 0, seen, size, cut, internal)]
    while ext:
        low = ext & -ext
        ext ^= low
        v = low.bit_length() - 1
        common = (masks[v] & mask).bit_count()
        fresh = masks[v] & ~seen
        tasks.append((
            mask | low,
            ext | fresh,
            seen | fresh,
            size + 1,
            cut + degrees[v] - 2 * common,
            internal + common,
        ))
    return tasks


def _refine(state: dict, items: list, target: int) -> list:
    """The tasks split one extension level at a time, each by _split, until
    there are at least target tasks or a level splits none; they take the
    same sets as items."""
    while len(items) < target:
        finer = [task for node in items for task in _split(state, node)]
        if len(finer) == len(items):
            break
        items = finer
    return items


def _engine_state(graph: Graph, max_m: int, **fields) -> dict:
    return dict(
        fields,
        masks=graph.neighbor_masks,
        degrees=tuple(graph.degree(v) for v in range(graph.vertex_count)),
        max_m=max_m,
        full=(1 << graph.vertex_count) - 1,
    )


def _grow_task(state, items, cap):
    """Grow the sets of the tasks in items (see _split), each task every set
    of at most max_m vertices in its walker state's subtree (its set alone
    when ext = 0), connected along the state's masks or arbitrary when
    state['free'] is set. The state's visitor factory, called once, returns
    (visit, bound, finish); one walker passes visit each set within bound,
    task after task, so a bound lowered on one task gates the next. Returns
    (finish(), states walked); SubsetBudgetError once the share walks more
    than cap states.
    """
    tally = [cap]
    visit, bound, finish = state["visitor"](state, tally)
    grow = _walker(state["masks"], state["degrees"], state["max_m"], visit, bound, tally)
    for node in items:
        _take(tally, 1)  # the root
        grow(*node)
    return finish(), cap - tally[0]


def _unbounded(state: dict) -> list:
    """A bound list that passes every state: no cut exceeds the degree sum."""
    return [sum(state["degrees"])] * (state["max_m"] + 1)


def _profile_visitor(state: dict, tally):
    """The least (cut, mask, size) entry of each size over the visited sets,
    or over those whose complement is connected too when state['bilateral']
    is set; None at sizes where nothing qualified. bound[size] is the cut
    of the entry kept at that size."""
    masks = state["masks"]
    full = state["full"]
    bilateral = state["bilateral"]
    best: list = [None] * (state["max_m"] + 1)
    bound = _unbounded(state)

    def visit(mask: int, size: int, cut: int, internal: int) -> None:
        entry = best[size]
        if entry is not None and (
            cut > entry[0] or cut == entry[0] and not _lex_less(mask, entry[1])
        ):
            return
        if bilateral and not _mask_connected(full & ~mask, masks):
            return
        best[size] = (cut, mask, size)
        bound[size] = cut

    return visit, bound, lambda: best


# --- public fixed-size operations --------------------------------------------

def _check_m(graph: Graph, m: int) -> int:
    m = _integer(m, "m")
    half = graph.vertex_count // 2
    if not 1 <= m <= half:
        raise DomainError(f"m must be in [1, {half}], got {m}")
    return m


def _profile(graph: Graph, max_m: int, mode: str, budget: OracleBudget):
    """The least (cut, mask, size) entry of each size 1..max_m, None where
    no set qualifies, and the states visited.

    mode 'any' scans all subsets; 'connected' requires the set side
    connected; 'bilateral' requires both sides. On a certified
    vertex-transitive graph only sets containing vertex 0, pruned further
    by the stabiliser of 0, are visited.
    """
    _require_oracle_scale(graph)
    max_m = _check_m(graph, max_m)
    if mode not in ("any", "connected", "bilateral"):
        raise DomainError(f"unknown mode {mode!r}")
    free = mode == "any"
    state = _engine_state(
        graph, max_m, free=free, visitor=_profile_visitor, bilateral=mode == "bilateral"
    )
    results, visited = _run_tasks(
        _beta_task if free else _grow_task, state, _tasks(graph, state), budget
    )
    return [_least(part[m] for part in results) for m in range(1, max_m + 1)], visited


def _package(graph, cut, mask, atom, visited, t0) -> FragmentResult:
    witness = _bits_tuple(mask)
    report = evaluate_cut(graph, witness)
    if report.cut_size != cut:
        raise VerificationError(
            f"internal inconsistency: enumeration says {cut}, recount says "
            f"{report.cut_size}"
        )
    return FragmentResult(cut, witness, atom, report, visited, time.perf_counter() - t0)


def _min_boundary(graph: Graph, m: int, mode: str, budget: OracleBudget) -> FragmentResult:
    t0 = time.perf_counter()
    entries, visited = _profile(graph, m, mode, budget)
    if entries[-1] is None:
        what = {
            "connected": f"connected {m}-vertex set",
            "bilateral": f"{m}-vertex set with both sides connected",
        }[mode]
        raise InfeasibleError(f"no {what} in {graph.label}")
    return _package(graph, *entries[-1], visited, t0)


def brute_min_boundary(
    graph: Graph, m: int, budget: OracleBudget = DEFAULT_BUDGET
) -> FragmentResult:
    """Minimum edge boundary over ALL m-vertex sets, by full scan."""
    return _min_boundary(graph, m, "any", budget)


def brute_min_boundary_connected(
    graph: Graph, m: int, budget: OracleBudget = DEFAULT_BUDGET
) -> FragmentResult:
    """Minimum boundary over m-vertex sets inducing a connected subgraph."""
    return _min_boundary(graph, m, "connected", budget)


def brute_min_boundary_bilateral(
    graph: Graph, m: int, budget: OracleBudget = DEFAULT_BUDGET
) -> FragmentResult:
    """Minimum boundary over m-vertex sets with both sides connected."""
    return _min_boundary(graph, m, "bilateral", budget)


def brute_boundary_profile(
    graph: Graph,
    max_m: int,
    mode: str = "bilateral",
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[tuple[int, tuple[int, ...]] | None]:
    """(cut, witness) per size 1..max_m in one enumeration pass.

    mode 'any' scans all subsets; 'connected' requires the set side
    connected; 'bilateral' requires both sides. Entries are None where no
    qualifying set exists. This is the bulk interface the verification
    suites use so an m-sweep costs one enumeration, not max_m of them.
    """
    entries, _ = _profile(graph, max_m, mode, budget)
    return [None if e is None else (e[0], _bits_tuple(e[1])) for e in entries]


# --- conditional connectivity -------------------------------------------------

def _axis_sublayer_masks(params: HammingParams, t: int) -> tuple[int, ...]:
    """Bitmasks of every axis-aligned t-dimensional sub-layer of K_L^n."""
    arity, dim = params.arity, params.dim
    out = []
    for free in combinations(range(dim), t):
        fixed = [p for p in range(dim) if p not in free]
        for values in product(range(arity), repeat=len(fixed)):
            base = sum(v * arity**p for v, p in zip(values, fixed))
            mask = 0
            for digits in product(range(arity), repeat=t):
                mask |= 1 << (base + sum(d * arity**p for d, p in zip(digits, free)))
            out.append(mask)
    return tuple(out)


# Side predicates take (mask, size, internal_edges) of one side of a cut.
# They are module-level functions bound with functools.partial, so they
# pickle into pool workers under any start method.

def _min_size(value: int, mask: int, size: int, internal: int) -> bool:
    return size >= value


def _average_degree(value: int, mask: int, size: int, internal: int) -> bool:
    return 2 * internal >= value * size


def _min_degree(masks, value: int, mask: int, size: int, internal: int) -> bool:
    probe = mask
    while probe:
        low = probe & -probe
        probe ^= low
        if (masks[low.bit_length() - 1] & mask).bit_count() < value:
            return False
    return True


def _has_cycle(masks, mask: int, size: int, internal: int) -> bool:
    # a forest has exactly |side| - (its component count) edges
    components = 0
    remaining = mask
    while remaining:
        remaining &= ~_component(remaining & -remaining, remaining, masks)
        components += 1
    return internal + components > size


def _contains_layer(layers, mask: int, size: int, internal: int) -> bool:
    return any(mask & layer == layer for layer in layers)


def _side_predicate(cond: ConditionKind, params: HammingParams | None, graph: Graph):
    """Build pred(mask, size, internal_edges) for one side of a cut."""
    kind, value = cond.kind, cond.value
    if kind in ("extra", "isoperimetric"):
        return partial(_min_size, value)
    if kind == "cyclic":
        return partial(_has_cycle, graph.neighbor_masks)
    if kind == "super":
        return partial(_min_degree, graph.neighbor_masks, value)
    if kind == "average":
        return partial(_average_degree, value)
    if kind == "embedded":
        if params is None or graph.label != f"hamming({params.arity},{params.dim})":
            raise UnsupportedError(
                "embedded predicate needs Hamming coordinates; pass the params "
                "of the hamming graph being searched"
            )
        if not 0 <= value <= params.dim - 1:
            raise DomainError(
                f"embedded dimension must be in [0, {params.dim - 1}], got {value}"
            )
        if value == 0:
            return partial(_min_size, 1)
        return partial(_contains_layer, _axis_sublayer_masks(params, value))
    raise DomainError(f"unknown condition kind {kind!r}")


def _cut_visitor(state: dict, tally):
    """Best qualifying bipartition (cut, witness, atom) among the visited
    sides, or None when nothing qualified. bound holds the best cut at
    every size."""
    masks = state["masks"]
    full = state["full"]
    pred = state["pred"]
    total_edges = state["edges"]
    n = full.bit_count()
    best = None  # (cut, witness mask, atom size)
    bound = _unbounded(state)

    def visit(mask: int, size: int, cut: int, internal: int) -> None:
        nonlocal best
        if best is not None and (
            cut > best[0]
            or cut == best[0] and size >= best[2] and not _lex_less(mask, best[1])
        ):
            return
        if not pred(mask, size, internal):
            return
        other = full & ~mask
        other_internal = total_edges - internal - cut
        if not pred(other, n - size, other_internal):
            return
        if not _mask_connected(other, masks):
            return
        best = _least((best, (cut, mask, size)))
        bound[:] = [best[0]] * len(bound)

    return visit, bound, lambda: best


def brute_conditional(
    graph: Graph,
    cond: ConditionKind,
    params: HammingParams | None = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> FragmentResult:
    """Exact conditional edge-connectivity by bipartition enumeration.

    Both sides must satisfy the condition; both sides must be connected for
    every kind except isoperimetric, which scans arbitrary subsets of size
    h..floor(N/2) instead. Raises InfeasibleError when nothing qualifies,
    before enumerating anything when a size h exceeds floor(N/2). `params`
    is required for the embedded kind (sub-layer structure). On a
    certified vertex-transitive graph only sides containing vertex 0,
    pruned further by the stabiliser of 0, are enumerated; the optimum,
    witness and atom size are the same.
    """
    t0 = time.perf_counter()
    n = graph.vertex_count
    half = n // 2
    if cond.kind in ("extra", "isoperimetric") and cond.value > half:
        raise InfeasibleError(
            f"{cond.describe()} needs both sides >= {cond.value}, impossible on "
            f"{n} vertices"
        )
    _require_oracle_scale(graph)

    if cond.kind == "isoperimetric":
        entries, visited = _profile(graph, half, "any", budget)
        best = _least(entries[cond.value - 1:])
    else:
        state = _engine_state(
            graph, half, free=False, visitor=_cut_visitor,
            pred=_side_predicate(cond, params, graph), edges=graph.edge_count,
        )
        results, visited = _run_tasks(_grow_task, state, _tasks(graph, state), budget)
        best = _least(results)
        if best is None:
            raise InfeasibleError(
                f"no bipartition of {graph.label} satisfies {cond.describe()}"
            )
    return _package(graph, *best, visited, t0)


def brute_extra_connectivity(
    graph: Graph, h: int, budget: OracleBudget = DEFAULT_BUDGET
) -> FragmentResult:
    """min over m >= h of the bilateral boundary minimum; the witness is the
    canonical optimal fragment across all achieving sizes."""
    h = _integer(h, "h")
    if h < 1:
        raise DomainError(f"h must be >= 1, got {h}")
    return brute_conditional(graph, ConditionKind.extra(h), budget=budget)


# --- two-part property of minimum conditional cuts ----------------------------

def _partition_visitor(state: dict, tally):
    """(min_cut, part_counts_at_min) over the partitions into >= 2
    qualifying parts with cut <= state['cut_budget'] whose first part is a
    visited set; min_cut is None when nothing fit the budget.

    Each visited part is peeled off, and the next part is grown from the
    least vertex left, inside what is left, by a walker on the same tally.
    Each peel has its own bound list, cut_budget - acc_cut at every size.
    """
    masks = state["masks"]
    part_ok = state["pred"]
    cut_budget = state["cut_budget"]
    free = state["free"]
    best = None
    zs: set[int] = set()

    def parts_of(pool: int, acc_cut: int, parts: int):
        """The visitor of the candidate parts grown inside pool, whose cut
        counts only the edges into the rest of the pool, and its bound."""

        def visit(mask: int, size: int, cut: int, internal: int) -> None:
            if acc_cut + cut <= cut_budget and part_ok(mask, size, internal):
                peel(pool & ~mask, acc_cut + cut, parts + 1)

        return visit, [cut_budget - acc_cut] * (pool.bit_count() + 1)

    def peel(pool: int, acc_cut: int, parts: int) -> None:
        nonlocal best, zs
        if not pool:
            if parts >= 2:
                if best is None or acc_cut < best:
                    best, zs = acc_cut, {parts}
                elif acc_cut == best:
                    zs.add(parts)
            return
        rows = tuple(map(pool.__and__, masks))
        degrees = tuple(map(int.bit_count, rows))
        root = (pool & -pool).bit_length() - 1
        _take(tally, 1)  # the root
        grow = _walker(rows, degrees, pool.bit_count(), *parts_of(pool, acc_cut, parts), tally)
        grow(*_root_node(rows, degrees, root, pool, free))

    return *parts_of(state["full"], 0, 0), lambda: (best, zs)


def _partition_minima(graph: Graph, part_ok, cut_budget: int, free: bool, budget: OracleBudget):
    """Scan unordered partitions into >= 2 qualifying parts with cut <= budget.

    Returns (min_cut, part_counts_at_min); min_cut is None when nothing fit
    the budget. Each part contains the least vertex not yet assigned, which
    enumerates every partition exactly once. Parts are connected, or
    arbitrary when free is set. On a certified graph the first part is
    pruned under H like a side of a bipartition: H fixes 0 and maps each
    partition to one with the same cut, part count and qualifying parts.
    """
    state = _engine_state(
        graph, graph.vertex_count,
        free=free, visitor=_partition_visitor, pred=part_ok, cut_budget=cut_budget,
    )
    results, _ = _run_tasks(_grow_task, state, _tasks(graph, state, rooted=True), budget)
    cuts = [cut for cut, _ in results if cut is not None]
    if not cuts:
        return None, set()
    best = min(cuts)
    return best, set().union(*(zs for cut, zs in results if cut == best))


def bipartite_property_check(
    graph: Graph,
    cond: ConditionKind,
    params: HammingParams | None = None,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> bool:
    """True iff every minimum conditional cut splits the graph in exactly two.

    First finds the bipartition optimum, then exhausts ALL partitions into
    qualifying parts (components for the five structural kinds, arbitrary
    parts of size >= h for isoperimetric) with cut up to that optimum. The
    property holds iff no multi-part partition beats or ties it.
    """
    base = brute_conditional(graph, cond, params=params, budget=budget)
    minimum, zs = _partition_minima(
        graph,
        _side_predicate(cond, params, graph),
        base.optimum,
        cond.kind == "isoperimetric",
        budget,
    )
    if minimum is None or minimum > base.optimum:
        raise VerificationError(
            "partition scan lost the bipartition optimum; enumeration bug"
        )
    return minimum == base.optimum and zs == {2}
