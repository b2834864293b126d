"""The four seeded workloads of the isocut benchmark.

A workload turns a seed into a list of rounds, and a round into a list of ops.
An op is a tuple ``(kind, run, check, args)``:

* ``run(tracer, *args)`` is the timed part. It calls isocut's public API,
  wrapping each call into a layer in ``tracer.call`` so a traced run can
  attribute time to ``closedform``, ``cli``, ``graphs``, ``construct`` and
  ``oracle``.
* ``check(output, *args)`` runs outside the timed region. It compares the
  output with a path that does not share the code under test and returns
  ``None`` when the output is right, else a reason. Ops whose check is
  ``expect_isocut_error`` are deliberately out of domain: they succeed only
  by raising a typed ``IsocutError`` (or, for the CLI, by returning exit 2).

Every round of a workload has the same make-up, stratum by stratum; the seed
picks parameters inside each stratum and the order of the ops. That keeps the
cost of a round nearly independent of the seed, so runs with different seeds
are comparable.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from math import comb

from isocut import (
    ConditionKind,
    DomainError,
    HammingParams,
    IsocutError,
    OracleBudget,
    bc_network,
    bipartite_property_check,
    brute_boundary_profile,
    brute_conditional,
    brute_extra_connectivity,
    brute_min_boundary,
    brute_min_boundary_bilateral,
    brute_min_boundary_connected,
    cli,
    closedform,
    conditional_connectivity,
    evaluate_cut,
    family_census,
    hamming_graph,
    max_degree_sum,
    min_boundary_binary,
    min_boundary_ternary,
    min_edge_boundary,
    optimal_set,
    prefix_cut_sweep,
    sublayer_families,
)

U64_MAX = 2**64 - 1
KINDS = ("extra", "embedded", "cyclic", "super", "average", "isoperimetric")
MODES = ("any", "connected", "bilateral")
POLICIES = ("identity", "reversal", "seeded_random")


def expect_isocut_error(output, *args):
    if isinstance(output, IsocutError):
        return None
    return f"expected an IsocutError, got {output!r}"


# --- independent reference values -------------------------------------------


def base_digits(m: int, base: int) -> list[int]:
    """Base-`base` digits of m, most significant first."""
    digits = []
    while m:
        m, d = divmod(m, base)
        digits.append(d)
    digits.reverse()
    return digits


def boundary_by_digits(m: int, arity: int, dim: int) -> int:
    """Boundary of the prefix {0..m-1} of K_arity^dim, digit by digit.

    A nonzero digit a at position b adds a[(L-1)(n-b) - (a-1) - 2s]L^b, where
    s is the sum of the higher digits. This is a different expression from
    the library's degree*m - max_degree_sum(m).
    """
    digits = base_digits(m, arity)
    total = 0
    higher = 0
    for i, a in enumerate(digits):
        if a:
            b = len(digits) - 1 - i
            total += a * ((arity - 1) * (dim - b) - (a - 1) - 2 * higher) * arity**b
            higher += a
    return total


def min_fragment(cond: ConditionKind, arity: int) -> int:
    """Smallest side that can meet the condition, from the paper's rules."""
    if cond.kind in ("extra", "isoperimetric"):
        return cond.value
    if cond.kind == "embedded":
        return arity**cond.value
    if cond.kind in ("super", "average"):
        return arity ** (cond.value // (arity - 1))
    return 4 if arity == 2 else 3


def cyclic_feasible(p: HammingParams) -> bool:
    return (4 if p.arity == 2 else 3) <= p.half_size


def closed_form_conditional(cond: ConditionKind, p: HammingParams) -> int:
    """The closed form, falling back to the definition min over m >= h of the
    boundary where conditional_connectivity does not cover the size."""
    try:
        return conditional_connectivity(cond, p)
    except DomainError:
        return min(min_edge_boundary(m, p) for m in range(cond.value, p.half_size + 1))


class SweepMinima:
    """Least both-sides-connected prefix cut at sizes >= h, read off the
    prefix sweep of the materialized graph (built once per graph)."""

    def __init__(self) -> None:
        self._suffix: dict[HammingParams, list[int]] = {}

    def min_from(self, p: HammingParams, h: int) -> int:
        suffix = self._suffix.get(p)
        if suffix is None:
            rows = prefix_cut_sweep(hamming_graph(p))
            suffix = [0] * len(rows)
            best = None
            for row in reversed(rows):
                if row.side_connected and row.complement_connected:
                    if best is None or row.cut_size < best:
                        best = row.cut_size
                suffix[row.size - 1] = best
            self._suffix[p] = suffix
        return suffix[h - 1]


def check_sweep_rows(rows, p: HammingParams):
    if len(rows) != p.half_size:
        return f"{len(rows)} sweep rows, expected {p.half_size}"
    for row in rows:
        m = row.size
        cut = min_edge_boundary(m, p)
        if (
            row.cut_size != cut
            or 2 * row.internal_edges != max_degree_sum(m, p)
            or not row.side_connected
            or not row.complement_connected
        ):
            return f"prefix {m} of {p}: {row} against boundary {cut}"
    return None


def check_profile(output, p: HammingParams, max_m: int, mode: str):
    graph, profile = output
    if len(profile) != max_m:
        return f"{len(profile)} profile entries, expected {max_m}"
    for m, entry in enumerate(profile, start=1):
        if entry is None:
            return f"m={m}: no qualifying set"
        cut, witness = entry
        want = min_edge_boundary(m, p)
        if cut != want or len(witness) != m:
            return f"m={m}: cut {cut}, closed form {want}"
        report = evaluate_cut(graph, witness)
        if report.cut_size != cut:
            return f"m={m}: witness recounts to {report.cut_size}"
        if mode != "any" and not report.side_connected:
            return f"m={m}: witness side disconnected"
        if mode == "bilateral" and not report.complement_connected:
            return f"m={m}: witness complement disconnected"
    return None


# --- random inputs ------------------------------------------------------------


def max_dim(arity: int) -> int:
    dim = 1
    while arity ** (dim + 1) <= U64_MAX:
        dim += 1
    return dim


def random_params(rng: random.Random) -> HammingParams:
    """Arity log-uniform over 2..1000, dimension uniform up to the 64-bit cap."""
    arity = round(2 * 500 ** rng.random())
    return HammingParams(arity, rng.randint(1, max_dim(arity)))


def random_size(rng: random.Random, base: int, top: int) -> int:
    """1 <= m <= top with its number of base-`base` digits uniform."""
    digits = len(base_digits(top, base))
    k = rng.randint(1, digits)
    return rng.randint(base ** (k - 1), min(base**k - 1, top))


def random_condition(rng: random.Random, p: HammingParams) -> ConditionKind:
    """A condition the closed form answers directly on p."""
    kind = rng.choice(KINDS)
    if kind == "cyclic" and not cyclic_feasible(p):
        kind = "embedded"
    if kind in ("extra", "isoperimetric"):
        top = min(p.arity ** (p.dim // 2), p.half_size)
        return ConditionKind(kind, random_size(rng, p.arity, top))
    if kind == "cyclic":
        return ConditionKind.cyclic()
    t = rng.randrange(p.dim)
    return ConditionKind(kind, t if kind == "embedded" else (p.arity - 1) * t)


def feasible_conditions(p: HammingParams) -> list[ConditionKind]:
    """Every condition with a qualifying bipartition on a small Hamming graph."""
    half = p.half_size
    out = [ConditionKind(k, h) for k in ("extra", "isoperimetric") for h in range(1, half + 1)]
    for t in range(p.dim):
        out.append(ConditionKind.embedded(t))
        out.append(ConditionKind.super_degree((p.arity - 1) * t))
        out.append(ConditionKind.average_degree((p.arity - 1) * t))
    if cyclic_feasible(p):
        out.append(ConditionKind.cyclic())
    return out


# --- formula-mix ----------------------------------------------------------------
#
# Every round has the same number of queries of each kind, in seeded order:
# point queries dominate the count, and one far extra(h) query per round takes
# about as long as the rest of the round. The CLI calls plus the bad-argv
# calls are 1.5% of the count, so query_p99_us reads the CLI latency. Far
# scan lengths are spread evenly over FAR_SCAN across the rounds, so the far
# share of the time hardly depends on the seed. A run cycles through the
# pre-generated rounds; isocut keeps no cache, so repeats cost the same.

FORMULA_MIX = (
    ("point", 620), ("conditional", 300), ("families", 63),
    ("cli.xi", 5), ("cli.lambda", 5), ("cli.construct", 2), ("ood.api", 3), ("ood.cli", 2),
)
FORMULA_MIX_TINY = (
    ("point", 120), ("conditional", 60), ("families", 12),
    ("cli.xi", 2), ("cli.lambda", 2), ("cli.construct", 1), ("ood.api", 1), ("ood.cli", 1),
)
FORMULA_ROUNDS = 24
FAMILY_DIGIT_SUM = 12
FAR_GRAPHS = ((2, 15), (2, 16), (3, 9), (4, 7))
FAR_SCAN = (3000, 9500)
FAR_GRAPHS_TINY = ((2, 10),)
FAR_SCAN_TINY = (50, 300)
CLI_SMALL_VERTICES = 512


def _point(p, m):
    return min_edge_boundary(m, p), max_degree_sum(m, p)


def run_point(tr, p, m):
    return tr.call("closedform.point", _point, p, m)


def check_point(output, p, m):
    boundary, degree_sum = output
    want = boundary_by_digits(m, p.arity, p.dim)
    if boundary != want or degree_sum != p.degree * m - want:
        return f"xi={boundary}, degree sum={degree_sum}; digit form gives xi={want}"
    if p.arity == 2 and boundary != min_boundary_binary(m, p.dim):
        return "disagrees with the binary reduced form"
    if p.arity == 3 and boundary != min_boundary_ternary(m, p.dim):
        return "disagrees with the ternary reduced form"
    return None


def run_conditional(tr, p, cond):
    return tr.call("closedform.point", conditional_connectivity, cond, p)


def check_conditional(output, p, cond):
    want = boundary_by_digits(min_fragment(cond, p.arity), p.arity, p.dim)
    return None if output == want else f"{output}, digit form gives {want}"


def _families(p, m):
    families = sublayer_families(m, p)
    return families, family_census(families, p)


def run_families(tr, p, m):
    return tr.call("construct.families", _families, p, m)


def check_families(output, p, m):
    families, census = output
    covered = sum(len(f.layers) * p.arity**f.free_dims for f in families)
    want = boundary_by_digits(m, p.arity, p.dim)
    if covered != m:
        return f"families cover {covered} vertices, not {m}"
    if census["cut_size"] != want or 2 * census["internal_edges"] != p.degree * m - want:
        return f"census {census}, digit form gives cut {want}"
    return None


def _extra_far(p, h):
    try:
        return conditional_connectivity(ConditionKind.extra(h), p)
    except DomainError:
        # looked up at call time: the scan goes once extra(h) has an exact form
        return getattr(closedform, "extra_connectivity_scan")(h, p)


def run_extra_far(tr, p, h, minima):
    return tr.call("closedform.extra_far", _extra_far, p, h)


def check_extra_far(output, p, h, minima):
    want = minima.min_from(p, h)
    return None if output == want else f"{output}, prefix sweep gives {want}"


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def run_cli(tr, argv, expect):
    return tr.call("cli.main", _cli, argv)


def check_cli(output, argv, expect):
    code, text = output
    if expect[0] == "exit":
        return None if code == expect[1] else f"exit {code}, documented {expect[1]}"
    if code != 0:
        return f"exit {code}"
    row = json.loads(text)["results"][0]
    if expect[0] == "xi":
        got = (row["min_edge_boundary"], row["max_degree_sum"])
    elif expect[0] == "lambda":
        got = (row["value"],)
    else:
        got = (row["cut_size"], row["census"]["cut_size"], row["side_connected"])
    return None if got == expect[1:] else f"{got}, expected {expect[1:]}"


def _cond_argv(cond: ConditionKind) -> list[str]:
    flag = {"extra": "--h", "isoperimetric": "--h", "embedded": "--t"}.get(cond.kind, "--k")
    return [] if cond.value is None else [flag, str(cond.value)]


def _cli_query(rng, command):
    if command == "xi":
        p = random_params(rng)
        m = random_size(rng, p.arity, p.half_size)
        xi = boundary_by_digits(m, p.arity, p.dim)
        argv = ("xi", "--L", str(p.arity), "--n", str(p.dim), "--m", str(m))
        expect = ("xi", xi, p.degree * m - xi)
    elif command == "lambda":
        p = random_params(rng)
        cond = random_condition(rng, p)
        argv = ("lambda", "--L", str(p.arity), "--n", str(p.dim), "--kind", cond.kind,
                *_cond_argv(cond))
        expect = ("lambda", boundary_by_digits(min_fragment(cond, p.arity), p.arity, p.dim))
    else:
        arity = rng.randint(2, 8)
        dim = rng.randint(1, max(1, len(base_digits(CLI_SMALL_VERTICES, arity)) - 1))
        p = HammingParams(arity, dim)
        m = rng.randint(1, p.half_size)
        argv = ("construct", "--L", str(arity), "--n", str(dim), "--m", str(m))
        expect = ("construct", boundary_by_digits(m, arity, dim),
                  boundary_by_digits(m, arity, dim), True)
    return ("cli", run_cli, check_cli, (argv + ("--format", "json"), expect))


def _ood_api_query(rng):
    p = random_params(rng)
    choice = rng.randrange(5)
    if choice == 0:
        m = p.half_size + 1 + rng.randrange(p.half_size + 1)
        return ("ood.point", run_point, expect_isocut_error, (p, m))
    if choice == 1:
        return ("ood.conditional", run_conditional, expect_isocut_error,
                (HammingParams(2, 2), ConditionKind.cyclic()))
    if choice == 2:
        arity = rng.randint(3, 1000)
        q = HammingParams(arity, rng.randint(2, max_dim(arity)))
        k = (arity - 1) * rng.randrange(q.dim) + rng.randint(1, arity - 2)
        return ("ood.conditional", run_conditional, expect_isocut_error,
                (q, ConditionKind.super_degree(k)))
    if choice == 3:
        return ("ood.conditional", run_conditional, expect_isocut_error,
                (p, ConditionKind.embedded(p.dim + rng.randrange(3))))
    return ("ood.conditional", run_conditional, expect_isocut_error,
            (p, ConditionKind.extra(p.half_size + 1)))


def _ood_cli_query(rng):
    p = random_params(rng)
    argv = rng.choice((
        ("xi", "--L", "1", "--n", "3", "--m", "1"),
        ("lambda", "--L", str(p.arity), "--n", str(p.dim), "--kind", "bogus"),
        ("xi", "--L", str(p.arity), "--n", str(p.dim), "--m", str(p.half_size + 1)),
    ))
    return ("ood.cli", run_cli, check_cli, (argv + ("--format", "json"), ("exit", 2)))


def _point_query(rng):
    p = random_params(rng)
    return ("point", run_point, check_point, (p, random_size(rng, p.arity, p.half_size)))


def _conditional_query(rng):
    p = random_params(rng)
    return ("conditional", run_conditional, check_conditional, (p, random_condition(rng, p)))


def _families_query(rng):
    """Sizes are capped to FAMILY_DIGIT_SUM layers: the census is quadratic
    in the layer count."""
    p = random_params(rng)
    budget = FAMILY_DIGIT_SUM
    m = 0
    for d in base_digits(random_size(rng, p.arity, p.half_size), p.arity):
        d = min(d, budget)
        budget -= d
        m = m * p.arity + d
    return ("families", run_families, check_families, (p, m))


QUERIES = {
    "point": _point_query,
    "conditional": _conditional_query,
    "families": _families_query,
    "cli.xi": lambda rng: _cli_query(rng, "xi"),
    "cli.lambda": lambda rng: _cli_query(rng, "lambda"),
    "cli.construct": lambda rng: _cli_query(rng, "construct"),
    "ood.api": _ood_api_query,
    "ood.cli": _ood_cli_query,
}


def _far_query(rng, pair, scan, minima):
    p = HammingParams(*pair)
    first = p.arity ** (p.dim // 2) + 1
    h = max(first, p.half_size - scan)
    while len([d for d in base_digits(h, p.arity) if d]) < 2:
        h += 1
    return ("extra_far", run_extra_far, check_extra_far, (p, h, minima))


def formula_mix(seed: int, tiny: bool) -> list[list[tuple]]:
    rng = random.Random(seed)
    minima = SweepMinima()
    mix, graphs, (lo, hi) = (
        (FORMULA_MIX_TINY, FAR_GRAPHS_TINY, FAR_SCAN_TINY)
        if tiny
        else (FORMULA_MIX, FAR_GRAPHS, FAR_SCAN)
    )
    count = 8 if tiny else FORMULA_ROUNDS
    scans = [lo + int((i + rng.random()) * (hi - lo) / count) for i in range(count)]
    pairs = [graphs[i % len(graphs)] for i in range(count)]
    rng.shuffle(scans)
    rng.shuffle(pairs)
    rounds = []
    for pair, scan in zip(pairs, scans):
        ops = [QUERIES[kind](rng) for kind, n in mix for _ in range(n)]
        ops.append(_far_query(rng, pair, scan, minima))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# --- witness-sweep ---------------------------------------------------------------
#
# One graph per stratum per round, all eight small graphs every round. The
# graphs of a stratum cost about the same to sweep (vertices times degree), so
# the cost of a round hardly depends on the seed. The small ops are the
# majority, so query_p50_us reads a small-graph op; K_2^17 is in every round,
# so query_p99_us and peak_rss_mb read it.

WITNESS_HUGE = (2, 17)
WITNESS_LARGE = ((4, 7), (3, 9), (5, 6))
WITNESS_DENSE = tuple((arity, 2) for arity in range(97, 101))
WITNESS_MEDIUM = ((2, 13), (3, 8), (8, 4), (40, 2))
# about 10k adjacency entries each, so query_p50_us does not jump between graphs
WITNESS_SMALL = ((2, 10), (5, 4), (3, 6), (18, 2), (17, 2), (100, 1), (8, 3), (96, 1))
WITNESS_ROUNDS = 8
SPOT_CHECKS = 2


def _evaluate_prefix(graph, p, m):
    return evaluate_cut(graph, optimal_set(m, p))


def run_witness(tr, p, spots):
    graph = tr.call("graphs.hamming_graph", hamming_graph, p)
    tr.count("graphs.hamming_graph.vertices", p.vertex_count)
    rows = tr.call("construct.prefix_cut_sweep", prefix_cut_sweep, graph)
    tr.count("construct.prefix_cut_sweep.vertices", p.vertex_count)
    reports = [tr.call("construct.evaluate_cut", _evaluate_prefix, graph, p, m) for m in spots]
    return rows, reports


def check_witness(output, p, spots):
    rows, reports = output
    for m, report in zip(spots, reports):
        if (
            report.set_size != m
            or report.cut_size != min_edge_boundary(m, p)
            or not report.side_connected
            or not report.complement_connected
        ):
            return f"evaluate_cut of prefix {m}: {report}"
    return check_sweep_rows(rows, p)


def _witness_op(rng, arity, dim):
    p = HammingParams(arity, dim)
    spots = tuple(random_size(rng, arity, p.half_size) for _ in range(SPOT_CHECKS))
    return ("witness", run_witness, check_witness, (p, spots))


def _sweep_too_far(p):
    return prefix_cut_sweep(hamming_graph(p), p.vertex_count)


def run_witness_ood(tr, choice):
    if choice == 0:
        return tr.call("graphs.hamming_graph", hamming_graph, HammingParams(2, 21))
    return tr.call("construct.prefix_cut_sweep", _sweep_too_far, HammingParams(2, 3))


def witness_sweep(seed: int, tiny: bool) -> list[list[tuple]]:
    rng = random.Random(seed)

    def make_round():
        if tiny:
            picks = [rng.choice(WITNESS_SMALL), rng.choice(WITNESS_SMALL), (2, 11)]
        else:
            picks = [
                WITNESS_HUGE,
                rng.choice(WITNESS_LARGE),
                rng.choice(WITNESS_DENSE),
                *rng.sample(WITNESS_MEDIUM, 2),
                *WITNESS_SMALL,
            ]
        ops = [_witness_op(rng, *pick) for pick in picks]
        ops.append(("ood.witness", run_witness_ood, expect_isocut_error, (rng.randrange(2),)))
        rng.shuffle(ops)
        return ops

    return [make_round() for _ in range(4 if tiny else WITNESS_ROUNDS)]


# --- oracle-certify --------------------------------------------------------------
#
# Cells on vertex-transitive graphs through a two-process pool. The K_5^2
# profiles take most of a round; each round has two cells of every kind on
# each small graph, so those cells are the majority and set query_p50_us.

ORACLE_CHUNKS = 2
# Twice the largest cell's state count: all subsets of K_5^2 up to size 8.
ORACLE_MAX_SUBSETS = 2 * sum(comb(25, k) for k in range(1, 9))
ORACLE_PROFILE_M = {(5, 2): 8, (3, 3): (5, 6)}
ORACLE_SMALL = ((4, 2), (2, 4), (3, 2))
ORACLE_ROUNDS = 24
MIN_BOUNDARY = {
    "any": brute_min_boundary,
    "connected": brute_min_boundary_connected,
    "bilateral": brute_min_boundary_bilateral,
}


def run_profile(tr, graph, p, max_m, mode, budget):
    return graph, tr.call(f"oracle.profile.{mode}", brute_boundary_profile, graph, max_m, mode, budget)


def check_hamming_profile(output, graph, p, max_m, mode, budget):
    return check_profile(output, p, max_m, mode)


def _count_states(tr, result):
    tr.count("oracle.states", result.subsets_visited)
    tr.count("oracle.states_ns", tr.last_ns)
    return result


def run_min_boundary(tr, graph, p, m, mode, budget):
    return _count_states(tr, tr.call(f"oracle.profile.{mode}", MIN_BOUNDARY[mode], graph, m, budget))


def check_min_boundary(output, graph, p, m, mode, budget):
    report = output.report
    if output.optimum != min_edge_boundary(m, p) or len(output.witness) != m:
        return f"optimum {output.optimum}, closed form {min_edge_boundary(m, p)}"
    if mode != "any" and not report.side_connected:
        return "witness side disconnected"
    if mode == "bilateral" and not report.complement_connected:
        return "witness complement disconnected"
    return None


def run_brute_conditional(tr, graph, p, cond, budget):
    return _count_states(tr, tr.call("oracle.conditional", brute_conditional, graph, cond, p, budget))


def check_brute_conditional(output, graph, p, cond, budget):
    want = closed_form_conditional(cond, p)
    return None if output.optimum == want else f"optimum {output.optimum}, closed form {want}"


def run_bipartite(tr, graph, p, cond, budget):
    base = _count_states(
        tr, tr.call("oracle.partition.base", brute_conditional, graph, cond, p, budget)
    )
    holds = tr.call("oracle.partition.check", bipartite_property_check, graph, cond, p, budget)
    return base, holds


def check_bipartite(output, graph, p, cond, budget):
    base, holds = output
    want = closed_form_conditional(cond, p)
    if base.optimum != want:
        return f"optimum {base.optimum}, closed form {want}"
    return None if holds is True else "a multi-part split matches the optimum"


def run_oracle_ood(tr, choice, graphs, budget):
    if choice == 0:
        return tr.call("oracle.conditional", brute_conditional, graphs[(2, 2)],
                       ConditionKind.cyclic(), HammingParams(2, 2), budget)
    if choice == 1:
        return tr.call("oracle.profile.any", brute_min_boundary, graphs[(3, 2)], 5, budget)
    if choice == 2:
        return tr.call("oracle.profile.any", brute_boundary_profile, graphs[(3, 2)], 4,
                       "spanning", budget)
    return tr.call("oracle.conditional", brute_conditional, graphs["bc3"],
                   ConditionKind.embedded(1), None, budget)


def oracle_certify(seed: int, tiny: bool) -> list[list[tuple]]:
    rng = random.Random(seed)
    budget = OracleBudget(max_subsets=ORACLE_MAX_SUBSETS, parallel_chunks=ORACLE_CHUNKS)
    graphs = {
        pair: hamming_graph(HammingParams(*pair))
        for pair in ((2, 2), (2, 4), (3, 2), (4, 2), (5, 2), (3, 3))
    }
    graphs["bc3"] = bc_network(3, "reversal")
    conditions = {pair: feasible_conditions(HammingParams(*pair)) for pair in ORACLE_SMALL}

    def small_cells(pair):
        p = HammingParams(*pair)
        graph = graphs[pair]
        return [
            ("profile", run_profile, check_hamming_profile,
             (graph, p, min(8, p.half_size), rng.choice(MODES), budget)),
            ("min_boundary", run_min_boundary, check_min_boundary,
             (graph, p, rng.randint(1, p.half_size), rng.choice(MODES), budget)),
            ("conditional", run_brute_conditional, check_brute_conditional,
             (graph, p, rng.choice(conditions[pair]), budget)),
            ("bipartite", run_bipartite, check_bipartite,
             (graph, p, rng.choice(conditions[pair]), budget)),
        ]

    def make_round():
        ops = []
        for pair in ORACLE_SMALL[1:] if tiny else ORACLE_SMALL * 2:
            ops.extend(small_cells(pair))
        if not tiny:
            g5, p5 = graphs[(5, 2)], HammingParams(5, 2)
            g3, p3 = graphs[(3, 3)], HammingParams(3, 3)
            for mode in MODES:
                ops.append(("profile", run_profile, check_hamming_profile,
                            (g5, p5, ORACLE_PROFILE_M[(5, 2)], mode, budget)))
                ops.append(("profile", run_profile, check_hamming_profile,
                            (g3, p3, rng.choice(ORACLE_PROFILE_M[(3, 3)]), mode, budget)))
            ops.append(("min_boundary", run_min_boundary, check_min_boundary,
                        (g5, p5, rng.randint(6, 7), rng.choice(MODES), budget)))
            ops.append(("min_boundary", run_min_boundary, check_min_boundary,
                        (g3, p3, rng.randint(4, 6), rng.choice(MODES), budget)))
        ops.append(("ood.oracle", run_oracle_ood, expect_isocut_error,
                    (rng.randrange(4), graphs, budget)))
        rng.shuffle(ops)
        return ops

    return [make_round() for _ in range(4 if tiny else ORACLE_ROUNDS)]


# --- bc-transfer -------------------------------------------------------------------
#
# BC networks are not vertex-transitive and have no arithmetic neighbours, so
# Hamming-only shortcuts must leave this workload's cost unchanged. Serial.
# The dim-4 cells are the majority of a round and set query_p50_us.

BC_LARGE = ((14, "identity"), (15, "reversal"), (16, "seeded_random"))
BC_MEDIUM = (10, 12)
BC_SMALL = (3, 3, 4, 4, 4, 4, 4, 4)
BC_EXTRA_CELLS = 2
BC_EXTRA_H = 4
# Twice the largest cell's state count: all subsets of a dim-4 network up to half.
BC_MAX_SUBSETS = 2 * sum(comb(16, k) for k in range(1, 9))
BC_ROUNDS = 24


def _build_bc(tr, dim, policy, seed):
    graph = tr.call("graphs.bc_network", bc_network, dim, policy, seed)
    tr.count("graphs.bc_network.vertices", graph.vertex_count)
    return graph


def run_bc_sweep(tr, dim, policy, seed):
    graph = _build_bc(tr, dim, policy, seed)
    rows = tr.call("construct.prefix_cut_sweep", prefix_cut_sweep, graph)
    tr.count("construct.prefix_cut_sweep.vertices", graph.vertex_count)
    return rows


def check_bc_sweep(output, dim, policy, seed):
    return check_sweep_rows(output, HammingParams(2, dim))


def run_bc_profile(tr, dim, policy, seed, budget):
    graph = _build_bc(tr, dim, policy, seed)
    half = graph.vertex_count // 2
    return graph, tr.call("oracle.profile.bilateral", brute_boundary_profile, graph, half,
                          "bilateral", budget)


def check_bc_profile(output, dim, policy, seed, budget):
    return check_profile(output, HammingParams(2, dim), 2 ** (dim - 1), "bilateral")


def run_bc_extra(tr, dim, policy, seed, budget):
    graph = _build_bc(tr, dim, policy, seed)
    return _count_states(
        tr, tr.call("oracle.conditional", brute_extra_connectivity, graph, BC_EXTRA_H, budget)
    )


def check_bc_extra(output, dim, policy, seed, budget):
    want = conditional_connectivity(ConditionKind.extra(BC_EXTRA_H), HammingParams(2, dim))
    return None if output.optimum == want else f"optimum {output.optimum}, closed form {want}"


def _extra_too_large(dim, budget):
    return brute_extra_connectivity(bc_network(dim, "reversal"), 2**dim, budget)


def run_bc_ood(tr, choice, budget):
    if choice == 0:
        return tr.call("graphs.bc_network", bc_network, 0)
    if choice == 1:
        return tr.call("graphs.bc_network", bc_network, 3, "twisted")
    return tr.call("oracle.conditional", _extra_too_large, 3, budget)


def bc_transfer(seed: int, tiny: bool) -> list[list[tuple]]:
    rng = random.Random(seed)
    budget = OracleBudget(max_subsets=BC_MAX_SUBSETS)

    # policies are dealt in turn, so every round holds the same mix of
    # graphs; their costs differ, seeded_random being the dearest
    shift = rng.randrange(len(POLICIES))
    policies = itertools.cycle(POLICIES[shift:] + POLICIES[:shift])

    def network():
        return next(policies), rng.randrange(2**31)

    def make_round():
        if tiny:
            sweeps = [(dim, *network()) for dim in (6, 9)]
        else:
            sweeps = [(dim, policy, rng.randrange(2**31)) for dim, policy in BC_LARGE]
            sweeps += [(dim, *network()) for dim in BC_MEDIUM]
        ops = [("bc_sweep", run_bc_sweep, check_bc_sweep, args) for args in sweeps]
        for dim in BC_SMALL[1:3] if tiny else BC_SMALL:
            ops.append(("bc_profile", run_bc_profile, check_bc_profile, (dim, *network(), budget)))
        for _ in range(1 if tiny else BC_EXTRA_CELLS):
            ops.append(("bc_extra", run_bc_extra, check_bc_extra, (4, *network(), budget)))
        ops.append(("ood.bc", run_bc_ood, expect_isocut_error, (rng.randrange(3), budget)))
        rng.shuffle(ops)
        return ops

    return [make_round() for _ in range(4 if tiny else BC_ROUNDS)]


WORKLOADS = {
    "formula-mix": formula_mix,
    "witness-sweep": witness_sweep,
    "oracle-certify": oracle_certify,
    "bc-transfer": bc_transfer,
}
