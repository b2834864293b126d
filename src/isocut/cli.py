"""Command-line front end.

Five subcommands: `xi` (boundary formulas), `lambda` (conditional
connectivities), `construct` (optimal sets with a materialized cut report),
`verify` (the check suites), `graph` (edge-list files). Output is human text
by default; `--format json` is schema-stable and every JSON payload carries
schema_version. `xi`, `lambda` and `construct` also take the schema-stable
`--format csv`; `verify` rows have no CSV form, so it takes only human and
json.

Exit codes: 0 success, 2 domain/unsupported error, 3 budget exceeded,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections.abc import Iterable

from . import checks
from .closedform import (
    CONDITION_KINDS,
    ConditionKind,
    conditional_connectivity,
    decompose,
    max_degree_sum,
    min_edge_boundary,
)
from .construct import evaluate_cut, family_census, optimal_set, sublayer_families
from .errors import BudgetError, DomainError, IsocutError, VerificationError
from .graphs import (
    DEFAULT_VERTEX_CAP,
    HammingParams,
    MATCHING_POLICIES,
    bc_network,
    encode,
    format_digits,
    hamming_graph,
    write_edge_list,
)
from .oracle import OracleBudget

SCHEMA_VERSION = 1

def _emit_rows(rows: Iterable[dict], fmt: str) -> None:
    """Print each row as soon as it is built, so a long `xi --m-range`
    streams in constant memory. rows must not be empty; nothing is printed
    before the first row is built. The JSON text is what
    json.dumps({"schema_version": ..., "results": rows}, indent=2) gives. A
    CSV row is the row's scalar fields in order; list and dict fields have
    no CSV form and are left out."""
    out = sys.stdout
    for index, row in enumerate(rows):
        if fmt == "json":
            body = json.dumps(row, indent=2, default=str).replace("\n", "\n    ")
            if index == 0:
                out.write(f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "results": [\n')
            else:
                out.write(",\n")
            out.write(f"    {body}")
        elif fmt == "csv":
            cells = {k: v for k, v in row.items() if not isinstance(v, (list, tuple, dict))}
            if index == 0:
                writer = csv.DictWriter(out, fieldnames=list(cells))
                writer.writeheader()
            writer.writerow(cells)
        else:
            if index == 1:
                print()  # with several rows, every row ends in a blank line
            for key, value in row.items():
                print(f"{key}: {_human_cell(value)}")
            if index:
                print()
    if fmt == "json":
        out.write("\n  ]\n}\n")


def _human_cell(value):
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, default=str)
    return value


def _parse_m_range(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("..")
    if not sep:
        raise IsocutError(f"--m-range takes a..b, got {text!r}")
    try:
        lo, hi = int(head), int(tail)
    except ValueError:
        raise IsocutError(f"--m-range takes a..b with integers, got {text!r}") from None
    if lo > hi:
        raise IsocutError(f"--m-range is empty: {lo} > {hi}")
    return lo, hi


# --- xi --------------------------------------------------------------------

def _run_xi(args) -> int:
    params = HammingParams(args.L, args.n)
    if args.m is not None:
        sizes = [args.m]
    else:
        lo, hi = _parse_m_range(args.m_range)
        if lo < 1 or hi > params.half_size:
            raise DomainError(
                f"--m-range must lie in [1, {params.half_size}], got {args.m_range!r}"
            )
        sizes = range(lo, hi + 1)
    rows = (
        {
            "L": params.arity,
            "n": params.dim,
            "m": m,
            "decomposition": str(decompose(m, params.arity)),
            "max_degree_sum": max_degree_sum(m, params),
            "min_edge_boundary": min_edge_boundary(m, params),
        }
        for m in sizes
    )
    _emit_rows(rows, args.format)
    return 0


# --- lambda ----------------------------------------------------------------

def _build_condition(args) -> ConditionKind:
    kind = args.kind
    if kind in ("extra", "isoperimetric"):
        if args.h is None:
            raise IsocutError(f"--kind {kind} requires --h")
        return ConditionKind(kind, args.h)
    if kind == "embedded":
        if args.t is None:
            raise IsocutError("--kind embedded requires --t")
        return ConditionKind.embedded(args.t)
    if kind in ("super", "average"):
        if args.k is None:
            raise IsocutError(f"--kind {kind} requires --k")
        return ConditionKind(kind, args.k)
    return ConditionKind.cyclic()


def _run_lambda(args) -> int:
    params = HammingParams(args.L, args.n)
    cond = _build_condition(args)
    split = cond.sublayer_split(params)
    row = {
        "kind": cond.describe(),
        "L": params.arity,
        "n": params.dim,
        "min_fragment_size": cond.min_fragment_size(params),
        "value": conditional_connectivity(cond, params),
        "block_g": split[0] if split else None,
        "block_t": split[1] if split else None,
    }
    _emit_rows([row], args.format)
    return 0


# --- construct --------------------------------------------------------------

def _run_construct(args) -> int:
    params = HammingParams(args.L, args.n)
    vertices = sorted(optimal_set(args.m, params))
    families = sublayer_families(args.m, params)
    census = family_census(families, params)
    graph = hamming_graph(params, max_vertices=args.max_vertices)
    report = evaluate_cut(graph, vertices)
    row = {
        "L": params.arity,
        "n": params.dim,
        "m": args.m,
        "vertices": [format_digits(encode(v, params), params.arity) for v in vertices],
        "families": [
            {
                "dimension": fam.free_dims,
                "layers": [layer.label(params) for layer in fam.layers],
            }
            for fam in families
        ],
        "census": census,
        **report.to_dict(),
    }
    if args.emit_graph:
        row["edge_list"] = [[u, v] for u, v in graph.edges()]
    _emit_rows([row], args.format)
    return 0


# --- verify -----------------------------------------------------------------

def _verify_rows(scope: str, full: bool, budget: OracleBudget):
    if scope in ("tables", "all"):
        yield from checks.table_one_checks()
        yield from checks.connectivity_grid_checks()
        if full:
            yield from checks.witness_sweep_checks()
    if scope in ("lemmas", "all"):
        yield from checks.monotonicity_checks()
        yield from checks.reduction_checks()
    if scope in ("oracle", "all"):
        yield from checks.oracle_agreement_checks(budget, full)
        yield from checks.two_part_checks(budget)
    if scope in ("bc", "all"):
        yield from checks.bc_transfer_checks(budget, full)


def _run_verify(args) -> int:
    # --threads counts the oracle's processes, this one included, and the
    # oracle splits its tasks only when there are workers to share them;
    # more than the CPUs only asks the OS for processes, and a huge value
    # would exhaust it
    cpus = os.cpu_count() or 1
    if not 1 <= args.threads <= cpus:
        raise DomainError(f"--threads must be in [1, {cpus}], got {args.threads}")
    budget = OracleBudget(max_subsets=args.max_subsets, parallel_chunks=args.threads)
    rows = list(_verify_rows(args.scope, args.full, budget))
    failures = sum(1 for r in rows if r.status == "fail")
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "scope": args.scope,
                    "full": args.full,
                    "checks": [
                        {
                            "name": r.name,
                            "status": r.status,
                            "expected": r.expected,
                            "actual": r.actual,
                            "detail": r.detail,
                        }
                        for r in rows
                    ],
                    "failures": failures,
                },
                indent=2,
                default=str,
            )
        )
    else:
        for r in rows:
            tag = {"pass": "PASS", "fail": "FAIL", "note": "note"}[r.status]
            line = f"[{tag}] {r.name}"
            if r.status == "fail":
                line += f" expected={r.expected!r} actual={r.actual!r}"
            elif r.detail:
                line += f" ({r.detail})"
            elif isinstance(r.actual, str):
                line += f" ({r.actual})"
            print(line)
        passed = sum(1 for r in rows if r.status == "pass")
        notes = len(rows) - passed - failures
        print(f"{len(rows)} checks: {passed} passed, {failures} failed, {notes} notes")
    if failures:
        raise VerificationError(f"{failures} checks failed")
    return 0


# --- graph ------------------------------------------------------------------

def _run_graph(args) -> int:
    if args.hamming == args.bc:
        raise IsocutError("exactly one of --hamming / --bc is required")
    if args.hamming:
        if args.L is None:
            raise IsocutError("--hamming requires --L")
        graph = hamming_graph(HammingParams(args.L, args.n), max_vertices=args.max_vertices)
    else:
        graph = bc_network(
            args.n, args.policy, seed=args.seed, max_vertices=args.max_vertices
        )
    try:
        write_edge_list(graph, args.out)
    except OSError as exc:
        raise IsocutError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    print(
        f"wrote {args.out}: {graph.label}, {graph.vertex_count} vertices, "
        f"{graph.edge_count} edges"
    )
    return 0


# --- parser -----------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="isocut",
        description="Exact conditional edge-connectivities of Hamming graphs "
        "and BC networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("human", "json", "csv"), default="human"
        )

    p = sub.add_parser("xi", help="boundary minimum and degree-sum maximum")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--m-range", dest="m_range", help="inclusive sweep a..b")
    add_format(p)
    p.set_defaults(func=_run_xi)

    p = sub.add_parser("lambda", help="conditional edge-connectivity")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True, choices=CONDITION_KINDS)
    p.add_argument("--h", type=int, help="fragment size for extra/isoperimetric")
    p.add_argument("--t", type=int, help="sub-layer dimension for embedded")
    p.add_argument("--k", type=int, help="degree bound for super/average")
    add_format(p)
    p.set_defaults(func=_run_lambda)

    p = sub.add_parser("construct", help="optimal set, families, and cut report")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--emit-graph", action="store_true")
    p.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP)
    add_format(p)
    p.set_defaults(func=_run_construct)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--scope", choices=("tables", "lemmas", "oracle", "bc", "all"), default="all"
    )
    p.add_argument("--full", action="store_true", help="multi-minute grids")
    p.add_argument(
        "--threads", type=int, default=1,
        help="oracle processes, this one included, at most the CPU count "
        "(default %(default)s)",
    )
    p.add_argument("--max-subsets", type=int, default=OracleBudget().max_subsets)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("graph", help="write an edge-list file")
    p.add_argument("--hamming", action="store_true")
    p.add_argument("--bc", action="store_true")
    p.add_argument("--L", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--policy", choices=MATCHING_POLICIES, default="identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP)
    p.set_defaults(func=_run_graph)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except IsocutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
