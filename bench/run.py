#!/usr/bin/env python3
"""Seeded benchmark for isocut: formula queries, Hamming witness sweeps, the
Hamming oracle and BC transfer.

Run from the repository root; the benchmark imports isocut from ``src/``.

    python3 bench/run.py --workload formula-mix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One workload per call: the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the per-layer ones, derived from spans recorded around every call into an
isocut layer. The line before it is the environment block. ``--workload all``
runs every workload untraced and traced, each in a fresh process, prints
every metric with its unit and the tracing overhead, and exits 1 if any op
failed. Spans and full results go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("formula-mix", "witness-sweep", "oracle-certify", "bc-transfer")
SETUP_SAMPLES = 7
MAX_FAILURES_SHOWN = 5

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(Exception):
    pass


def setup(workload: str, seed: int, tiny: bool):
    """Import isocut from src/ and generate the seeded rounds.

    Returns (rounds, seconds spent). This is what setup_s measures.
    """
    start = time.perf_counter()
    if not (SRC / "isocut" / "__init__.py").is_file():
        raise SetupError(f"isocut sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import isocut

    if Path(isocut.__file__).resolve().parent != (SRC / "isocut").resolve():
        raise SetupError(f"imported isocut from {isocut.__file__}, not from {SRC}")
    import workloads

    rounds = workloads.WORKLOADS[workload](seed, tiny)
    return rounds, time.perf_counter() - start


def measure(rounds, seconds: float, tracer):
    """Run whole rounds until `seconds` have passed; time each op alone.

    Checks run outside the timed region. Garbage is collected between
    rounds, also outside it: isocut leaves each process pool to the cyclic
    collector, so without this the peak RSS would depend on when the
    collector happened to run rather than on what a round holds. Returns
    per-op latencies (ns), failure reasons, the number of rounds run, and the
    oracle states counted in the first round (traced runs only).
    """
    from workloads import expect_isocut_error

    latencies: list[int] = []
    failures: list[str] = []
    first_round_states = 0
    now = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        for kind, run, check, args in rounds[done % len(rounds)]:
            tracer.begin_op(len(latencies), kind)
            t0 = now()
            try:
                output = run(tracer, *args)
            except Exception as exc:  # judged by the check below
                output = exc
            t1 = now()
            tracer.end_op()
            latencies.append(t1 - t0)
            if isinstance(output, Exception) and check is not expect_isocut_error:
                reason = f"{type(output).__name__}: {output}"
            else:
                reason = check(output, *args)
            if reason is not None:
                failures.append(f"{kind} {args!r:.160}: {reason}")
            output = None
        done += 1
        gc.collect()
        if done == 1 and tracer.enabled:
            first_round_states = tracer.counters.get("oracle.states", 0)
        if time.perf_counter() >= deadline:
            return latencies, failures, done, first_round_states


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def setup_samples(workload: str, seed: int, tiny: bool) -> list[float]:
    """Set up again in fresh processes, since imports are cached in this one."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
               "--seed", str(seed)] + (["--tiny"] if tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, load_start) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(latencies, rss_mb: float, setup_s: list[float]) -> dict:
    busy_s = sum(latencies) / 1e9
    values = {
        "ops_per_s": len(latencies) / busy_s,
        "query_p50_us": quantile(latencies, 50) / 1e3,
        "query_p99_us": quantile(latencies, 99) / 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_s),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(tracer, latencies, first_round_states: int) -> dict:
    """Per-layer metrics from span self times and counters."""
    spans = tracer.self_times()
    counters = tracer.counters

    def busy(name):
        return spans.get(name, (0, 0))[0] / 1e9

    def calls(name):
        return spans.get(name, (0, 0))[1]

    def per_call(name, scale):
        return busy(name) * scale / calls(name) if calls(name) else 0.0

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    states = counters.get("oracle.states", 0)
    values = {
        "closedform.point.us_per_call": (per_call("closedform.point", 1e6), "us"),
        "closedform.point.calls": (calls("closedform.point"), "count"),
        "closedform.extra_far.ms_per_call": (per_call("closedform.extra_far", 1e3), "ms"),
        "closedform.extra_far.busy_s": (busy("closedform.extra_far"), "s"),
        "cli.main.ms_per_call": (per_call("cli.main", 1e3), "ms"),
        "construct.families.us_per_call": (per_call("construct.families", 1e6), "us"),
        "graphs.hamming_graph.busy_s": (busy("graphs.hamming_graph"), "s"),
        "graphs.hamming_graph.vertices_per_s": (
            rate(counters.get("graphs.hamming_graph.vertices", 0), busy("graphs.hamming_graph")),
            "vertices/s"),
        "graphs.bc_network.busy_s": (busy("graphs.bc_network"), "s"),
        "graphs.bc_network.vertices_per_s": (
            rate(counters.get("graphs.bc_network.vertices", 0), busy("graphs.bc_network")),
            "vertices/s"),
        "construct.prefix_cut_sweep.busy_s": (busy("construct.prefix_cut_sweep"), "s"),
        "construct.prefix_cut_sweep.vertices_per_s": (
            rate(counters.get("construct.prefix_cut_sweep.vertices", 0),
                 busy("construct.prefix_cut_sweep")),
            "vertices/s"),
        "construct.evaluate_cut.busy_s": (busy("construct.evaluate_cut"), "s"),
        "oracle.profile.any.busy_s": (busy("oracle.profile.any"), "s"),
        "oracle.profile.connected.busy_s": (busy("oracle.profile.connected"), "s"),
        "oracle.profile.bilateral.busy_s": (busy("oracle.profile.bilateral"), "s"),
        "oracle.conditional.busy_s": (busy("oracle.conditional"), "s"),
        "oracle.partition.busy_s": (
            busy("oracle.partition.check") - busy("oracle.partition.base"), "s"),
        "oracle.states": (first_round_states, "count"),
        "oracle.states_per_s": (
            rate(states, counters.get("oracle.states_ns", 0) / 1e9), "states/s"),
        "trace.ops_per_s": (len(latencies) / (sum(latencies) / 1e9), "ops/s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_one(args) -> int:
    load_start = list(os.getloadavg())
    rounds, _ = setup(args.workload, args.seed, args.tiny)
    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    latencies, failures, done, first_round_states = measure(rounds, args.seconds, tracer)
    if args.trace:
        metrics = per_layer(tracer, latencies, first_round_states)
    else:
        rss_mb = peak_rss_mb()  # read before the set-up probes add children
        metrics = end_to_end(latencies, rss_mb, setup_samples(args.workload, args.seed, args.tiny))
    result = {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": metrics,
    }
    info = {
        "env": environment(args.seed, load_start),
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "rounds": done,
        "failures": failures[:MAX_FAILURES_SHOWN],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**info, "result": result}, indent=2))
    if args.trace:
        tracer.write_csv(OUT_DIR / f"{stem}-spans.csv")
    for reason in failures[:MAX_FAILURES_SHOWN]:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    ok = True
    for workload in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}")
                return 1
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        plain, traced = results
        ok = ok and plain["correct"] and traced["correct"]
        fail_ratio = plain["failed"] / plain["attempted"]
        overhead = 1 - traced["metrics"]["trace.ops_per_s"]["value"] / plain["metrics"][
            "ops_per_s"]["value"]
        print(f"== {workload} (seed {args.seed}): {plain['attempted']} ops, "
              f"fail_ratio {fail_ratio:.6f}, tracing overhead {overhead:.1%}")
        for kind, res in (("end-to-end", plain), ("per-layer", traced)):
            for name, metric in res["metrics"].items():
                print(f"  {kind:10s} {name:42s} {metric['value']:>16.6g} {metric['unit']}")
        summary[workload] = {"untraced": plain, "traced": traced, "fail_ratio": fail_ratio,
                             "tracing_overhead": overhead}
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if not args.setup_probe:
            return run_one(args)
        _, seconds = setup(args.workload, args.seed, args.tiny)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
