"""CLI surface: flags, output formats, exit codes."""

import contextlib
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from isocut import checks
from isocut.cli import main
from isocut.checks import CheckResult
from isocut.closedform import CONDITION_KINDS, decompose, max_degree_sum, min_edge_boundary
from isocut.graphs import HammingParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestXi:
    def test_human_single(self, capsys):
        code, out, _ = run(capsys, "xi", "--L", "3", "--n", "2", "--m", "4")
        assert code == 0
        assert "min_edge_boundary: 8" in out
        assert "decomposition: 3^1 + 1" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "xi", "--L", "2", "--n", "4", "--m", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        (row,) = payload["results"]
        assert row["max_degree_sum"] == 10
        assert row["min_edge_boundary"] == 10

    def test_csv_sweep_row_per_m(self, capsys):
        code, out, _ = run(
            capsys, "xi", "--L", "2", "--n", "4", "--m-range", "1..8",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        assert [int(r["min_edge_boundary"]) for r in rows] == [4, 6, 8, 8, 10, 10, 10, 8]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "xi", "--L", "2", "--n", "4", "--m-range", "5..2")
        assert code == 2
        assert "empty" in err

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "xi", "--L", "2", "--n", "4", "--m", "9")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text", ["0..3", "1..5", "1..999999999999"])
    def test_range_outside_domain_exit_2(self, capsys, text):
        # the sizes are checked before any is listed: the last range cannot be
        code, out, err = run(capsys, "xi", "--L", "2", "--n", "3", "--m-range", text)
        assert (code, out) == (2, "")
        assert "[1, 4]" in err


    @pytest.mark.parametrize("text", ["1..1", "1..8", "3..6"])
    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_range_text_is_the_one_shot_text(self, capsys, fmt, text):
        # the rows stream, but the text is what serialising them all at once gives
        code, out, _ = run(
            capsys, "xi", "--L", "2", "--n", "4", "--m-range", text, "--format", fmt
        )
        assert code == 0
        lo, hi = map(int, text.split(".."))
        rows = [
            {"L": 2, "n": 4, "m": m, "decomposition": str(decompose(m, 2)),
             "max_degree_sum": max_degree_sum(m, HammingParams(2, 4)),
             "min_edge_boundary": min_edge_boundary(m, HammingParams(2, 4))}
            for m in range(lo, hi + 1)
        ]
        if fmt == "json":
            want = json.dumps({"schema_version": 1, "results": rows}, indent=2) + "\n"
        elif fmt == "csv":
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
            want = buf.getvalue()
        else:
            blank = "\n" if len(rows) > 1 else ""
            want = "".join(
                "".join(f"{k}: {v}\n" for k, v in row.items()) + blank for row in rows
            )
        assert out == want

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_range_streams(self, fmt):
        # 10^12 sizes cannot be listed in memory: the first rows must reach
        # stdout long before the range is exhausted; the run is then killed
        proc = subprocess.Popen(
            [sys.executable, "-m", "isocut.cli", "xi", "--L", "2", "--n", "63",
             "--m-range", "1..1000000000000", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            head = "".join(proc.stdout.readline() for _ in range(40))
            assert proc.poll() is None  # still going: nothing was listed up front
        finally:
            proc.kill()
            proc.communicate(timeout=60)
        first = {"json": '"min_edge_boundary": 63', "csv": "2,63,1,1,0,63",
                 "human": "min_edge_boundary: 63"}[fmt]
        assert first in head


class TestLambda:
    def test_block_split_reported(self, capsys):
        code, out, _ = run(
            capsys, "lambda", "--L", "2", "--n", "4", "--kind", "cyclic",
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["value"] == 8
        assert row["min_fragment_size"] == 4
        assert (row["block_g"], row["block_t"]) == (1, 2)

    @pytest.mark.parametrize(
        "argv,value",
        [
            (("--kind", "extra", "--h", "4"), 8),
            (("--kind", "embedded", "--t", "2"), 8),
            (("--kind", "super", "--k", "2"), 8),
            (("--kind", "average", "--k", "2"), 8),
            (("--kind", "isoperimetric", "--h", "4"), 8),
        ],
    )
    def test_kinds_on_q4(self, capsys, argv, value):
        code, out, _ = run(
            capsys, "lambda", "--L", "2", "--n", "4", *argv, "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == value

    def test_missing_parameter_flag(self, capsys):
        code, _, err = run(capsys, "lambda", "--L", "2", "--n", "4", "--kind", "extra")
        assert code == 2
        assert "--h" in err

    @pytest.mark.parametrize("kind", ["extra", "isoperimetric"])
    def test_far_size(self, capsys, kind):
        # h=5 on Q4 is multi-term and past 2^2: answered by the digit DP
        code, out, _ = run(
            capsys, "lambda", "--L", "2", "--n", "4", "--kind", kind,
            "--h", "5", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["value"] == 8
        assert row["min_fragment_size"] == 5
        assert row["block_g"] is None

    def test_scan_flag_gone(self, capsys):
        argv = ["lambda", "--L", "2", "--n", "4", "--kind", "extra", "--h", "5", "--scan"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_infeasible_exit_2(self, capsys):
        code, _, _ = run(capsys, "lambda", "--L", "2", "--n", "2", "--kind", "cyclic")
        assert code == 2


class TestConstruct:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--L", "2", "--n", "3", "--m", "3",
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["vertices"] == ["000", "001", "010"]
        assert row["cut_size"] == 5
        assert row["census"]["cut_size"] == 5
        assert row["side_connected"] is True
        assert "edge_list" not in row

    def test_emit_graph(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--L", "2", "--n", "2", "--m", "2",
            "--emit-graph", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert sorted(map(tuple, row["edge_list"])) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_vertex_cap_exit_3(self, capsys):
        code, _, err = run(
            capsys, "construct", "--L", "10", "--n", "6", "--m", "5",
            "--max-vertices", "1000",
        )
        assert code == 3
        assert "budget" in err


class TestCsvBytes:
    # a CSV row is the row's scalar fields in order, and the csv module ends
    # every line with \r\n
    @pytest.mark.parametrize(
        "argv,want",
        [
            (
                ("construct", "--L", "2", "--n", "3", "--m", "3"),
                "L,n,m,set_size,cut_size,internal_edges,side_connected,complement_connected\r\n"
                "2,3,3,3,5,2,True,True\r\n",
            ),
            (
                ("construct", "--L", "2", "--n", "3", "--m", "3", "--emit-graph"),
                "L,n,m,set_size,cut_size,internal_edges,side_connected,complement_connected\r\n"
                "2,3,3,3,5,2,True,True\r\n",
            ),
            (
                ("xi", "--L", "2", "--n", "4", "--m-range", "1..3"),
                "L,n,m,decomposition,max_degree_sum,min_edge_boundary\r\n"
                "2,4,1,1,0,4\r\n2,4,2,2^1,2,6\r\n2,4,3,2^1 + 1,4,8\r\n",
            ),
            (
                ("lambda", "--L", "2", "--n", "4", "--kind", "cyclic"),
                "kind,L,n,min_fragment_size,value,block_g,block_t\r\ncyclic,2,4,4,8,1,2\r\n",
            ),
        ],
        ids=["construct", "construct-emit-graph", "xi-range", "lambda"],
    )
    def test_exact_stdout(self, capsys, argv, want):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out, err) == (0, want, "")


class TestVerify:
    def test_tables_scope_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "tables")
        assert code == 0
        assert "[PASS]" in out
        assert "0 failed" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "lemmas", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["failures"] == 0
        assert all(c["status"] in ("pass", "fail", "note") for c in payload["checks"])

    def test_csv_format_exits_2(self):
        # verify rows have no CSV form: argparse rejects it, where it once
        # printed human text and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scope", "lemmas", "--format", "csv"])
        assert exc.value.code == 2

    def test_lemma_rows_same_in_both_tiers(self, capsys):
        # the lemma rows are exhaustive, so --full has nothing more to check
        tiers = []
        for extra in ((), ("--full",)):
            code, out, _ = run(
                capsys, "verify", "--scope", "lemmas", "--format", "json", *extra
            )
            assert code == 0
            tiers.append(json.loads(out)["checks"])
        assert tiers[0] == tiers[1]

    def test_failure_exit_4(self, capsys, monkeypatch):
        def fake_checks():
            return [CheckResult("rigged", "fail", expected=1, actual=2)]

        monkeypatch.setattr(checks, "table_one_checks", fake_checks)
        monkeypatch.setattr(checks, "connectivity_grid_checks", lambda: [])
        code, out, err = run(capsys, "verify", "--scope", "tables")
        assert code == 4
        assert "[FAIL] rigged" in out
        assert "verification failed" in err

    def test_full_tables_run_the_witness_sweep(self, capsys, monkeypatch):
        sentinel = CheckResult("witness-sweep sentinel", "pass", 1, 1)
        monkeypatch.setattr(checks, "witness_sweep_checks", lambda: [sentinel])
        for extra, seen in (((), False), (("--full",), True)):
            code, out, _ = run(capsys, "verify", "--scope", "tables", *extra)
            assert code == 0
            assert ("witness-sweep sentinel" in out) is seen

    def test_oracle_scope_runs_two_part_rows(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "oracle", "--format", "json"
        )
        assert code == 0
        two_part = [
            c for c in json.loads(out)["checks"] if c["name"].startswith("two-part ")
        ]
        graphs = {c["name"].split()[1] for c in two_part}
        assert graphs == {f"K_{a}^{d}" for a, d in checks.TWO_PART_GRAPHS}
        assert all(c["status"] == "pass" for c in two_part)

    def test_threads_above_cpu_count_exit_2(self, capsys, monkeypatch):
        # rejected before any oracle worker process starts
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        before = {p.pid for p in multiprocessing.active_children()}
        code, _, err = run(capsys, "verify", "--scope", "oracle", "--threads", "2")
        assert code == 2
        assert "--threads must be in [1, 1], got 2" in err
        assert {p.pid for p in multiprocessing.active_children()} == before

    def test_budget_exit_3(self, capsys):
        code, _, err = run(
            capsys, "verify", "--scope", "oracle", "--max-subsets", "10"
        )
        assert code == 3
        assert "budget exceeded" in err

    def test_max_vertices_flag_gone(self, capsys):
        # the oracle's vertex cap stays at its default, above every graph verify builds
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scope", "lemmas", "--max-vertices", "32"])
        assert exc.value.code == 2


class TestGraph:
    def test_hamming_out(self, capsys, tmp_path):
        path = tmp_path / "k22.txt"
        code, out, _ = run(
            capsys, "graph", "--hamming", "--L", "2", "--n", "2", "--out", str(path)
        )
        assert code == 0
        assert path.read_text() == (
            "# vertices=4 edges=4 label=hamming(2,2)\n0 1\n0 2\n1 3\n2 3\n"
        )
        assert out == f"wrote {path}: hamming(2,2), 4 vertices, 4 edges\n"

    def test_bc_out(self, capsys, tmp_path):
        path = tmp_path / "b4.txt"
        code, _, _ = run(
            capsys, "graph", "--bc", "--n", "4", "--policy", "seeded_random",
            "--seed", "3", "--out", str(path),
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert "vertices=16" in header

    def test_requires_exactly_one_family(self, capsys, tmp_path):
        path = str(tmp_path / "g.txt")
        code, _, _ = run(capsys, "graph", "--n", "3", "--out", path)
        assert code == 2
        code, _, _ = run(
            capsys, "graph", "--hamming", "--bc", "--L", "2", "--n", "3", "--out", path
        )
        assert code == 2

    @pytest.mark.parametrize("where", ["missing/dir/x", "."])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, where):
        path = str(tmp_path / where)
        code, out, err = run(
            capsys, "graph", "--hamming", "--L", "2", "--n", "3", "--out", path
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and path in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["xi", "--L", "2"])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isocut.cli", "xi", "--L", "5", "--n", "2",
             "--m", "7", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        row = json.loads(proc.stdout)["results"][0]
        assert row["min_edge_boundary"] == 30


# --- generated argv ----------------------------------------------------------
# Every draw returns in milliseconds: graphs are built only up to 5^4 or 2^10
# vertices, the oracle and bc scopes always get a small --max-subsets, and no
# valid cap or size is ever large enough to materialize a big graph. The
# out-of-range values are large but cheap to reject.

BIG = st.sampled_from([2**63, 2**64, 10**12, 10**30, -(10**30)])
NOT_INT = st.sampled_from(["x", "1.5", ""])
PAST_ANY_HALF = st.sampled_from([2**63, 2**64, 10**30])


def ints(lo, hi, big=BIG):
    """An int in [lo, hi] three times in four, else a large or non-integer
    value."""
    out_of_range = st.one_of(big, NOT_INT)
    return st.integers(0, 3).flatmap(
        lambda k: st.integers(lo, hi) if k else out_of_range
    ).map(str)


def option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


FORMAT = option("--format", st.sampled_from(["human", "json", "csv", "xml"]))
# dims past 64 are out of range, yet 2**dim stays cheap
DIMS = st.sampled_from([64, 65, 1000, 10**4, -(10**30)])
SMALL_CAP = ints(-3, 2000, big=st.sampled_from([-(10**30)]))


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


def fixed(*argv):
    return st.just(list(argv))


# half the upper ends of --m-range lie past every graph's N/2 < 2**63; none
# lies between 200 and that, since a valid range so long lists every row
UPPER_END = st.one_of(ints(0, 200, big=PAST_ANY_HALF), PAST_ANY_HALF.map(str))
XI = joined(
    fixed("xi"),
    ints(1, 12).map(lambda v: ["--L", v]),
    ints(0, 6, big=DIMS).map(lambda v: ["--n", v]),
    st.one_of(
        ints(-3, 600).map(lambda v: ["--m", v]),
        st.tuples(ints(0, 200), UPPER_END).map(lambda ends: ["--m-range", "..".join(ends)]),
    ),
    FORMAT,
)
LAMBDA = joined(
    fixed("lambda"),
    ints(1, 12).map(lambda v: ["--L", v]),
    ints(0, 8, big=DIMS).map(lambda v: ["--n", v]),
    st.sampled_from([*CONDITION_KINDS, "bogus"]).map(lambda v: ["--kind", v]),
    option("--h", ints(-3, 60)),
    option("--t", ints(-3, 9)),
    option("--k", ints(-3, 30)),
    FORMAT,
)
CONSTRUCT = joined(
    fixed("construct"),
    st.sampled_from(["-1", "1", "2", "3", "4", "5", str(2**64)]).map(lambda v: ["--L", v]),
    st.one_of(st.integers(-1, 4).map(str), DIMS.map(str)).map(lambda v: ["--n", v]),
    ints(-3, 400).map(lambda v: ["--m", v]),
    option("--max-vertices", SMALL_CAP),
    st.sampled_from([[], ["--emit-graph"]]),
    FORMAT,
)
VERIFY = joined(
    fixed("verify"),
    st.one_of(
        fixed("--scope", "tables"),
        st.tuples(
            st.sampled_from(["oracle", "bc", "nowhere"]), ints(-3, 40, big=st.just(-1))
        ).map(lambda v: ["--scope", v[0], "--max-subsets", v[1]]),
    ),
    # 10**30 must be rejected before the oracle would start that many workers
    option("--threads", ints(-2, 1, big=st.sampled_from([-(10**30), 10**30]))),
    FORMAT,
)
GRAPH = joined(
    fixed("graph"),
    st.sampled_from([[], ["--hamming"], ["--bc"], ["--hamming", "--bc"]]),
    option("--L", st.sampled_from(["-1", "1", "2", "3", "4", "5", str(2**64), "x"])),
    st.one_of(st.integers(-1, 4).map(str), DIMS.map(str)).map(lambda v: ["--n", v]),
    option("--policy", st.sampled_from(["identity", "reversal", "seeded_random", "mirror"])),
    option("--seed", ints(-3, 3)),
    option("--max-vertices", SMALL_CAP),
    st.sampled_from(["ok", "missing", "directory"]).map(lambda v: ["--out", v]),
)
# the BC network alone may take dims up to 10 (1024 vertices)
GRAPH_BC = joined(
    fixed("graph", "--bc"),
    st.integers(-1, 10).map(lambda v: ["--n", str(v)]),
    st.sampled_from(["ok", "missing"]).map(lambda v: ["--out", v]),
)


COMMANDS = {
    "xi": XI,
    "lambda": LAMBDA,
    "construct": CONSTRUCT,
    "verify": VERIFY,
    "graph": st.one_of(GRAPH, GRAPH_BC),
}


class TestContract:
    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_documented_and_no_traceback(self, tmp_path_factory, command, data):
        argv = data.draw(COMMANDS[command], label="argv")
        out_dir = tmp_path_factory.getbasetemp()
        paths = {
            "ok": str(out_dir / "g.txt"),
            "missing": str(out_dir / "missing" / "g.txt"),
            "directory": str(out_dir),
        }
        argv = [paths.get(arg, arg) for arg in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
