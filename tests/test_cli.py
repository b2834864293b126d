"""CLI surface: flags, output formats, exit codes."""

import csv
import io
import json
import subprocess
import sys

import pytest

from isocut import checks
from isocut.cli import main
from isocut.checks import CheckResult


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

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOCUT_VERTEX_CAP", "10")
        code, _, _ = run(capsys, "construct", "--L", "2", "--n", "4", "--m", "3")
        assert code == 3

    def test_env_cap_read_on_every_call(self, capsys, monkeypatch):
        argv = ("construct", "--L", "2", "--n", "4", "--m", "3")
        monkeypatch.setenv("ISOCUT_VERTEX_CAP", "100")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("ISOCUT_VERTEX_CAP", "10")
        assert run(capsys, *argv)[0] == 3
        assert run(capsys, *argv, "--max-vertices", "16")[0] == 0

    @pytest.mark.parametrize("name", ["ISOCUT_VERTEX_CAP", "ISOCUT_MAX_SUBSETS"])
    def test_bad_env_value_exit_2(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, _, err = run(capsys, "xi", "--L", "2", "--n", "3", "--m", "1")
        assert code == 2
        assert err.startswith("error:") and name in err


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

    def test_budget_exit_3(self, capsys):
        code, _, err = run(
            capsys, "verify", "--scope", "oracle", "--max-subsets", "10"
        )
        assert code == 3
        assert "budget exceeded" in err


class TestGraph:
    def test_hamming_out(self, capsys, tmp_path):
        path = tmp_path / "k32.txt"
        code, out, _ = run(
            capsys, "graph", "--hamming", "--L", "3", "--n", "2", "--out", str(path)
        )
        assert code == 0
        assert path.exists()
        assert "9 vertices" in out

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
