"""Command-line interface, via click's test runner."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from fanocheck import run_batch
from fanocheck.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def runner():
    return CliRunner()


class TestCheck:
    def test_ok(self, runner):
        result = runner.invoke(main, ["check", str(FIXTURES / "p2.poly")])
        assert result.exit_code == 0
        assert "status: ok" in result.output
        assert "equality=yes" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["check", str(FIXTURES / "p2.poly"), "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        entry = payload["entries"][0]
        assert entry["identity"]["lhs"] == "2"
        assert entry["betti"] == [1, 1, 1]
        assert payload["aggregate"]["exit_status"] == 0

    def test_validation_error_exit_2(self, runner):
        result = runner.invoke(main, ["check", str(FIXTURES / "singular_dp.poly")])
        assert result.exit_code == 2
        assert "NotSmooth" in result.output

    def test_parse_error_exit_2(self, runner):
        result = runner.invoke(main, ["check", str(FIXTURES / "bad_header.poly")])
        assert result.exit_code == 2

    def test_diamond_autodetected(self, runner):
        result = runner.invoke(main, ["check", str(FIXTURES / "k3.json")])
        assert result.exit_code == 0
        assert "(diamond)" in result.output

    def test_dual_mode(self, runner, tmp_path):
        path = tmp_path / "p2_dual.poly"
        path.write_text("2 3\n-1 -1\n2 -1\n-1 2\n")
        result = runner.invoke(main, ["check", str(path), "--dual"])
        assert result.exit_code == 0
        assert "status: ok" in result.output


class TestDiamondCommand:
    def test_k3(self, runner):
        result = runner.invoke(main, ["diamond", str(FIXTURES / "k3.json")])
        assert result.exit_code == 0
        assert "defect = 2" in result.output

    def test_violation_exit_1(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n": 2, "h": [[1,0,1],[0,20,0],[1,0,1]], "c1_cn1": 0, "c_n": 0}'
        )
        result = runner.invoke(main, ["diamond", str(path)])
        assert result.exit_code == 1

    def test_polytope_file_is_not_a_diamond(self, runner):
        result = runner.invoke(main, ["diamond", str(FIXTURES / "p2.poly")])
        assert result.exit_code == 2

    def test_unreadable_path_stays_in_diamond_mode(self, runner):
        result = runner.invoke(main, ["diamond", str(FIXTURES)])
        assert result.exit_code == 2
        assert f"== {FIXTURES} (diamond) ==" in result.output
        assert "ParseError" in result.output


class TestBatch:
    def test_mixed_directory(self, runner):
        result = runner.invoke(main, ["batch", str(FIXTURES)])
        assert result.exit_code == 2
        assert "checked 12 inputs" in result.output

    def test_json_and_jobs(self, runner):
        res1 = runner.invoke(main, ["batch", str(FIXTURES), "--format", "json"])
        res4 = runner.invoke(
            main, ["batch", str(FIXTURES), "--format", "json", "--jobs", "4"]
        )
        assert json.loads(res1.output) == json.loads(res4.output)

    def test_json_is_json_dumps_of_the_report(self, runner):
        result = runner.invoke(main, ["batch", "--format", "json", str(FIXTURES)])
        report = run_batch([str(FIXTURES)])
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert result.output == expected

    def test_all_ok(self, runner):
        result = runner.invoke(
            main, ["batch", str(FIXTURES / "p2.poly"), str(FIXTURES / "p3.poly")]
        )
        assert result.exit_code == 0


class TestGenerators:
    def test_gen_pn(self, runner, tmp_path):
        out = tmp_path / "p4.poly"
        result = runner.invoke(main, ["gen", "pn", "4", "-o", str(out)])
        assert result.exit_code == 0
        check = runner.invoke(main, ["check", str(out)])
        assert check.exit_code == 0

    def test_gen_pn_invalid(self, runner, tmp_path):
        result = runner.invoke(
            main, ["gen", "pn", "0", "-o", str(tmp_path / "x.poly")]
        )
        assert result.exit_code != 0

    def test_gen_sum(self, runner, tmp_path):
        a = tmp_path / "p1.poly"
        b = tmp_path / "p2.poly"
        out = tmp_path / "sum.poly"
        runner.invoke(main, ["gen", "pn", "1", "-o", str(a)])
        runner.invoke(main, ["gen", "pn", "2", "-o", str(b)])
        result = runner.invoke(main, ["gen", "sum", str(a), str(b), "-o", str(out)])
        assert result.exit_code == 0
        check = runner.invoke(main, ["check", str(out), "--format", "json"])
        entry = json.loads(check.output)["entries"][0]
        assert entry["betti"] == [1, 2, 2, 1]
        # rationals are serialized as exact p/q strings
        assert entry["identity"]["lhs"] == "11/2"
        assert entry["identity"]["rhs"] == "11/2"

    def test_gen_sum_rejects_singular(self, runner, tmp_path):
        out = tmp_path / "bad_sum.poly"
        result = runner.invoke(
            main,
            [
                "gen", "sum",
                str(FIXTURES / "singular_dp.poly"),
                str(FIXTURES / "p2.poly"),
                "-o", str(out),
            ],
        )
        assert result.exit_code != 0
        assert not out.exists()

    def test_corpus_dim2(self, runner, tmp_path):
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["corpus", "dim2", "-o", str(out)])
        assert result.exit_code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "bl1p2.poly", "bl2p2.poly", "bl3p2.poly", "p1xp1.poly", "p2.poly",
        ]
        batch = runner.invoke(main, ["batch", str(out)])
        assert batch.exit_code == 0
        assert "5 ok" in batch.output
