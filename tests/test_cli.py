"""Command-line interface, run in process."""

import errno
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fanocheck
from fanocheck import run_batch
from fanocheck.cli import main

from conftest import run_cli

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(fanocheck.__file__).resolve().parents[1]


class TestCheck:
    def test_ok(self):
        result = run_cli(["check", str(FIXTURES / "p2.poly")])
        assert result.exit_code == 0
        assert "status: ok" in result.output
        assert "equality=yes" in result.output

    def test_json_format(self):
        result = run_cli(["check", str(FIXTURES / "p2.poly"), "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        entry = payload["entries"][0]
        assert entry["identity"]["lhs"] == "2"
        assert entry["betti"] == [1, 1, 1]
        assert payload["aggregate"]["exit_status"] == 0

    def test_validation_error_exit_2(self):
        result = run_cli(["check", str(FIXTURES / "singular_dp.poly")])
        assert result.exit_code == 2
        assert "NotSmooth" in result.output

    def test_parse_error_exit_2(self):
        result = run_cli(["check", str(FIXTURES / "bad_header.poly")])
        assert result.exit_code == 2

    def test_diamond_autodetected(self):
        result = run_cli(["check", str(FIXTURES / "k3.json")])
        assert result.exit_code == 0
        assert "(diamond)" in result.output

    def test_dual_mode(self, tmp_path):
        path = tmp_path / "p2_dual.poly"
        path.write_text("2 3\n-1 -1\n2 -1\n-1 2\n")
        result = run_cli(["check", str(path), "--dual"])
        assert result.exit_code == 0
        assert "status: ok" in result.output


class TestDiamondCommand:
    def test_k3(self):
        result = run_cli(["diamond", str(FIXTURES / "k3.json")])
        assert result.exit_code == 0
        assert "defect = 2" in result.output

    def test_violation_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n": 2, "h": [[1,0,1],[0,20,0],[1,0,1]], "c1_cn1": 0, "c_n": 0}'
        )
        result = run_cli(["diamond", str(path)])
        assert result.exit_code == 1

    def test_polytope_file_is_not_a_diamond(self):
        result = run_cli(["diamond", str(FIXTURES / "p2.poly")])
        assert result.exit_code == 2

    def test_unreadable_path_stays_in_diamond_mode(self):
        result = run_cli(["diamond", str(FIXTURES)])
        assert result.exit_code == 2
        assert f"== {FIXTURES} (diamond) ==" in result.output
        assert "ParseError" in result.output


class TestBatch:
    def test_mixed_directory(self):
        result = run_cli(["batch", str(FIXTURES)])
        assert result.exit_code == 2
        assert "checked 12 inputs" in result.output

    def test_json_and_jobs(self):
        res1 = run_cli(["batch", str(FIXTURES), "--format", "json"])
        res4 = run_cli(["batch", str(FIXTURES), "--format", "json", "--jobs", "4"])
        assert json.loads(res1.output) == json.loads(res4.output)

    def test_json_is_json_dumps_of_the_report(self):
        result = run_cli(["batch", "--format", "json", str(FIXTURES)])
        report = run_batch([str(FIXTURES)])
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert result.output == expected

    def test_all_ok(self):
        result = run_cli(["batch", str(FIXTURES / "p2.poly"), str(FIXTURES / "p3.poly")])
        assert result.exit_code == 0


class TestGenerators:
    def test_gen_pn(self, tmp_path):
        out = tmp_path / "p4.poly"
        result = run_cli(["gen", "pn", "4", "-o", str(out)])
        assert result.exit_code == 0
        check = run_cli(["check", str(out)])
        assert check.exit_code == 0

    def test_gen_pn_invalid(self, tmp_path):
        out = tmp_path / "x.poly"
        result = run_cli(["gen", "pn", "0", "-o", str(out)])
        assert result.exit_code != 0
        assert result.exit_code == 1
        assert result.output == ""
        assert result.stderr == "Error: projective space needs n >= 1, got 0\n"
        assert not out.exists()

    def test_gen_sum(self, tmp_path):
        a = tmp_path / "p1.poly"
        b = tmp_path / "p2.poly"
        out = tmp_path / "sum.poly"
        run_cli(["gen", "pn", "1", "-o", str(a)])
        run_cli(["gen", "pn", "2", "-o", str(b)])
        result = run_cli(["gen", "sum", str(a), str(b), "-o", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote {out}\n"
        assert out.read_text().startswith(f"# direct sum of {a} and {b}\n3 5\n")
        check = run_cli(["check", str(out), "--format", "json"])
        entry = json.loads(check.output)["entries"][0]
        assert entry["betti"] == [1, 2, 2, 1]
        # rationals are serialized as exact p/q strings
        assert entry["identity"]["lhs"] == "11/2"
        assert entry["identity"]["rhs"] == "11/2"

    def test_gen_sum_rejects_singular(self, tmp_path):
        out = tmp_path / "bad_sum.poly"
        result = run_cli(
            [
                "gen", "sum",
                str(FIXTURES / "singular_dp.poly"),
                str(FIXTURES / "p2.poly"),
                "-o", str(out),
            ]
        )
        assert result.exit_code != 0
        assert result.exit_code == 1
        assert result.stderr.startswith("Error: ")
        assert not out.exists()

    def test_corpus_dim2(self, tmp_path):
        out = tmp_path / "corpus"
        result = run_cli(["corpus", "dim2", "-o", str(out)])
        assert result.exit_code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "bl1p2.poly", "bl2p2.poly", "bl3p2.poly", "p1xp1.poly", "p2.poly",
        ]
        named = sorted(line.removeprefix("wrote ") for line in result.output.splitlines())
        assert named == sorted(map(str, out.iterdir()))
        batch = run_cli(["batch", str(out)])
        assert batch.exit_code == 0
        assert "5 ok" in batch.output


class TestUsage:
    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["check"],
            ["batch"],
            ["check", FIXTURES / "p2.poly", "--format", "xml"],
            ["batch", FIXTURES, "--jobs", "x"],
            ["check", FIXTURES / "p2.poly", "--verbose"],
            ["gen"],
        ],
    )
    def test_usage_error_exit_2(self, args):
        result = run_cli(args)
        assert result.exit_code == 2
        assert result.output == ""
        assert result.stderr.startswith("usage: fanocheck")

    @pytest.mark.parametrize("args", [["--help"], ["batch", "--help"], ["gen", "pn", "--help"]])
    def test_help_exit_0(self, args):
        result = run_cli(args)
        assert result.exit_code == 0
        assert result.output.startswith("usage: fanocheck")
        assert result.stderr == ""


class TestTerminal:
    def test_escapes_kept_on_a_terminal(self, tmp_path):
        p2 = tmp_path / "p2\x1b[31m.poly"
        shutil.copy(FIXTURES / "p2.poly", p2)
        for command in (["check", p2], ["batch", tmp_path]):
            piped, terminal = run_cli(command), run_cli(command, tty=True)
            assert terminal.exit_code == piped.exit_code == 0
            assert f"== {p2} (toric) ==" in terminal.output
            assert "\x1b" not in piped.output
            assert terminal.output.replace("\x1b[31m", "") == piped.output


class _ClosedPipe(io.StringIO):
    """A stdout whose reader goes away after `budget` characters."""

    def __init__(self, fd: int, budget: int):
        super().__init__()
        self.fd, self.budget = fd, budget

    def write(self, text: str) -> int:
        self.budget -= len(text)
        if self.budget < 0:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)

    def fileno(self) -> int:
        return self.fd


class TestClosedStdout:
    """A reader that stops early is not an identity violation: exit 141."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("budget", [0, 1000])
    def test_in_process(self, tmp_path, monkeypatch, fmt, budget):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, budget))
            with pytest.raises(SystemExit) as exc:
                main(["batch", "--format", fmt, str(FIXTURES)])
            assert exc.value.code == 141
            # the flush at exit writes to devnull
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_pipe(self, fmt):
        # buffered stdout, so that the report is still buffered at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(
                [sys.executable, "-c", "from fanocheck.cli import main; main()",
                 "batch", "--format", fmt, str(FIXTURES)],
                stdout=write,
                stderr=subprocess.PIPE,
                env=dict(env, PYTHONPATH=str(SRC)),
                timeout=60,
            )
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (141, b"")


class TestStartup:
    def test_import_loads_only_what_a_check_runs(self):
        code = (
            "import sys, fanocheck.cli; print(' '.join(m for m in "
            "('click', 'logging', 'concurrent.futures', 'fanocheck.corpus') "
            "if m in sys.modules))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
            check=True,
        )
        assert child.stdout == "\n"

    def test_public_names_resolve(self):
        for name in fanocheck.__all__:
            assert getattr(fanocheck, name) is getattr(
                sys.modules[f"fanocheck.{fanocheck._SOURCE[name]}"], name
            )
        with pytest.raises(AttributeError):
            fanocheck.no_such_name
        from fanocheck import pipeline

        assert pipeline is sys.modules["fanocheck.pipeline"]
