"""Command-line interface, run in process."""

import ast
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from importlib import import_module
from pathlib import Path

import pytest

import fanocheck
from fanocheck import run_batch
from fanocheck.cli import main
from fanocheck.errors import NotSmooth

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

    def test_json_and_jobs(self, monkeypatch):
        # --jobs has no effect: the same bytes and exit code, and no thread
        # starts, whatever the count and however many CPUs there are.
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        plain = run_cli(["batch", FIXTURES, "--format", "json"])
        assert plain.exit_code == 2
        for jobs in ("1", "2", "10000"):
            assert run_cli(["batch", FIXTURES, "--format", "json", "--jobs", jobs]) == plain
        assert started == []

    def test_json_is_json_dumps_of_the_report(self):
        result = run_cli(["batch", "--format", "json", str(FIXTURES)])
        report = run_batch([str(FIXTURES)])
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert result.output == expected

    def test_all_ok(self):
        result = run_cli(["batch", str(FIXTURES / "p2.poly"), str(FIXTURES / "p3.poly")])
        assert result.exit_code == 0

    def test_serre_text_shown_once(self, tmp_path):
        # Two tables, each Hodge symmetric but h[0][0] != h[2][2]: the
        # first reaches the table checks through pipeline's first-call
        # stand-in, the second directly, and the one text is shown once.
        for name, corner in (("a.json", 3), ("b.json", 4)):
            h = [[1, 0, 0], [0, 1, 0], [0, 0, corner]]
            (tmp_path / name).write_text(json.dumps({"n": 2, "h": h}))
        child = subprocess.run(
            [sys.executable, "-c", "from fanocheck.cli import main; main()", "batch", tmp_path],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert child.returncode == 0
        assert child.stderr.count("SerreDualityWarning: h[0][0] != h[2][2]") == 1

    def test_fifo_in_a_directory_is_one_parse_error(self, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        shutil.copy(FIXTURES / "p2.poly", tmp_path)
        fifo = tmp_path / "x.poly"
        os.mkfifo(fifo)
        # In a child with a timeout, so that a read waiting for a writer
        # fails the test instead of hanging it.
        child = subprocess.run(
            [sys.executable, "-c", "from fanocheck.cli import main; main()",
             "batch", str(tmp_path), "--format", "json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert child.returncode == 2
        entries = json.loads(child.stdout)["entries"]
        assert [(e["name"], e["status"], e["error"]) for e in entries] == [
            (str(tmp_path / "p2.poly"), "ok", None),
            (str(fifo), "parse_error", f"ParseError: not a regular file: '{fifo}'"),
        ]


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
        with pytest.raises(NotSmooth) as info:
            fanocheck.polar_dual(fanocheck.read_polytope(FIXTURES / "singular_dp.poly"))
        assert str(info.value) == "facet with normal (1, -1) has vertex determinant != +/-1"
        assert result.stderr == f"Error: {info.value}\n"
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

    @staticmethod
    def _bad_parent(tmp_path, kind):
        """A directory path that cannot be written into: one that does not
        exist, or a regular file."""
        if kind == "missing":
            return tmp_path / "missing"
        parent = tmp_path / "file"
        parent.write_text("")
        return parent

    @staticmethod
    def _assert_one_error_line(result):
        assert result.exit_code == 1
        assert result.output == ""
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_gen_pn_unwritable_output(self, tmp_path, kind):
        out = self._bad_parent(tmp_path, kind) / "x.poly"
        self._assert_one_error_line(run_cli(["gen", "pn", "2", "-o", out]))

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_gen_sum_unwritable_output(self, tmp_path, kind):
        out = self._bad_parent(tmp_path, kind) / "s.poly"
        p2 = FIXTURES / "p2.poly"
        self._assert_one_error_line(run_cli(["gen", "sum", p2, p2, "-o", out]))

    def test_gen_sum_missing_input(self, tmp_path):
        # one line, in the OSError's words, which name the path once
        missing, out = tmp_path / "nope.poly", tmp_path / "s.poly"
        result = run_cli(["gen", "sum", missing, FIXTURES / "p2.poly", "-o", out])
        self._assert_one_error_line(result)
        assert result.stderr.count(str(missing)) == 1
        assert not out.exists()

    # A missing output directory is made, so only a file in the way fails.
    @pytest.mark.parametrize("inner", ["", "x"], ids=["is_a_file", "under_a_file"])
    def test_corpus_dim2_unwritable_output_dir(self, tmp_path, inner):
        out = self._bad_parent(tmp_path, "file") / inner
        self._assert_one_error_line(run_cli(["corpus", "dim2", "-o", out]))


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

    @pytest.mark.parametrize(
        "sequence",
        [
            "\x1b]0;t\x07", "\x1b]0;t\x1b\\", "\x1b[2~", "\x1b[38:5:1m", "\x1bc",
            "\u009b31m", "\u009d0;t\u009c", "\u0085",
        ],
        ids=["osc-bel", "osc-st", "csi-tilde", "csi-colon", "ris", "c1-csi", "c1-osc", "nel"],
    )
    def test_every_escape_dropped_off_a_terminal(self, tmp_path, sequence):
        shutil.copy(FIXTURES / "p2.poly", tmp_path / f"a{sequence}b.poly")
        piped = run_cli(["batch", tmp_path])
        terminal = run_cli(["batch", tmp_path], tty=True)
        assert terminal.exit_code == piped.exit_code == 0
        assert f"== {tmp_path / f'a{sequence}b.poly'} (toric) ==" in terminal.output
        assert not re.search("[\x1b\x80-\x9f]", piped.output)
        # the rest of the name stays: a<sequence>b reads ab
        assert terminal.output.replace(sequence, "") == piped.output


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

    @staticmethod
    def run_closed(args, cwd=None) -> tuple[int, bytes]:
        """Exit code and stderr of `fanocheck ARGS` in a child whose stdout
        is a pipe with its read end closed."""
        # buffered stdout, so that the output is still buffered at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(
                [sys.executable, "-c", "from fanocheck.cli import main; main()", *args],
                stdout=write,
                stderr=subprocess.PIPE,
                env=dict(env, PYTHONPATH=str(SRC)),
                cwd=cwd,
                timeout=60,
            )
        finally:
            os.close(write)
        return child.returncode, child.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_pipe(self, fmt):
        assert self.run_closed(["batch", "--format", fmt, str(FIXTURES)]) == (141, b"")

    @pytest.mark.parametrize(
        "args, written",
        [
            (["gen", "pn", "2", "-o", "p2.poly"], ["p2.poly"]),
            (
                ["gen", "sum", str(FIXTURES / "p2.poly"), str(FIXTURES / "p3.poly"),
                 "-o", "sum.poly"],
                ["sum.poly"],
            ),
            (
                ["corpus", "dim2", "-o", "corpus"],
                [f"corpus/{name}.poly" for name in ("p2", "p1xp1", "bl1p2", "bl2p2", "bl3p2")],
            ),
        ],
    )
    def test_generators_closed_pipe(self, tmp_path, args, written):
        assert self.run_closed(args, cwd=tmp_path) == (141, b"")
        for name in written:
            assert run_cli(["check", tmp_path / name]).exit_code == 0


def _non_utf8_copy(directory: Path) -> Path:
    """A copy of p2.poly in `directory` whose name holds the byte 0xff."""
    path = directory / os.fsdecode(b"a\xff.poly")
    try:
        shutil.copy(FIXTURES / "p2.poly", path)
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    return path


def _run(args, stdout=subprocess.PIPE, **env) -> subprocess.CompletedProcess:
    """`fanocheck ARGS` in a child, with ENV added to its environment."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    return subprocess.run(
        [sys.executable, "-c", "from fanocheck.cli import main; main()", *map(str, args)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=dict(base, PYTHONPATH=str(SRC), **env),
        timeout=60,
    )


class TestStrictStdout:
    """A name that is not UTF-8, on a stdout whose encoder is strict, is
    written with the escape that the JSON report uses."""

    STRICT = {"PYTHONIOENCODING": "utf-8:strict"}

    def test_text_reports(self, tmp_path):
        path = _non_utf8_copy(tmp_path)
        for args in (["batch", tmp_path], ["check", path]):
            child = _run(args, **self.STRICT)
            assert (child.returncode, child.stderr) == (0, b"")
            assert b"a\\udcff.poly (toric) ==" in child.stdout

    def test_json_report_is_unchanged(self, tmp_path):
        _non_utf8_copy(tmp_path)
        args = ["batch", tmp_path, "--format", "json"]
        strict, default = _run(args, **self.STRICT), _run(args)
        assert strict.returncode == default.returncode == 0
        assert b'a\\udcff.poly"' in default.stdout
        assert strict.stdout == default.stdout

    def test_gen_names_what_it_wrote(self, tmp_path):
        out = _non_utf8_copy(tmp_path).with_name(os.fsdecode(b"\xff.poly"))
        child = _run(["gen", "pn", "2", "-o", out], **self.STRICT)
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout.endswith(b"\\udcff.poly\n")
        assert run_cli(["check", out]).exit_code == 0


class TestUnwritableStdout:
    """A stdout that cannot take the report is EX_IOERR, 74, not an
    identity violation."""

    @pytest.mark.parametrize(
        "args",
        [
            ["batch", FIXTURES, "--format", "json"],
            ["batch", FIXTURES, "--format", "text"],
            ["gen", "pn", "2", "-o", "p2.poly"],
        ],
    )
    def test_full_device(self, tmp_path, monkeypatch, args):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        monkeypatch.chdir(tmp_path)
        with open("/dev/full", "wb") as full:
            child = _run(args, stdout=full)
        assert child.returncode == 74
        assert child.stderr.decode().splitlines() == [
            "Error: cannot write the report: [Errno 28] No space left on device"
        ]


_CHECK_MODULES = {
    f"fanocheck.{m}"
    for m in ("diamond", "files", "identity", "invariants", "lattice", "reference")
}
_TORIC_MODULES = _CHECK_MODULES - {"fanocheck.diamond", "fanocheck.reference"}


def _child(code: str, *args) -> str:
    """stdout of `python -c code ARGS` in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
        check=True,
    )
    return child.stdout


def _loaded_after(args) -> set[str]:
    """The modules a fresh interpreter has loaded after `fanocheck ARGS`."""
    code = (
        "import sys, io\n"
        "from fanocheck.cli import main\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "out.write(' '.join(sys.modules))\n"
    )
    return set(_child(code, *args).split())


class TestStartup:
    def test_import_loads_only_what_a_check_runs(self):
        code = (
            "import sys, fanocheck.cli; print(' '.join(m for m in "
            "('click', 'logging', 'concurrent.futures', 'fanocheck.corpus', "
            "'dataclasses', 'inspect') "
            "if m in sys.modules))"
        )
        assert _child(code) == "\n"

    def test_empty_batch_loads_no_check_module(self, tmp_path):
        loaded = _loaded_after(["batch", tmp_path])
        assert not loaded & (_CHECK_MODULES | {"fractions", "json"})

    def test_threaded_polytope_batch_loads_only_what_it_runs(self, tmp_path):
        for name in ("p2.poly", "p3.poly", "p1xp2.poly", "not_reflexive.poly"):
            shutil.copy(FIXTURES / name, tmp_path)
        # --jobs is accepted and runs the one sequential path
        loaded = _loaded_after(["batch", tmp_path, "--jobs", "2", "--format", "json"])
        assert loaded & _CHECK_MODULES == _TORIC_MODULES
        assert not loaded & {"concurrent.futures", "logging", "fractions", "decimal", "json"}

    def test_diamond_batch_loads_no_toric_module(self, tmp_path):
        for name in ("k3.json", "asym.json", "k3_no_chern.json"):
            shutil.copy(FIXTURES / name, tmp_path)
        for jobs in ([], ["--jobs", "2"]):
            loaded = _loaded_after(["batch", tmp_path, "--format", "json", *jobs])
            assert loaded & _CHECK_MODULES == {
                "fanocheck.diamond",
                "fanocheck.files",
                "fanocheck.identity",
            }
            # the reports, with and without Chern numbers, build no Fraction
            assert not loaded & {"fractions", "decimal"}

    def test_polytope_check_loads_no_diamond_module(self):
        # A toric report is built from the Betti numbers, with no diamond.
        loaded = _loaded_after(["check", FIXTURES / "p2.poly"])
        assert loaded & _CHECK_MODULES == _TORIC_MODULES

    def test_tracer_names_exist_before_a_check(self):
        source = (SRC.parent / "bench" / "tracer.py").read_text()
        names = sorted(set(re.findall(r"(?<![\w.\"])pipeline\.(\w+)", source)))
        assert {"polar_dual", "loads_diamond", "compute_invariants"} <= set(names)
        code = (
            "import sys; from fanocheck import pipeline; "
            f"print([n for n in {names!r} if not callable(getattr(pipeline, n, None))], "
            f"sorted({{*sys.modules}} & {_CHECK_MODULES!r}))"
        )
        assert _child(code) == "[] []\n"

    def test_each_stand_in_is_called_or_traced(self):
        # A first-call stand-in in pipeline is bound only for a reader: a
        # call in pipeline's own functions or a pipeline.<name> in the tracer.
        tree = ast.parse((SRC / "fanocheck" / "pipeline.py").read_text())
        bound = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "_on_first_call"
            for target in node.targets
        }
        called = {
            node.func.id
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        source = (SRC.parent / "bench" / "tracer.py").read_text()
        traced = set(re.findall(r"(?<![\w.\"])pipeline\.(\w+)", source))
        assert {"polar_dual", "diamond_identity", "compute_invariants"} <= bound
        assert sorted(bound - called - traced) == []

    def test_every_stand_in_resolves(self):
        # Nothing calls the stand-ins that only the tracer reads, so a
        # stand-in pointing at a name its module lacks fails only here.
        tree = ast.parse((SRC / "fanocheck" / "pipeline.py").read_text())
        targets = [
            [arg.value for arg in node.args]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_on_first_call"
        ]
        assert targets
        missing = [
            (module, attribute[-1])
            for module, *attribute in targets
            if not callable(getattr(import_module(f"fanocheck.{module}"), attribute[-1], None))
        ]
        assert missing == []

    def test_reference_lives_in_one_module(self):
        # The reference derivations are defined in fanocheck.reference
        # alone, and besides the public table only the tracer's four
        # stand-ins in pipeline name that module.
        reference = set(fanocheck._PUBLIC["reference"])
        defined, naming = [], []
        for path in sorted((SRC / "fanocheck").glob("*.py")):
            if path.stem == "reference":
                continue
            for top in ast.parse(path.read_text()).body:
                if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in reference:
                    defined.append(f"{path.stem}.{top.name}")
                if any(
                    isinstance(node, ast.Constant) and node.value == "reference"
                    or isinstance(node, ast.ImportFrom) and node.module == "reference"
                    for node in ast.walk(top)
                ):
                    label = top.targets[0] if isinstance(top, ast.Assign) else top
                    naming.append(f"{path.stem}.{ast.unparse(label)}")
        assert defined == []
        assert naming == ["__init__._PUBLIC"] + [
            f"pipeline.{name}"
            for name in (
                "compute_invariants",
                "second_derivative_at_one",
                "face_lattice",
                "facet_enumeration",
            )
        ]

    def test_pipeline_names_no_verdict(self):
        # IdentityReport writes its own verdicts, so no string in pipeline
        # names one; identity tests the odd-cohomology hypothesis, so
        # pipeline never reads it.
        from fanocheck.identity import IdentityReport

        verdicts = {
            name for name in dir(IdentityReport) if name == "equality" or name.endswith("_ok")
        }
        assert len(verdicts) == 4
        tree = ast.parse((SRC / "fanocheck" / "pipeline.py").read_text())
        strings = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert sorted(strings & verdicts) == []
        assert "is_odd_vanishing" not in attributes

    def test_pipeline_refuses_in_one_place(self):
        # Only _refused decides a refused entry's status and writes its
        # error, in the words of the exception that stopped it.
        tree = ast.parse((SRC / "fanocheck" / "pipeline.py").read_text())
        found = []
        for top in tree.body:
            if getattr(top, "name", None) in ("_refused", "CheckStatus"):
                continue
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("PARSE_ERROR", "VALIDATION_ERROR")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "CheckStatus"
                ):
                    found.append(ast.unparse(node))
                if isinstance(node, ast.FormattedValue) and ast.unparse(node.value) == (
                    "type(exc).__name__"
                ):
                    found.append(ast.unparse(node.value))
        assert found == []

    def test_wrappers_set_before_a_check_are_kept(self):
        code = f"""
import json
from fanocheck import pipeline

calls = dict.fromkeys(("polar_dual", "loads_diamond", "diamond_identity"), 0)
wrappers = {{}}
for name in calls:
    def wrapper(*args, _name=name, _real=getattr(pipeline, name)):
        calls[_name] += 1
        return _real(*args)
    wrappers[name] = wrapper
    setattr(pipeline, name, wrapper)
pipeline.run_batch([{str(FIXTURES)!r}])
print(json.dumps([calls, [getattr(pipeline, n) is w for n, w in wrappers.items()]]))
"""
        calls, kept = json.loads(_child(code))
        # 6 of the polytope files parse and go to polar_dual; 5 files are
        # diamond files, and 4 of them hold a valid table
        assert calls == {"polar_dual": 6, "loads_diamond": 5, "diamond_identity": 4}
        assert kept == [True, True, True]

    def test_threads_report_what_one_worker_does(self):
        # A fresh interpreter's first batch, given --jobs 2, writes the
        # report that the plain sequential run_batch builds.
        code = f"""
import io, sys, threading
from fanocheck.cli import main
from fanocheck.pipeline import run_batch

out, sys.stdout = sys.stdout, io.StringIO()
try:
    main(["batch", {str(FIXTURES)!r}, "--format", "json", "--jobs", "2"])
except SystemExit:
    pass
written, sys.stdout = sys.stdout.getvalue(), out
print(written == run_batch([{str(FIXTURES)!r}]).to_json() + "\\n", threading.active_count())
"""
        assert _child(code) == "True 1\n"

    def test_first_calls_race_in_threads(self):
        # Eight threads make the first calls of every stand-in at once,
        # switching every microsecond, with no module imported beforehand.
        code = f"""
import os, sys, threading
from fanocheck.pipeline import RunReport, run_check

paths = sorted(os.path.join({str(FIXTURES)!r}, n) for n in os.listdir({str(FIXTURES)!r}))
start = threading.Barrier(8)
reports = []

def work():
    start.wait()
    reports.append(RunReport(tuple(map(run_check, paths))).to_json())

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=50)
finally:
    sys.setswitchinterval(interval)
sequential = RunReport(tuple(map(run_check, paths))).to_json()
print(any(t.is_alive() for t in threads), len(reports), set(reports) == {{sequential}})
"""
        assert _child(code) == "False 8 True\n"

    def test_public_names_resolve(self):
        for name in fanocheck.__all__:
            assert getattr(fanocheck, name) is getattr(
                sys.modules[f"fanocheck.{fanocheck._SOURCE[name]}"], name
            )
        with pytest.raises(AttributeError):
            fanocheck.no_such_name
        from fanocheck import pipeline

        assert pipeline is sys.modules["fanocheck.pipeline"]
