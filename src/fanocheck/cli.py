"""Command-line interface.

The commands are parsed by the standard library's argparse, and the
generators load only when a `gen` or `corpus` command runs, so a check
spends as little as it can on starting up.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .errors import FanocheckError
from .pipeline import RunReport, run_batch, run_check

# Escape sequences and C1 controls a file name can carry into a text report.
# They reach a terminal as they are and are dropped from anything else: an
# ECMA-48 control sequence (CSI, as ESC [ or U+009B); a string control (OSC,
# DCS, SOS, PM, APC, as ESC and a letter or as one C1 control) up to BEL or
# ST (ESC \ or U+009C); any other escape, with its intermediate and final
# bytes; a lone ESC; and any other C1 control, U+0080-U+009F.
_ESCAPE = re.compile(
    r"(?:\x1b\[|\x9b)[\x30-\x3f]*[\x20-\x2f]*[\x40-\x7e]"
    r"|(?:\x1b[]PX^_]|[\x90\x98\x9d-\x9f])[^\x07\x1b\x9c]*(?:\x07|\x9c|\x1b\\)"
    r"|\x1b[\x20-\x2f]*[\x30-\x7e]"
    r"|[\x1b\x80-\x9f]"
)


def _write(chunks) -> None:
    """Write text chunks to stdout, without escape sequences or C1 controls
    unless stdout is a terminal.

    A file name that is not UTF-8 holds lone surrogates; where stdout's
    encoder is strict they are written as backslash escapes, as on stderr.
    """
    if getattr(sys.stdout, "errors", None) == "strict":
        sys.stdout.reconfigure(errors="backslashreplace")
    if not sys.stdout.isatty():
        # _ESCAPE has no literal first character for the regex engine to look
        # for, so a chunk with neither ESC nor C1, as most are, skips its scan.
        chunks = (_ESCAPE.sub("", c) if "\x1b" in c or not c.isascii() else c for c in chunks)
    sys.stdout.writelines(chunks)


def _emit(report: RunReport, fmt: str) -> None:
    """Write the report one entry at a time, then flush once.

    JSON text is ASCII with every control character escaped, so it goes to
    stdout unchanged; text reports go through _write.
    """
    if fmt == "json":
        sys.stdout.writelines(report.iter_json())
    else:
        _write(report.iter_text())
    sys.stdout.write("\n")
    sys.stdout.flush()


def _wrote(paths) -> None:
    """Name each written file on stdout, then flush."""
    _write(f"wrote {path}\n" for path in paths)
    sys.stdout.flush()


def _output(emit, *args) -> int:
    """Call emit(*args), which writes to stdout and flushes it; return 0,
    141 (128 + SIGPIPE, none of the report's codes) when the reader of
    stdout went away, or 74 (EX_IOERR) when stdout cannot be written."""
    try:
        emit(*args)
    except BrokenPipeError:
        code = 141
    except OSError as exc:
        print(f"Error: cannot write the report: {exc}", file=sys.stderr)
        code = 74
    else:
        return 0
    # As the signal module's documentation advises: point stdout at
    # devnull, so that the flush at exit does not raise again.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return code


# Each command returns what it made, a report or the paths it wrote, and
# main writes it; a generator's error reaches main as an exception.
def _check(args) -> RunReport:
    return RunReport((run_check(args.file, dual=args.dual, mode=args.mode),))


def _batch(args) -> RunReport:
    return run_batch(args.paths)


def _gen_pn(args) -> list:
    from .corpus import gen_pn
    from .files import write_polytope

    write_polytope(gen_pn(args.n), args.output, comment=f"P^{args.n}")
    return [args.output]


def _gen_sum(args) -> list:
    from .corpus import gen_direct_sum
    from .files import read_polytope, write_polytope

    S = gen_direct_sum(read_polytope(args.file1), read_polytope(args.file2))
    write_polytope(S, args.output, comment=f"direct sum of {args.file1} and {args.file2}")
    return [args.output]


def _corpus_dim2(args) -> list:
    from .corpus import dim2_corpus
    from .files import write_polytope

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in dim2_corpus():
        paths.append(out / f"{entry.name.lower()}.poly")
        write_polytope(entry.polytope, paths[-1], comment=entry.name)
    return paths


def _command(commands, name: str, doc: str, run=None) -> argparse.ArgumentParser:
    """A subcommand whose help is `--help` alone, as on the top level."""
    parser = commands.add_parser(name, help=doc, description=doc, add_help=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    if run is not None:
        parser.set_defaults(run=run)
    return parser


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Exact invariants and identity checks for smooth toric Fano polytopes.",
        add_help=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    check = _command(
        commands, "check", "Validate and verify a single polytope or diamond file.", _check
    )
    check.set_defaults(mode="auto")
    check.add_argument("file", metavar="FILE")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--dual",
        action="store_true",
        help="FILE holds the dual (M-side) polytope; reconstruct the N-side one first.",
    )

    batch = _command(
        commands,
        "batch",
        "Check many files (directories are scanned for *.poly and *.json).",
        _batch,
    )
    batch.add_argument("paths", nargs="+", metavar="PATH")
    batch.add_argument("--format", choices=("text", "json"), default="text")
    batch.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="No effect: inputs are checked one after another (kept for old scripts).",
    )

    diamond = _command(
        commands, "diamond", "Verify a Hodge diamond file (forces diamond mode).", _check
    )
    diamond.set_defaults(mode="diamond", dual=False)
    diamond.add_argument("file", metavar="FILE")
    diamond.add_argument("--format", choices=("text", "json"), default="text")

    gen = _command(commands, "gen", "Generate polytope files.")
    generators = gen.add_subparsers(metavar="COMMAND", required=True)
    pn = _command(
        generators, "pn", "Write the projective n-space polytope to OUTPUT.", _gen_pn
    )
    pn.add_argument("n", type=int, metavar="N")
    pn.add_argument("-o", "--output", required=True)
    direct_sum = _command(
        generators,
        "sum",
        "Write the direct sum of the polytopes in FILE1 and FILE2.",
        _gen_sum,
    )
    direct_sum.add_argument("file1", metavar="FILE1")
    direct_sum.add_argument("file2", metavar="FILE2")
    direct_sum.add_argument("-o", "--output", required=True)

    corpus = _command(commands, "corpus", "Built-in verification corpora.")
    corpora = corpus.add_subparsers(metavar="COMMAND", required=True)
    dim2 = _command(
        corpora,
        "dim2",
        "Write the five smooth toric del Pezzo polytopes into OUTPUT_DIR.",
        _corpus_dim2,
    )
    dim2.add_argument("-o", "--output-dir", required=True)
    return parser


def main(args=None, prog_name=None):
    """Run one command, write its result to stdout and exit with its
    status: 0-3 from the report, 141 when stdout closed early, 74 when it
    cannot be written, 1 for a `gen` or `corpus` error (one `Error:` line
    on stderr), 2 for a usage error.

    args defaults to sys.argv[1:], prog_name to "fanocheck".
    """
    ns = _parser(prog_name or "fanocheck").parse_args(args)
    try:
        result = ns.run(ns)
    except (FanocheckError, OSError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)
    if isinstance(result, RunReport):
        sys.exit(_output(_emit, result, ns.format) or result.aggregate["exit_status"])
    sys.exit(_output(_wrote, result))
