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

# Escape sequences a file name can carry into a text report.  They reach a
# terminal as they are and are dropped from anything else.
_ESCAPE = re.compile(r"\x1b\[[;?0-9]*[a-zA-Z]")


def _write(chunks) -> None:
    """Write text chunks to stdout, without escape sequences unless stdout
    is a terminal."""
    if not sys.stdout.isatty():
        chunks = (_ESCAPE.sub("", chunk) for chunk in chunks)
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


def _report(report: RunReport, fmt: str) -> int:
    """Write the report and return its exit status, or 141 (128 + SIGPIPE,
    none of the report's codes) when the reader of stdout went away."""
    try:
        _emit(report, fmt)
    except BrokenPipeError:
        # As the signal module's documentation advises: point stdout at
        # devnull, so that the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return report.exit_status


def _error(exc: FanocheckError) -> int:
    print(f"Error: {exc}", file=sys.stderr)
    return 1


def _check(args) -> int:
    return _report(RunReport((run_check(args.file, dual=args.dual),)), args.format)


def _batch(args) -> int:
    return _report(run_batch(args.paths, jobs=args.jobs), args.format)


def _diamond(args) -> int:
    return _report(RunReport((run_check(args.file, mode="diamond"),)), args.format)


def _gen_pn(args) -> int:
    from .corpus import gen_pn
    from .files import write_polytope

    try:
        P = gen_pn(args.n)
    except FanocheckError as exc:
        return _error(exc)
    write_polytope(P, args.output, comment=f"P^{args.n}")
    _write([f"wrote {args.output}\n"])
    return 0


def _gen_sum(args) -> int:
    from .corpus import gen_direct_sum
    from .files import read_polytope, write_polytope

    try:
        S = gen_direct_sum(read_polytope(args.file1), read_polytope(args.file2))
    except FanocheckError as exc:
        return _error(exc)
    write_polytope(S, args.output, comment=f"direct sum of {args.file1} and {args.file2}")
    _write([f"wrote {args.output}\n"])
    return 0


def _corpus_dim2(args) -> int:
    from .corpus import dim2_corpus
    from .files import write_polytope

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry in dim2_corpus():
        path = out / f"{entry.name.lower()}.poly"
        write_polytope(entry.polytope, path, comment=entry.name)
        _write([f"wrote {path}\n"])
    return 0


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
        "-j", "--jobs", type=int, default=1, metavar="N", help="(default: %(default)s)"
    )

    diamond = _command(
        commands, "diamond", "Verify a Hodge diamond file (forces diamond mode).", _diamond
    )
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
    """Run one command and exit with its status: 0-3 from the report, 141
    when stdout closed early, 1 for a `gen` error, 2 for a usage error.

    args defaults to sys.argv[1:], prog_name to "fanocheck".
    """
    ns = _parser(prog_name or "fanocheck").parse_args(args)
    sys.exit(ns.run(ns))
