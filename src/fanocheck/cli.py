"""Command-line interface."""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .corpus import dim2_corpus, gen_direct_sum, gen_pn
from .errors import FanocheckError
from .files import read_polytope, write_polytope
from .pipeline import RunReport, run_batch, run_check


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        click.echo(report.to_json())
    else:
        click.echo(report.to_text())


@click.group()
def main():
    """Exact invariants and identity checks for smooth toric Fano polytopes."""


@main.command()
@click.argument("file", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option(
    "--dual",
    is_flag=True,
    help="FILE holds the dual (M-side) polytope; reconstruct the N-side one first.",
)
def check(file, fmt, dual):
    """Validate and verify a single polytope or diamond file."""
    entry = run_check(file, dual=dual)
    _emit(RunReport((entry,)), fmt)
    sys.exit(entry.status.exit_code)


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--jobs", "-j", type=int, default=1, show_default=True)
def batch(paths, fmt, jobs):
    """Check many files (directories are scanned for *.poly and *.json)."""
    report = run_batch(paths, jobs=jobs)
    _emit(report, fmt)
    sys.exit(report.exit_status)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def diamond(file, fmt):
    """Verify a Hodge diamond file (forces diamond mode)."""
    entry = run_check(file, mode="diamond")
    _emit(RunReport((entry,)), fmt)
    sys.exit(entry.status.exit_code)


@main.group()
def gen():
    """Generate polytope files."""


@gen.command("pn")
@click.argument("n", type=int)
@click.option("-o", "--output", required=True, type=click.Path())
def gen_pn_cmd(n, output):
    """Write the projective n-space polytope to OUTPUT."""
    try:
        P = gen_pn(n)
    except FanocheckError as exc:
        raise click.ClickException(str(exc))
    write_polytope(P, output, comment=f"P^{n}")
    click.echo(f"wrote {output}")


@gen.command("sum")
@click.argument("file1", type=click.Path())
@click.argument("file2", type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path())
def gen_sum_cmd(file1, file2, output):
    """Write the direct sum of the polytopes in FILE1 and FILE2."""
    try:
        P = read_polytope(file1)
        Q = read_polytope(file2)
        S = gen_direct_sum(P, Q)
    except FanocheckError as exc:
        raise click.ClickException(str(exc))
    write_polytope(S, output, comment=f"direct sum of {file1} and {file2}")
    click.echo(f"wrote {output}")


@main.group()
def corpus():
    """Built-in verification corpora."""


@corpus.command("dim2")
@click.option("-o", "--output-dir", required=True, type=click.Path())
def corpus_dim2_cmd(output_dir):
    """Write the five smooth toric del Pezzo polytopes into OUTPUT-DIR."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry in dim2_corpus():
        path = out / f"{entry.name.lower()}.poly"
        write_polytope(entry.polytope, path, comment=entry.name)
        click.echo(f"wrote {path}")
