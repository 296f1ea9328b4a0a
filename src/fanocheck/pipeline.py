"""End-to-end checking pipeline and machine-readable reports.

A polytope input runs validate (hull, reflexive, smooth) -> dual ->
invariants from the fan and the dual's vertices, checked against each
other -> identity verifications; a diamond input runs the diamond-mode
verifications.  Any exception that is not about the input is reported as
an internal error, so a batch always runs to its end.  Reports serialize
rationals as "p/q" strings so nothing is rounded.
"""

from __future__ import annotations

import enum
import os
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import identity as idmod
from .diamond import chi_p, defect
from .errors import (
    DegenerateInput,
    NotReflexive,
    NotSmooth,
    OriginNotInterior,
    ParseError,
    RedundantVertex,
    ValidationError,
)
from .files import DiamondFile, decode_text, loads_diamond, loads_polytope
from .invariants import ToricInvariants, toric_invariants
from .lattice import FanoPolytope, polar_dual, reflexive_dual
from .value import Value, set_field

# Not called here any more.  bench/tracer.py rebinds these four names (and
# lattice.combinations), and its traced run stops when one is missing.
from .invariants import compute_invariants, second_derivative_at_one  # noqa: F401
from .lattice import face_lattice, facet_enumeration  # noqa: F401


class CheckStatus(enum.Enum):
    OK = "ok"
    IDENTITY_VIOLATION = "identity_violation"
    VALIDATION_ERROR = "validation_error"
    PARSE_ERROR = "parse_error"
    INTERNAL_ERROR = "internal_error"

    @property
    def exit_code(self) -> int:
        return {
            CheckStatus.OK: 0,
            CheckStatus.IDENTITY_VIOLATION: 1,
            CheckStatus.VALIDATION_ERROR: 2,
            CheckStatus.PARSE_ERROR: 2,
            CheckStatus.INTERNAL_ERROR: 3,
        }[self]


class ToricAnalysis(Value):
    """Everything computed for one validated smooth toric Fano polytope."""

    __slots__ = _fields = ("polytope", "delta", "invariants", "report", "consistency")

    def __init__(
        self,
        polytope: FanoPolytope,
        delta: FanoPolytope,
        invariants: ToricInvariants,
        report: idmod.IdentityReport,
        consistency: dict[str, bool],
    ):
        set_field(self, "polytope", polytope)
        set_field(self, "delta", delta)
        set_field(self, "invariants", invariants)
        set_field(self, "report", report)
        set_field(self, "consistency", consistency)


# Repeats in a batch are rarely 64 distinct inputs apart; a long batch of
# distinct inputs evicts the oldest analyses instead of growing.
@lru_cache(maxsize=64)
def analyze(P: FanoPolytope) -> ToricAnalysis:
    """Run the full pipeline on P; raises the hull's errors, NotReflexive or
    NotSmooth before any invariant is computed.

    The invariants come from the fan of P and the vertices of its dual;
    consistency records whether the two derivations agree.  The most recent
    analyses are cached per polytope (everything involved is immutable).
    """
    delta = polar_dual(P)  # raises every validation failure
    inv, consistent = toric_invariants(P, delta)
    return ToricAnalysis(
        polytope=P,
        delta=delta,
        invariants=inv,
        report=idmod.toric_identity_report(inv),
        consistency={"fan_vs_dual": consistent},
    )


def clear_caches() -> None:
    """Drop the cached analyses (mainly for timing runs); a polytope's hull
    lives on the polytope, so it goes when the polytope does."""
    analyze.cache_clear()


def dumps_json(value, _pad: str = "\n") -> str:
    """JSON text of a report-shaped value (dicts with str keys, lists,
    str, int, bool, None), identical to json.dumps(value, indent=2,
    sort_keys=True); json.dumps runs its pure-Python encoder whenever
    indent is set."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = _pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not str
        items = [
            f"{encode_basestring_ascii(k)}: {dumps_json(v, inner)}"
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + _pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if {*map(type, value)} == {int}:
            items = map(int.__repr__, value)
        else:
            items = [dumps_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + _pad + "]"
    raise TypeError(f"{kind.__name__} has no place in a report")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# The verdict fields of an IdentityReport, in the order text reports list them.
_VERDICTS = (
    "equality",
    "inequality_ok",
    "chi_identity_ok",
    "quarter_form_ok",
    "face_count_ok",
)


def _report_dict(report: idmod.IdentityReport) -> dict:
    out = {
        "lhs": _frac_str(report.lhs),
        "defect": _frac_str(report.defect),
        "rhs": None if report.rhs is None else _frac_str(report.rhs),
    }
    for key in _VERDICTS:
        out[key] = getattr(report, key)
    return out


class EntryReport(Value):
    """Outcome of checking one input; mode is "toric" or "diamond", and
    payload is a new dict unless one is given."""

    __slots__ = _fields = ("name", "mode", "status", "error", "payload")

    def __init__(
        self,
        name: str,
        mode: str,
        status: CheckStatus,
        error: str | None = None,
        payload: dict | None = None,
    ):
        set_field(self, "name", name)
        set_field(self, "mode", mode)
        set_field(self, "status", status)
        set_field(self, "error", error)
        set_field(self, "payload", {} if payload is None else payload)

    @property
    def passed(self) -> bool:
        return self.status is CheckStatus.OK

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "status": self.status.value,
            "error": self.error,
            **self.payload,
        }

    def to_text(self) -> str:
        lines = [f"== {self.name} ({self.mode}) =="]
        p = self.payload
        if "n" in p:
            lines.append(f"dimension: {p['n']}")
        if "valid" in p:
            flags = " ".join(f"{k}={_yesno(v)}" for k, v in p["valid"].items())
            lines.append(f"validity: {flags}")
        if "f_vector" in p:
            lines.append(f"dual f-vector: {tuple(p['f_vector'])}")
        if "betti" in p:
            lines.append(f"betti: {tuple(p['betti'])}")
        if "c_n" in p:
            lines.append(f"c_n = {p['c_n']}, c1*c_(n-1) = {p['c1_cn1']}")
        if "identity" in p:
            ident = p["identity"]
            lines.append(
                f"identity: lhs = {ident['lhs']}, rhs = {ident['rhs']}, "
                f"defect = {ident['defect']}"
            )
            verdicts = " ".join(
                f"{k}={_yesno(ident[k])}" for k in _VERDICTS if ident[k] is not None
            )
            lines.append(f"verdicts: {verdicts}")
        if "consistency" in p:
            lines.append(
                "consistency: "
                + " ".join(f"{k}={_yesno(v)}" for k, v in p["consistency"].items())
            )
        if self.error:
            lines.append(f"error: {self.error}")
        lines.append(f"status: {self.status.value}")
        return "\n".join(lines)


def _yesno(v) -> str:
    return {True: "yes", False: "NO", None: "n/a"}[v]


def check_polytope(P: FanoPolytope, name: str) -> EntryReport:
    """Validate and fully verify one N-side polytope.

    The validity flags come from the one validation failure `analyze`
    raises, which also names the first check that failed.
    """
    valid = {"primitive": True, "spanning": True, "reflexive": True, "smooth": True}
    payload: dict = {"n": P.dim, "vertex_count": len(P.vertices), "valid": valid}
    error = None
    try:
        analysis = analyze(P)
    except (DegenerateInput, OriginNotInterior, RedundantVertex) as exc:
        # only a non-spanning input fails before the span check passes
        spanning = not isinstance(exc, DegenerateInput)
        valid.update(spanning=spanning, reflexive=None, smooth=None)
        error = f"{type(exc).__name__}: {exc}"
    except NotReflexive:
        valid.update(reflexive=False, smooth=None)
        error = "NotReflexive: a facet lies at lattice distance != 1"
    except NotSmooth:
        valid["smooth"] = False
        error = "NotSmooth: a facet is not a unimodular simplex"
    if error:
        return EntryReport(
            name, "toric", CheckStatus.VALIDATION_ERROR, error=error, payload=payload
        )

    inv = analysis.invariants
    payload.update(
        {
            "f_vector": list(inv.f_vector),
            "betti": list(inv.betti),
            "c_n": inv.c_n,
            "c1_cn1": inv.c1_cn1,
            "identity": _report_dict(analysis.report),
            "consistency": dict(analysis.consistency),
        }
    )
    rep = analysis.report
    passed = (
        bool(rep.equality)
        and rep.defect == 0
        and rep.inequality_ok
        and rep.chi_identity_ok
        and rep.quarter_form_ok
        and rep.face_count_ok
        and all(analysis.consistency.values())
    )
    status = CheckStatus.OK if passed else CheckStatus.IDENTITY_VIOLATION
    return EntryReport(name, "toric", status, payload=payload)


def check_diamond(data: DiamondFile, name: str) -> EntryReport:
    """Verify a user-supplied Hodge diamond.

    A strict inequality is informational, not a failure; only lhs > rhs is a
    violation.  Without both Chern numbers only the defect side is computed.
    """
    diamond = data.diamond
    payload: dict = {
        "n": diamond.n,
        "betti": list(diamond.even_betti()),
        "chi_p": list(chi_p(diamond)),
    }
    if not diamond.is_odd_vanishing:
        return EntryReport(
            name, "diamond", CheckStatus.VALIDATION_ERROR,
            error="HypothesisViolated: diamond has nonzero odd cohomology",
            payload=payload,
        )
    if data.c1_cn1 is None or data.c_n is None:
        payload["identity"] = _report_dict(
            idmod.IdentityReport(
                n=diamond.n,
                lhs=idmod.weighted_betti_sum(diamond.even_betti(), diamond.n),
                defect=defect(diamond),
            )
        )
        payload["note"] = "Chern numbers missing; rhs verifications skipped"
        return EntryReport(name, "diamond", CheckStatus.OK, payload=payload)

    report = idmod.check_betti_chern(diamond, data.c1_cn1, data.c_n)
    payload["c_n"] = data.c_n
    payload["c1_cn1"] = data.c1_cn1
    payload["identity"] = _report_dict(report)
    status = CheckStatus.OK if report.inequality_ok else CheckStatus.IDENTITY_VIOLATION
    return EntryReport(name, "diamond", status, payload=payload)


def run_check(path, dual: bool = False, mode: str = "auto") -> EntryReport:
    """Check one input file; no `Exception` escapes it.

    A problem with the input is a parse or validation error; any other
    exception is a fault of the program, reported as an internal error.

    mode "auto" treats files whose first nonblank byte is '{' as diamond
    JSON and everything else as a polytope file; a file that is not UTF-8
    is a parse error.  With dual=True the file holds the dual (M-side)
    polytope and the N-side one is reconstructed by duality before the
    pipeline runs.
    """
    name = str(path)
    is_diamond = mode == "diamond"
    try:
        with open(path, "rb") as f:
            data = f.read()
        is_diamond = is_diamond or (mode == "auto" and data.lstrip().startswith(b"{"))
        text = decode_text(data)
        if is_diamond:
            if dual:
                raise ValidationError("--dual applies to polytope files only")
            return check_diamond(loads_diamond(text), name)
        P = loads_polytope(text)
        if dual:
            P = reflexive_dual(P)
        return check_polytope(P, name)
    except (OSError, ParseError) as exc:
        status, error = CheckStatus.PARSE_ERROR, f"ParseError: {exc}"
    except ValidationError as exc:
        status, error = CheckStatus.VALIDATION_ERROR, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a fault of the program, not of the input
        import logging  # imported here, so that starting up does not load it

        logging.getLogger(__name__).exception("internal error while checking %s", name)
        status, error = CheckStatus.INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"
    return EntryReport(name, "diamond" if is_diamond else "toric", status, error=error)


class RunReport(Value):
    """Per-entry reports plus order-independent aggregate counts."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[EntryReport, ...]):
        set_field(self, "entries", entries)

    @property
    def counts(self) -> dict[str, int]:
        ok = sum(1 for e in self.entries if e.status is CheckStatus.OK)
        violations = sum(
            1 for e in self.entries if e.status is CheckStatus.IDENTITY_VIOLATION
        )
        errors = len(self.entries) - ok - violations
        return {
            "total": len(self.entries),
            "ok": ok,
            "identity_violations": violations,
            "errors": errors,
        }

    @property
    def exit_status(self) -> int:
        statuses = {e.status for e in self.entries}
        return max((s.exit_code for s in statuses), default=0)

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "aggregate": {**self.counts, "exit_status": self.exit_status},
        }

    def iter_json(self) -> Iterator[str]:
        """to_json() in chunks of one entry each, so neither the whole
        dict tree nor the whole text of a long batch is ever held."""
        aggregate = {**self.counts, "exit_status": self.exit_status}
        yield '{\n  "aggregate": ' + dumps_json(aggregate, "\n  ") + ',\n  "entries": '
        if not self.entries:
            yield "[]\n}"
            return
        sep = "[\n    "
        for e in self.entries:
            yield sep + dumps_json(e.to_dict(), "\n    ")
            sep = ",\n    "
        yield "\n  ]\n}"

    def to_json(self) -> str:
        """to_dict() as json.dumps(..., indent=2, sort_keys=True) writes it."""
        return "".join(self.iter_json())

    def iter_text(self) -> Iterator[str]:
        """to_text() in chunks of one entry each, the summary line last."""
        sep = ""
        for e in self.entries:
            yield sep + e.to_text()
            sep = "\n\n"
        counts = self.counts
        yield (
            f"{sep}checked {counts['total']} inputs: {counts['ok']} ok, "
            f"{counts['identity_violations']} identity violations, "
            f"{counts['errors']} errors"
        )

    def to_text(self) -> str:
        return "".join(self.iter_text())


def _expand_paths(paths) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(q for q in p.iterdir() if q.suffix in (".poly", ".json"))
        else:
            out.append(p)
    return out


def run_batch(paths, jobs: int = 1) -> RunReport:
    """Check many inputs, optionally concurrently.

    At most min(jobs, number of inputs, CPU count) worker threads run, so
    a large --jobs does not start a thread per file.  All shared state is
    immutable (each polytope carries its own hull, and the analysis cache
    holds only finished results), so thread workers are safe; entries are
    sorted by input name, making the report independent of execution order.
    """
    files = _expand_paths(paths)
    workers = min(jobs, len(files), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads logging, which a sequential run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(run_check, files))
    else:
        entries = [run_check(f) for f in files]
    entries.sort(key=lambda e: e.name)
    return RunReport(tuple(entries))
