"""End-to-end checking pipeline and machine-readable reports.

A polytope input runs validate (hull, reflexive, smooth) -> dual ->
invariants from the fan and the dual's vertices, checked against each
other -> identity verifications; a diamond input runs the diamond-mode
verifications.  A batch checks its inputs one after another on the
calling thread, each distinct file content once.  Any exception that is
not about the input is reported as an internal error, so a batch always
runs to its end.  Reports serialize rationals as "p/q" strings so nothing
is rounded.
"""

from __future__ import annotations

import enum
import os
from codecs import BOM_UTF8
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from importlib import import_module
from pathlib import Path

# The C function json.encoder uses, taken from the accelerator itself so
# that writing a report does not load the json package.
from _json import encode_basestring_ascii

from .errors import (
    DegenerateInput,
    HypothesisViolated,
    NonPrimitiveVertex,
    NotReflexive,
    NotSmooth,
    OriginNotInterior,
    ParseError,
    RedundantVertex,
    ValidationError,
)
from .value import Value, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from .identity import IdentityReport
    from .invariants import ToricInvariants
    from .lattice import FanoPolytope


def _on_first_call(module: str, name: str, attribute: str | None = None):
    """A stand-in for `attribute` (`name` by default) of the submodule
    `module`, bound to `name` here, so that a command compiles only the
    modules its inputs need.

    Its first call imports the module and binds the name to the real
    object, unless something else was bound to it since (bench/tracer.py's
    wrappers, which must stay); every call is forwarded to the real object.
    """
    real = None

    def stand_in(*args, **kwargs):
        nonlocal real
        if real is None:
            real = getattr(import_module(f"{__package__}.{module}"), attribute or name)
            if globals()[name] is stand_in:
                globals()[name] = real
        return real(*args, **kwargs)

    return stand_in


read_bytes = _on_first_call("files", "read_bytes")
decode_text = _on_first_call("files", "decode_text")
# A diamond file's text to its checked integers, under the name that
# bench/tracer.py times as the parse of a diamond file.
loads_diamond = _on_first_call("diamond", "loads_diamond", "diamond_integers")
loads_polytope = _on_first_call("files", "loads_polytope")
diamond_identity = _on_first_call("identity", "diamond_identity")
toric_identity_report = _on_first_call("identity", "toric_identity_report")
toric_invariants = _on_first_call("invariants", "toric_invariants")
polar_dual = _on_first_call("lattice", "polar_dual")
reflexive_dual = _on_first_call("lattice", "reflexive_dual")

# Not called here: bench/tracer.py reads these four names of the reference
# derivations from this module to wrap them, and its traced run stops when
# one is missing.
compute_invariants = _on_first_call("reference", "compute_invariants")
second_derivative_at_one = _on_first_call("reference", "second_derivative_at_one")
face_lattice = _on_first_call("reference", "face_lattice")
facet_enumeration = _on_first_call("reference", "facet_enumeration")


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
        report: IdentityReport,
        consistency: dict[str, bool],
    ):
        set_field(self, "polytope", polytope)
        set_field(self, "delta", delta)
        set_field(self, "invariants", invariants)
        set_field(self, "report", report)
        set_field(self, "consistency", consistency)


# A batch checks each distinct file content once, so a repeat reaches this
# cache only as the same vertices written in different bytes (another order
# of the lines, a comment, other spacing), or from a library caller that
# analyzes one polytope again.  Each analysis keeps its polytope and dual
# alive, hulls and per-facet inverses included, so only the last is kept.
@lru_cache(maxsize=1)
def analyze(P: FanoPolytope) -> ToricAnalysis:
    """Run the full pipeline on P; raises the hull's errors, NotReflexive or
    NotSmooth before any invariant is computed.

    The invariants come from the fan of P and the vertices of its dual;
    consistency records whether the two derivations agree.  The most recent
    analysis is cached (everything involved is immutable).
    """
    delta = polar_dual(P)  # raises every validation failure
    inv, consistent = toric_invariants(P, delta)
    return ToricAnalysis(
        polytope=P,
        delta=delta,
        invariants=inv,
        report=toric_identity_report(inv),
        consistency={"fan_vs_dual": consistent},
    )


def clear_caches() -> None:
    """Drop the cached analyses (mainly for timing runs); a polytope's hull
    lives on the polytope, so it goes when the polytope does."""
    analyze.cache_clear()


# JSON text of each scalar type a report holds, by exact type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@lru_cache(maxsize=64)
def _members(keys: tuple, pad: str) -> tuple[tuple[str, str], ...]:
    """The keys in sorted order, each with the text that goes before its
    value: pad, the key as JSON, and ": ".  Raises TypeError on a key that
    is not str, as encode_basestring_ascii does."""
    return tuple((k, f"{pad}{encode_basestring_ascii(k)}: ") for k in sorted(keys))


def dumps_json(value, _pad: str = "\n") -> str:
    """JSON text of a report-shaped value (dicts with str keys, lists,
    str, int, bool, None), identical to json.dumps(value, indent=2,
    sort_keys=True); json.dumps runs its pure-Python encoder whenever
    indent is set.

    A report repeats a few key sets in every entry, so each key set is
    sorted and its keys encoded once per padding, in a bounded cache keyed
    by the keys in insertion order; scalar values are written in place.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    kind = type(value)
    inner = _pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, head in _members(tuple(value), inner):
            v = value[key]
            scalar = _SCALARS.get(type(v))
            items.append(head + (scalar(v) if scalar is not None else dumps_json(v, inner)))
        return "{" + ",".join(items) + _pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if {*map(type, value)} == {int}:
            items = map(int.__repr__, value)
        else:
            items = [dumps_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + _pad + "]"
    raise TypeError(f"{kind.__name__} has no place in a report")


class EntryReport(Value):
    """Outcome of checking one input; mode is "toric" or "diamond", and
    payload is a new dict unless one is given.

    In a batch, the entries of byte-identical files share one payload, so
    a payload is read-only: change a copy, never the dict itself.
    """

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
                f"identity: lhs = {ident['lhs']}, rhs = {ident['rhs'] or 'n/a'}, "
                f"defect = {ident['defect']}"
            )
            verdicts = " ".join(
                f"{k}={_yesno(v)}"
                for k, v in ident.items()
                if k not in ("lhs", "defect", "rhs") and v is not None
            )
            if verdicts:
                lines.append(f"verdicts: {verdicts}")
        if "note" in p:
            lines.append(f"note: {p['note']}")
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


def _refused(name: str, mode: str, exc: Exception, payload: dict | None = None) -> EntryReport:
    """The entry of an input that exc stopped, its error in exc's own words.

    A ParseError or ValidationError is a problem with the input; any other
    exception is a fault of the program, logged and reported as an
    internal error.
    """
    if isinstance(exc, ParseError):
        status = CheckStatus.PARSE_ERROR
    elif isinstance(exc, ValidationError):
        status = CheckStatus.VALIDATION_ERROR
    else:
        import logging  # imported here, so that starting up does not load it

        logging.getLogger(__name__).exception("internal error while checking %s", name)
        status = CheckStatus.INTERNAL_ERROR
    return EntryReport(name, mode, status, f"{type(exc).__name__}: {exc}", payload)


def check_polytope(P: FanoPolytope, name: str) -> EntryReport:
    """Validate and fully verify one N-side polytope.

    The validity flags come from the one validation failure `analyze`
    raises, which also names the first check that failed.
    """
    valid = {"primitive": True, "spanning": True, "reflexive": True, "smooth": True}
    payload: dict = {"n": P.dim, "vertex_count": len(P.vertices), "valid": valid}
    try:
        analysis = analyze(P)
    except NonPrimitiveVertex as exc:
        valid.update(primitive=False, spanning=None, reflexive=None, smooth=None)
        return _refused(name, "toric", exc, payload)
    except (DegenerateInput, OriginNotInterior, RedundantVertex) as exc:
        # only a non-spanning input fails before the span check passes
        spanning = not isinstance(exc, DegenerateInput)
        valid.update(spanning=spanning, reflexive=None, smooth=None)
        return _refused(name, "toric", exc, payload)
    except NotReflexive as exc:
        valid.update(reflexive=False, smooth=None)
        return _refused(name, "toric", exc, payload)
    except NotSmooth as exc:
        valid["smooth"] = False
        return _refused(name, "toric", exc, payload)

    inv = analysis.invariants
    identity = analysis.report.to_dict()
    payload.update(
        {
            "f_vector": list(inv.f_vector),
            "betti": list(inv.betti),
            "c_n": inv.c_n,
            "c1_cn1": inv.c1_cn1,
            "identity": identity,
            "consistency": dict(analysis.consistency),
        }
    )
    passed = False not in identity.values() and all(analysis.consistency.values())
    status = CheckStatus.OK if passed else CheckStatus.IDENTITY_VIOLATION
    return EntryReport(name, "toric", status, payload=payload)


def _diamond_entry(name: str, n: int, c1_cn1, c_n, sums: tuple) -> EntryReport:
    """The entry of a diamond of dimension n whose table diamond._table
    checked into sums, with its Chern numbers when known; odd cohomology
    is a validation error, with the text check_betti_chern raises.

    A strict inequality is informational, not a failure; only lhs > rhs is a
    violation.  Without both Chern numbers only the defect side is computed.
    """
    betti, chi = sums[:2]
    payload: dict = {"n": n, "betti": list(betti), "chi_p": list(chi)}
    try:
        payload["identity"], holds = diamond_identity(sums, c1_cn1, c_n)
    except HypothesisViolated as exc:
        return _refused(name, "diamond", exc, payload)
    if payload["identity"]["rhs"] is None:
        payload["note"] = "Chern numbers missing; rhs verifications skipped"
        return EntryReport(name, "diamond", CheckStatus.OK, payload=payload)
    payload["c_n"] = c_n
    payload["c1_cn1"] = c1_cn1
    status = CheckStatus.OK if holds else CheckStatus.IDENTITY_VIOLATION
    return EntryReport(name, "diamond", status, payload=payload)


def _is_special(entry: os.DirEntry) -> bool:
    """Whether a scanned entry exists but is neither a regular file nor a
    directory: a FIFO, which a read would wait on, or a device, which it
    might never finish.  A dangling link, or one that cannot be looked at,
    is left to the read, which names the problem."""
    try:
        return not (entry.is_file() or entry.is_dir()) and os.path.exists(entry.path)
    except OSError:
        return False


def run_check(path, dual: bool = False, mode: str = "auto") -> EntryReport:
    """Check one input file; no `Exception` escapes it.

    A problem with the input is a parse or validation error; any other
    exception is a fault of the program, reported as an internal error.

    mode "auto" treats files whose first nonblank byte is '{' as diamond
    JSON and everything else as a polytope file; a file that is not UTF-8
    is a parse error, and one leading byte order mark is dropped, as the
    utf-8-sig codec drops it.  With dual=True the file holds the dual
    (M-side) polytope and the N-side one is reconstructed by duality
    before the pipeline runs.
    """
    try:
        data = read_bytes(path)
    except ParseError as exc:
        return _refused(str(path), "diamond" if mode == "diamond" else "toric", exc)
    return _check_data(data, str(path), dual, mode)


def _check_data(data: bytes, name: str, dual: bool = False, mode: str = "auto") -> EntryReport:
    """run_check on a file whose bytes are data, once they are read."""
    is_diamond = mode == "diamond" or (
        mode == "auto" and data.removeprefix(BOM_UTF8).lstrip().startswith(b"{")
    )
    try:
        text = decode_text(data)
        if is_diamond:
            if dual:
                raise ValidationError("--dual applies to polytope files only")
            return _diamond_entry(name, *loads_diamond(text))
        P = loads_polytope(text)
        if dual:
            P = reflexive_dual(P)
        return check_polytope(P, name)
    except Exception as exc:
        return _refused(name, "diamond" if is_diamond else "toric", exc)


class RunReport(Value):
    """Per-entry reports plus order-independent aggregate counts."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[EntryReport, ...]):
        set_field(self, "entries", entries)

    @property
    def aggregate(self) -> dict[str, int]:
        """The entry counts and the run's exit status, the highest of its
        entries' exit codes, from one pass over the entries."""
        statuses = Counter(e.status for e in self.entries)
        total = len(self.entries)
        ok, violations = statuses[CheckStatus.OK], statuses[CheckStatus.IDENTITY_VIOLATION]
        return {
            "total": total,
            "ok": ok,
            "identity_violations": violations,
            "errors": total - ok - violations,
            "exit_status": max((s.exit_code for s in statuses), default=0),
        }

    @property
    def counts(self) -> dict[str, int]:
        return {k: v for k, v in self.aggregate.items() if k != "exit_status"}

    @property
    def exit_status(self) -> int:
        return self.aggregate["exit_status"]

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "aggregate": self.aggregate,
        }

    def iter_json(self) -> Iterator[str]:
        """to_json() in chunks of one entry each, so neither the whole
        dict tree nor the whole text of a long batch is ever held."""
        yield '{\n  "aggregate": ' + dumps_json(self.aggregate, "\n  ") + ',\n  "entries": '
        if not self.entries:
            yield "[]\n}"
            return
        # Entries that share a payload, as copies in a batch do, differ at
        # most in their names: the text around the name member is written
        # once and kept while an entry that shares it is still to come.  A
        # string holds no raw newline, so the member, at this indent, is
        # found in the text once (unless the payload holds a name of its own).
        uses = Counter(id(e.payload) for e in self.entries)
        shared: dict = {}
        sep = "[\n    "
        for e in self.entries:
            k, same = id(e.payload), (e.mode, e.status, e.error)
            name = '\n      "name": ' + encode_basestring_ascii(e.name)
            uses[k] -= 1
            known = shared.get(k) if uses[k] else shared.pop(k, None)
            if known and known[0] == same:
                text = known[1] + name + known[2]
            else:
                text = dumps_json(e.to_dict(), "\n    ")
                if uses[k] and "name" not in e.payload:
                    shared[k] = same, *text.partition(name)[::2]
            yield sep + text
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
        yield sep + (
            "checked {total} inputs: {ok} ok, {identity_violations} identity violations, "
            "{errors} errors"
        ).format_map(self.aggregate)

    def to_text(self) -> str:
        return "".join(self.iter_text())


def run_batch(paths) -> RunReport:
    """Check many inputs, one after another on the calling thread.

    A directory stands for its *.poly and *.json entries, named
    str(Path(p) / name); a directory that cannot be listed, and an entry
    that is neither a regular file nor a directory, is one parse error
    entry named by the path, so a batch always runs to its end.
    Every file is read, but each distinct content is checked once per
    call: a file with the same bytes as one already checked gets that
    entry under its own name, sharing its payload.  An internal error is
    not kept, so each copy of such a file is checked (and logged) again.
    Entries are sorted by name.
    """
    checked: dict[bytes, EntryReport] = {}

    def check(path: str) -> EntryReport:
        try:
            data = read_bytes(path)
        except ParseError as exc:
            return _refused(path, "toric", exc)
        entry = checked.get(data)
        if entry is not None:
            return EntryReport(path, entry.mode, entry.status, entry.error, entry.payload)
        entry = _check_data(data, path)
        if entry.status is not CheckStatus.INTERNAL_ERROR:
            checked[data] = entry
        return entry

    entries: list[EntryReport] = []
    for p in paths:
        p = str(Path(p))
        if not os.path.isdir(p):
            entries.append(check(p))
            continue
        prefix = "" if p == "." else os.path.join(p, "")
        files, special = [], []
        try:
            with os.scandir(p) as listing:
                for e in listing:
                    # pathlib's suffix rule: ".json" alone is a name with no suffix
                    if e.name.endswith((".poly", ".json")) and len(e.name) > 5:
                        (special if _is_special(e) else files).append(prefix + e.name)
        except OSError as exc:
            entries.append(_refused(p, "toric", ParseError(exc)))
            continue
        entries.extend(map(check, files))
        for path in special:
            entries.append(_refused(path, "toric", ParseError(f"not a regular file: {path!r}")))
    entries.sort(key=lambda e: e.name)
    return RunReport(tuple(entries))
