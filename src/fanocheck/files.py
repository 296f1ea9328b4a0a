"""File formats: plain-text polytope files and JSON Hodge diamond files.

Polytope files: '#' starts a comment line, the first data line is
"n v" (dimension, vertex count), followed by v lines of n integers.
Diamond files: a JSON object with integer field "n", row-major table "h",
and optional integer Chern numbers "c1_cn1" and "c_n".
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from .diamond import HodgeDiamond
from .errors import ParseError
from .lattice import FanoPolytope
from .value import Value, set_field


def decode_text(data: bytes) -> str:
    """File bytes as text: strict UTF-8, with universal newlines as
    text-mode reading gives them.  Raises ParseError if not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def loads_polytope(text: str) -> FanoPolytope:
    """Parse polytope file contents.  Raises ParseError on malformed input;
    geometric validation errors from the constructor propagate unchanged."""
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data_lines.append((lineno, line))
    if not data_lines:
        raise ParseError("no data lines found")

    lineno, header = data_lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"line {lineno}: header must be 'n v', got {header!r}")
    try:
        dim, count = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header must hold two integers") from None
    if len(data_lines) - 1 != count:
        raise ParseError(
            f"expected {count} vertex lines, found {len(data_lines) - 1}"
        )
    vertices = []
    for lineno, line in data_lines[1:]:
        fields = line.split()
        if len(fields) != dim:
            raise ParseError(
                f"line {lineno}: expected {dim} coordinates, got {len(fields)}"
            )
        try:
            vertices.append(tuple(int(x) for x in fields))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer coordinate") from None
    return FanoPolytope(dim, tuple(vertices))


def dumps_polytope(P: FanoPolytope, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"{P.dim} {len(P.vertices)}")
    for v in P.vertices:
        lines.append(" ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"


def read_polytope(path) -> FanoPolytope:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_polytope(decode_text(data))


def write_polytope(P: FanoPolytope, path, comment: str | None = None) -> None:
    Path(path).write_text(dumps_polytope(P, comment))


class DiamondFile(Value):
    """A Hodge diamond plus whatever Chern numbers the file supplied."""

    __slots__ = _fields = ("diamond", "c1_cn1", "c_n")

    def __init__(
        self, diamond: HodgeDiamond, c1_cn1: int | None = None, c_n: int | None = None
    ):
        set_field(self, "diamond", diamond)
        set_field(self, "c1_cn1", c1_cn1)
        set_field(self, "c_n", c_n)


# Integers in a diamond file stay below this in absolute value.  The reported
# sums are small multiples of such integers (the defect weights an entry by
# (q - p)^2 / 4), so they stay hundreds of digits below the 4300-digit limit
# of Python's int-to-string conversion.
INT_BOUND = 10**4000


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _require_bounded(low, high, name: str) -> None:
    if high >= INT_BOUND or low <= -INT_BOUND:
        raise ParseError(f"field {name!r} must be below 10**4000 in absolute value")


def loads_diamond(text: str) -> DiamondFile:
    """Parse diamond file contents.  Shape and type problems raise
    ParseError; table-consistency problems raise the constructor's errors."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the digit
        # limit of int(); RecursionError covers deeply nested arrays.
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("diamond file must hold a JSON object")
    if "n" not in obj or "h" not in obj:
        raise ParseError("diamond file needs fields 'n' and 'h'")
    n = _require_int(obj["n"], "n")
    rows = obj["h"]
    if (
        not isinstance(rows, list)
        or len(rows) != n + 1
        # json.loads makes no list subclass, so `type is list` is exact.
        or not {*map(type, rows)} <= {list}
        or not {*map(len, rows)} <= {n + 1}
    ):
        raise ParseError(f"'h' must be a {n + 1}x{n + 1} table")
    entries = [*chain.from_iterable(rows)]
    # bool is the only int subclass json.loads makes, so `type is int` is exact.
    if not {*map(type, entries)} <= {int}:
        for x in entries:
            _require_int(x, "h")
    if entries:
        _require_bounded(min(entries), max(entries), "h")
    chern = {}
    for name in ("c1_cn1", "c_n"):
        if name in obj:
            value = chern[name] = _require_int(obj[name], name)
            _require_bounded(value, value, name)
    return DiamondFile(HodgeDiamond(n, tuple(map(tuple, rows))), **chern)


def dumps_diamond(
    diamond: HodgeDiamond, c1_cn1: int | None = None, c_n: int | None = None
) -> str:
    obj = {"n": diamond.n, "h": [list(row) for row in diamond.h]}
    if c1_cn1 is not None:
        obj["c1_cn1"] = c1_cn1
    if c_n is not None:
        obj["c_n"] = c_n
    return json.dumps(obj, indent=2) + "\n"


def read_diamond(path) -> DiamondFile:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_diamond(decode_text(data))


def write_diamond(
    diamond: HodgeDiamond, path, c1_cn1: int | None = None, c_n: int | None = None
) -> None:
    Path(path).write_text(dumps_diamond(diamond, c1_cn1, c_n))
