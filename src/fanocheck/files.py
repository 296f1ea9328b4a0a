"""Reading input files, the integer bound they keep, and polytope files.

Polytope files: '#' starts a comment line, the first data line is
"n v" (dimension, vertex count), followed by v lines of n integers.
Diamond files are read in `diamond`.
"""

from __future__ import annotations

import os
from codecs import BOM_UTF8
from pathlib import Path

from .errors import ParseError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; lattice loads with the first polytope
    from .lattice import FanoPolytope


def read_bytes(path) -> bytes:
    """The bytes of the file at path, read without a buffered file object.
    Raises ParseError in the words of the OSError that stopped the read,
    naming the path as open() does (os.read on a directory names none)."""
    chunks = []
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise ParseError(exc) from exc
    return b"".join(chunks)


def decode_text(data: bytes) -> str:
    """File bytes as text: strict UTF-8 without one leading byte order
    mark (as the utf-8-sig codec reads it), with universal newlines as
    text-mode reading gives them.  Raises ParseError if not UTF-8."""
    try:
        text = data.removeprefix(BOM_UTF8).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def loads_polytope(text: str) -> FanoPolytope:
    """Parse polytope file contents.  Raises ParseError on malformed input;
    geometric validation errors from the constructor propagate unchanged."""
    from .lattice import FanoPolytope

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
        dim, count = _bounded_ints(fields, f"line {lineno}: header field")
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
            vertices.append(_bounded_ints(fields, f"line {lineno}: coordinate"))
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
    return loads_polytope(decode_text(read_bytes(path)))


def write_polytope(P: FanoPolytope, path, comment: str | None = None) -> None:
    Path(path).write_text(dumps_polytope(P, comment))


# Integers in an input file stay below this in absolute value.  The sums a
# diamond's report gives are small multiples of such integers (the defect weights an entry by
# (q - p)^2 / 4), so they stay hundreds of digits below the 4300-digit limit
# of Python's int-to-string conversion.
INT_BOUND = 10**4000


def _require_bounded(low, high, what: str) -> None:
    if high >= INT_BOUND or low <= -INT_BOUND:
        raise ParseError(f"{what} must be below 10**4000 in absolute value")


def _long_int(field: str) -> int | None:
    """The value of a decimal integer field, read without its leading
    zeros, or INT_BOUND (for the bound check to name) when it has more than
    4000 significant digits; None if field is not an integer as int()
    reads one.  int() refuses any field of more than 4300 digits, leading
    zeros included, for its length alone."""
    body = field[1:] if field[0] in "+-" else field
    digits = body.replace("_", "")
    if not digits.isdecimal() or "__" in body or "_" in (body[0], body[-1]):
        return None
    digits = digits.lstrip("0")
    if len(digits) > 4000:
        return INT_BOUND
    value = int(digits or "0")
    return -value if field[0] == "-" else value


def _bounded_ints(fields, what: str) -> tuple[int, ...]:
    """The (nonempty) fields as ints.  Raises ParseError, naming what,
    when one is at least INT_BOUND in absolute value, and ValueError when
    one is not an integer."""
    try:
        values = tuple(map(int, fields))
    except ValueError:
        values = tuple(map(_long_int, fields))
        if None in values:
            raise
    _require_bounded(min(values), max(values), what)
    return values
