"""File formats: plain-text polytope files and JSON Hodge diamond files.

Polytope files: '#' starts a comment line, the first data line is
"n v" (dimension, vertex count), followed by v lines of n integers.
Diamond files: a JSON object with integer field "n", row-major table "h",
and optional integer Chern numbers "c1_cn1" and "c_n"; no object in the
file may name a field twice.
"""

from __future__ import annotations

from codecs import BOM_UTF8
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .errors import InvalidDiamond, ParseError
from .value import Value, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; each file format loads its own module
    from .diamond import HodgeDiamond
    from .lattice import FanoPolytope


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


def _unique_fields(pairs: list) -> dict:
    """The object of a JSON object's (name, value) pairs; raises ParseError
    on a name given twice, where json.loads would keep the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise ParseError(f"field {name!r} is given more than once")
            seen.add(name)
    return obj


@lru_cache(maxsize=None)
def _diamond_modules():
    """The decode method of the one JSON decoder of diamond files, and the
    diamond module, both loaded on the first diamond: json.loads with a hook
    would build a decoder on every call."""
    import json  # imported here, so that polytope files do not load it

    from . import diamond

    return json.JSONDecoder(object_pairs_hook=_unique_fields).decode, diamond


def _diamond_fields(text: str) -> tuple:
    """The fields of diamond file contents: n, the rows of 'h' as lists and
    their entries flattened, the least entry, and c1_cn1 and c_n (None when
    not given).  Shape, type and bound problems raise ParseError."""
    if text.startswith("\ufeff"):
        # A second mark, which decode_text keeps: refused as json.loads
        # refuses it, a check that decode() does not make.
        raise ParseError(
            "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)"
        )
    decode, _ = _diamond_modules()
    try:
        obj = decode(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a ValueError subclass, and RecursionError (deeply
        # nested arrays) are invalid JSON.  A plain ValueError is int()
        # refusing a number of more than 4300 digits for its length alone:
        # past the bound, whatever its value.
        if type(exc) is ValueError:
            raise ParseError("integers must be below 10**4000 in absolute value") from None
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("diamond file must hold a JSON object")
    if "n" not in obj or "h" not in obj:
        raise ParseError("diamond file needs fields 'n' and 'h'")
    n = _require_int(obj["n"], "n")
    _require_bounded(n, n, "field 'n'")
    if n < 0:
        # as the constructor says it; no table has a negative size
        raise InvalidDiamond(f"dimension must be >= 0, got {n}")
    rows = obj["h"]
    if (
        not isinstance(rows, list)
        or len(rows) != n + 1
        # The decoder makes no list subclass, so `type is list` is exact.
        or not {*map(type, rows)} <= {list}
        or not {*map(len, rows)} <= {n + 1}
    ):
        raise ParseError(f"'h' must be a {n + 1}x{n + 1} table")
    # Flattened once, for the type, bound and sign tests and for every sum.
    flat = (*chain.from_iterable(rows),)
    # bool is the only int subclass the decoder makes, so `type is int` is exact.
    if not {*map(type, flat)} <= {int}:
        for x in flat:
            _require_int(x, "h")
    low = min(flat)
    _require_bounded(low, max(flat), "field 'h'")
    for name in ("c1_cn1", "c_n"):
        if name in obj:
            value = _require_int(obj[name], name)
            _require_bounded(value, value, f"field {name!r}")
    return n, rows, flat, low, obj.get("c1_cn1"), obj.get("c_n")


def diamond_integers(text: str) -> tuple:
    """n, c1_cn1, c_n and the sums that diamond._table returns, for diamond
    file contents; table-consistency problems raise InvalidDiamond."""
    n, rows, flat, low, c1_cn1, c_n = _diamond_fields(text)
    _, diamond = _diamond_modules()
    # warned here, whatever the caller, so that a text is shown once
    return n, c1_cn1, c_n, diamond._table(rows, flat, low, 2)


def loads_diamond(text: str) -> DiamondFile:
    """Parse diamond file contents.  Shape and type problems raise
    ParseError; table-consistency problems raise the constructor's errors."""
    from .diamond import HodgeDiamond

    n, rows, _, _, c1_cn1, c_n = _diamond_fields(text)
    return DiamondFile(HodgeDiamond(n, tuple(map(tuple, rows))), c1_cn1, c_n)


def dumps_diamond(
    diamond: HodgeDiamond, c1_cn1: int | None = None, c_n: int | None = None
) -> str:
    import json

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
