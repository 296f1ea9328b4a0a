"""Hodge diamonds of smooth projective varieties, and their JSON files.

A diamond is the (n+1) x (n+1) table h[p][q] of Hodge numbers.  The
constructor insists on a well-formed table (nonnegative, symmetric,
h[0][0] = 1); whether the diamond also satisfies the vanishing-odd-
cohomology hypothesis needed by the identity checkers is a separate
predicate, so purely formal test tables remain constructible.

Diamond files: a JSON object with integer field "n", row-major table "h",
and optional integer Chern numbers "c1_cn1" and "c_n"; no object in the
file may name a field twice.
"""

from __future__ import annotations

import json
import warnings
from functools import lru_cache
from itertools import chain
from operator import itemgetter, mul, sub
from pathlib import Path

from .errors import InvalidDiamond, ParseError, SerreDualityWarning
from .files import _require_bounded, decode_text, read_bytes
from .value import Value, set_field

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from fractions import Fraction


@lru_cache(maxsize=32)
def _layout(n: int):
    """Slices of the row-major flattened (n+1) x (n+1) table: the even
    antidiagonals p + q = 2k and the odd-degree half of each row; per entry
    the weight (q - p)^2 of the scaled defect sum; and, for n > 0, getters
    of the transposed table and of the entries of odd degree."""
    size = n + 1
    anti = []
    for s in range(0, 2 * n + 1, 2):
        first, last = max(0, s - n), min(s, n)
        start = first * n + s  # index of (p, s - p) is p * n + s
        anti.append(slice(start, start + n * (last - first) + 1, n or 1))
    odd_rows = tuple(slice(p * size + 1 - p % 2, (p + 1) * size, 2) for p in range(size))
    weights = tuple((q - p) ** 2 for p in range(size) for q in range(size))
    if not n:
        return tuple(anti), odd_rows, weights, None, None
    transpose = itemgetter(*(q * size + p for p in range(size) for q in range(size)))
    odd = itemgetter(*(i for i in range(size * size) if sum(divmod(i, size)) % 2))
    return tuple(anti), odd_rows, weights, transpose, odd


def _table(h, flat: tuple, low, stacklevel: int) -> tuple:
    """Check the square table h, flattened row by row to flat, with least
    entry low; warn stacklevel frames up if it is not Serre dual.  Returns
    the even Betti numbers, chi_p, whether odd cohomology vanishes and 4 *
    the defect.  Whole-table tests come first; loops only locate a failure."""
    n = len(h) - 1
    if low < 0:
        raise InvalidDiamond("Hodge numbers must be nonnegative")
    if flat[0] != 1:
        raise InvalidDiamond(f"h[0][0] must be 1, got {flat[0]}")
    anti, odd_rows, weights, transpose, odd_entries = _layout(n)
    if n and transpose(flat) != flat:
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                if h[p][q] != h[q][p]:
                    raise InvalidDiamond(
                        f"Hodge symmetry broken: h[{p}][{q}]={h[p][q]} "
                        f"but h[{q}][{p}]={h[q][p]}"
                    )
    # (n - p, n - q) sits at the mirror index of (p, q) in the flat table.
    if flat != flat[::-1]:
        i = next(i for i, x in enumerate(flat) if x != flat[-1 - i])
        p, q = divmod(i, n + 1)
        warnings.warn(
            f"h[{p}][{q}] != h[{n - p}][{n - q}]", SerreDualityWarning, stacklevel=stacklevel
        )
    at = flat.__getitem__
    odd_vanishing = not (n and any(odd_entries(flat)))
    if odd_vanishing:
        chi = tuple(map(sum, h))
    else:
        # chi_p is the row's sum with its odd-degree part taken off twice.
        odd = tuple(map(sum, map(at, odd_rows)))
        chi = tuple(map(sub, map(sub, map(sum, h), odd), odd))
    return tuple(map(sum, map(at, anti))), chi, odd_vanishing, sum(map(mul, flat, weights))


class HodgeDiamond(Value):
    """Hodge number table h[p][q], 0 <= p, q <= n.

    The even Betti numbers, chi_p, odd vanishing and the defect numerator
    are the sums _table returns; only n and h are compared, hashed and shown.
    """

    _fields = ("n", "h")
    _derived = ("_even_betti", "_chi_p", "_odd_vanishing", "_defect4")
    __slots__ = (*_fields, *_derived)

    def __init__(self, n: int, h: tuple[tuple[int, ...], ...]):
        set_field(self, "n", n)
        set_field(self, "h", h)
        # A method of its own, which bench/tracer.py rebinds to time it.
        self.__post_init__()

    def __post_init__(self):
        n, h = self.n, self.h
        size = n + 1
        if n < 0:
            raise InvalidDiamond(f"dimension must be >= 0, got {n}")
        if len(h) != size or {*map(len, h)} != {size}:
            raise InvalidDiamond(f"table must be {size}x{size}")
        flat = tuple(chain.from_iterable(h))
        # warned at the caller of the constructor
        for name, value in zip(self._derived, _table(h, flat, min(flat), 4)):
            set_field(self, name, value)

    def _sums(self) -> tuple:
        """What _table returned for the table, in its order."""
        return tuple(map(self.__getattribute__, self._derived))

    @classmethod
    def from_table(cls, rows) -> "HodgeDiamond":
        table = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(len(table) - 1, table)

    @property
    def is_odd_vanishing(self) -> bool:
        """True iff h[p][q] = 0 whenever p + q is odd."""
        return self._odd_vanishing

    def even_betti(self) -> tuple[int, ...]:
        """h^{2k} = sum of h[p][q] over p + q = 2k, for k = 0..n."""
        return self._even_betti


def chi_p(diamond: HodgeDiamond) -> tuple[int, ...]:
    """chi_p = sum_q (-1)^{p+q} h[p][q], for p = 0..n."""
    return diamond._chi_p


def defect(diamond: HodgeDiamond) -> Fraction:
    """sum over p, q of h[p][q] * ((q - p)/2)^2, as an exact rational.

    The diamond keeps the integer sum of h[p][q] * (q - p)^2; this is that
    sum over the scale 4, as one exact Fraction (`fractions` loads on the
    first call).  Identity reports keep the integer itself.  Nonnegative,
    and zero exactly when the diamond is diagonal; this is the gap between
    the two sides of the weighted Betti / Chern inequality.
    """
    from fractions import Fraction

    return Fraction(diamond._defect4, 4)


class DiamondFile(Value):
    """A Hodge diamond plus whatever Chern numbers the file supplied."""

    __slots__ = _fields = ("diamond", "c1_cn1", "c_n")

    def __init__(
        self, diamond: HodgeDiamond, c1_cn1: int | None = None, c_n: int | None = None
    ):
        set_field(self, "diamond", diamond)
        set_field(self, "c1_cn1", c1_cn1)
        set_field(self, "c_n", c_n)


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {name!r} must be an integer, got {value!r}")
    return value


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


# The one decoder of diamond files: json.loads with a hook would build a
# decoder on every call.
_decode = json.JSONDecoder(object_pairs_hook=_unique_fields).decode


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
    try:
        obj = _decode(text)
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
    """n, c1_cn1, c_n and the sums that _table returns, for diamond file
    contents; table-consistency problems raise InvalidDiamond."""
    n, rows, flat, low, c1_cn1, c_n = _diamond_fields(text)
    # warned here, whatever the caller, so that a text is shown once
    return n, c1_cn1, c_n, _table(rows, flat, low, 2)


def loads_diamond(text: str) -> DiamondFile:
    """Parse diamond file contents.  Shape and type problems raise
    ParseError; table-consistency problems raise the constructor's errors."""
    n, rows, _, _, c1_cn1, c_n = _diamond_fields(text)
    return DiamondFile(HodgeDiamond(n, tuple(map(tuple, rows))), c1_cn1, c_n)


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
    return loads_diamond(decode_text(read_bytes(path)))


def write_diamond(
    diamond: HodgeDiamond, path, c1_cn1: int | None = None, c_n: int | None = None
) -> None:
    Path(path).write_text(dumps_diamond(diamond, c1_cn1, c_n))
