"""Hodge diamonds of smooth projective varieties.

A diamond is the (n+1) x (n+1) table h[p][q] of Hodge numbers.  The
constructor insists on a well-formed table (nonnegative, symmetric,
h[0][0] = 1); whether the diamond also satisfies the vanishing-odd-
cohomology hypothesis needed by the identity checkers is a separate
predicate, so purely formal test tables remain constructible.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul, sub

from .errors import InvalidBetti, InvalidDiamond, SerreDualityWarning
from .value import Value, set_field


@lru_cache(maxsize=32)
def _layout(n: int):
    """Slices of the row-major flattened (n+1) x (n+1) table: the even
    antidiagonals p + q = 2k, the odd-degree half of each row, and the upper
    diagonals q - p = d for d = 1..n, with the weights 2 d^2 that turn the
    upper diagonal sums into the defect sum of a Hodge-symmetric table."""
    size = n + 1
    anti = []
    for s in range(0, 2 * n + 1, 2):
        first, last = max(0, s - n), min(s, n)
        start = first * n + s  # index of (p, s - p) is p * n + s
        anti.append(slice(start, start + n * (last - first) + 1, n or 1))
    odd_rows = tuple(slice(p * size + 1 - p % 2, (p + 1) * size, 2) for p in range(size))
    upper = tuple(slice(d, d + (n + 2) * (n - d) + 1, n + 2) for d in range(1, size))
    weights = tuple(2 * d * d for d in range(1, size))
    return tuple(anti), odd_rows, upper, weights


class HodgeDiamond(Value):
    """Hodge number table h[p][q], 0 <= p, q <= n.

    The even Betti numbers, chi_p, odd vanishing and the defect numerator
    are computed once, in the constructor, from the validated table; only
    n and h are compared, hashed and shown.
    """

    _fields = ("n", "h")
    __slots__ = (*_fields, "_even_betti", "_chi_p", "_odd_vanishing", "_defect4")

    def __init__(self, n: int, h: tuple[tuple[int, ...], ...]):
        set_field(self, "n", n)
        set_field(self, "h", h)
        # A method of its own, which bench/tracer.py rebinds to time it.
        self.__post_init__()

    def __post_init__(self):
        n, h = self.n, self.h
        size = n + 1
        if n < 0 or len(h) != size or {*map(len, h)} != {size}:
            raise InvalidDiamond(f"table must be {size}x{size}")
        # Flattened once, for the sign and Serre tests and for every sum.
        flat = tuple(chain.from_iterable(h))
        if min(flat) < 0:
            raise InvalidDiamond("Hodge numbers must be nonnegative")
        if h[0][0] != 1:
            raise InvalidDiamond(f"h[0][0] must be 1, got {h[0][0]}")
        # Whole-table tests first; the loops only locate the first failure.
        if tuple(zip(*h)) != h:
            for p in range(size):
                for q in range(p + 1, size):
                    if h[p][q] != h[q][p]:
                        raise InvalidDiamond(
                            f"Hodge symmetry broken: h[{p}][{q}]={h[p][q]} "
                            f"but h[{q}][{p}]={h[q][p]}"
                        )
        # (n - p, n - q) sits at the mirror index of (p, q) in the flat table.
        if flat != flat[::-1]:
            i = next(i for i, x in enumerate(flat) if x != flat[-1 - i])
            p, q = divmod(i, size)
            warnings.warn(
                f"h[{p}][{q}] != h[{n - p}][{n - q}]", SerreDualityWarning, stacklevel=3
            )

        anti, odd_rows, upper, weights = _layout(n)
        at = flat.__getitem__
        odd = tuple(map(sum, map(at, odd_rows)))
        set_field(self, "_even_betti", tuple(map(sum, map(at, anti))))
        # chi_p is the row's sum with its odd-degree part taken off twice.
        set_field(self, "_chi_p", tuple(map(sub, map(sub, map(sum, h), odd), odd)))
        # Entries are nonnegative, so a zero sum means every entry is zero.
        set_field(self, "_odd_vanishing", not any(odd))
        set_field(self, "_defect4", sum(map(mul, weights, map(sum, map(at, upper)))))

    @classmethod
    def from_table(cls, rows) -> "HodgeDiamond":
        table = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(len(table) - 1, table)

    @classmethod
    def from_betti(cls, betti) -> "HodgeDiamond":
        """Diagonal diamond with h[p][p] = betti[p], zero elsewhere.

        The list must be palindromic and nonnegative with betti[0] = 1; no
        geometric claim is made beyond that.
        """
        betti = tuple(int(b) for b in betti)
        if not betti or betti[0] != 1:
            raise InvalidBetti(f"betti[0] must be 1, got {betti[:1]}")
        if any(b < 0 for b in betti):
            raise InvalidBetti("Betti numbers must be nonnegative")
        if betti != betti[::-1]:
            raise InvalidBetti(f"Betti list {betti} is not palindromic")
        n = len(betti) - 1
        rows = tuple(
            tuple(betti[p] if p == q else 0 for q in range(n + 1))
            for p in range(n + 1)
        )
        return cls(n, rows)

    @property
    def is_odd_vanishing(self) -> bool:
        """True iff h[p][q] = 0 whenever p + q is odd."""
        return self._odd_vanishing

    @property
    def is_diagonal(self) -> bool:
        return all(
            self.h[p][q] == 0
            for p in range(self.n + 1)
            for q in range(self.n + 1)
            if p != q
        )

    def even_betti(self) -> tuple[int, ...]:
        """h^{2k} = sum of h[p][q] over p + q = 2k, for k = 0..n."""
        return self._even_betti

    def euler(self) -> int:
        """sum of (-1)^{p+q} h[p][q], that is, the sum of the chi_p."""
        return sum(self._chi_p)


def chi_p(diamond: HodgeDiamond) -> tuple[int, ...]:
    """chi_p = sum_q (-1)^{p+q} h[p][q], for p = 0..n."""
    return diamond._chi_p


def defect(diamond: HodgeDiamond) -> Fraction:
    """sum over p, q of h[p][q] * ((q - p)/2)^2, as an exact rational.

    The integer sum of h[p][q] * (q - p)^2, kept by the diamond, over the
    scale 4, so one exact Fraction is built and its comparisons are exact.
    Nonnegative, and zero exactly when the diamond is diagonal; this is the
    gap between the two sides of the weighted Betti / Chern inequality.
    """
    return Fraction(diamond._defect4, 4)
