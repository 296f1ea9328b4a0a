"""Hodge diamonds of smooth projective varieties.

A diamond is the (n+1) x (n+1) table h[p][q] of Hodge numbers.  The
constructor insists on a well-formed table (nonnegative, symmetric,
h[0][0] = 1); whether the diamond also satisfies the vanishing-odd-
cohomology hypothesis needed by the identity checkers is a separate
predicate, so purely formal test tables remain constructible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidBetti, InvalidDiamond, SerreDualityWarning


@dataclass(frozen=True)
class HodgeDiamond:
    """Hodge number table h[p][q], 0 <= p, q <= n."""

    n: int
    h: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size = self.n + 1
        if self.n < 0 or len(self.h) != size or any(len(row) != size for row in self.h):
            raise InvalidDiamond(f"table must be {size}x{size}")
        if any(x < 0 for row in self.h for x in row):
            raise InvalidDiamond("Hodge numbers must be nonnegative")
        if self.h[0][0] != 1:
            raise InvalidDiamond(f"h[0][0] must be 1, got {self.h[0][0]}")
        for p in range(size):
            for q in range(p + 1, size):
                if self.h[p][q] != self.h[q][p]:
                    raise InvalidDiamond(
                        f"Hodge symmetry broken: h[{p}][{q}]={self.h[p][q]} "
                        f"but h[{q}][{p}]={self.h[q][p]}"
                    )
        for p in range(size):
            for q in range(size):
                if self.h[p][q] != self.h[self.n - p][self.n - q]:
                    warnings.warn(
                        f"h[{p}][{q}] != h[{self.n - p}][{self.n - q}]",
                        SerreDualityWarning,
                        stacklevel=2,
                    )
                    return

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
        return all(
            self.h[p][q] == 0
            for p in range(self.n + 1)
            for q in range(self.n + 1)
            if (p + q) % 2
        )

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
        return tuple(
            sum(self.h[p][2 * k - p] for p in range(self.n + 1) if 0 <= 2 * k - p <= self.n)
            for k in range(self.n + 1)
        )

    def euler(self) -> int:
        return sum(
            (-1) ** (p + q) * self.h[p][q]
            for p in range(self.n + 1)
            for q in range(self.n + 1)
        )


def e_polynomial(diamond: HodgeDiamond) -> tuple[tuple[int, ...], ...]:
    """Coefficient table of E(u, v) = sum (-1)^{p+q} h[p][q] u^p v^q.

    Entry [p][q] is the coefficient of u^p v^q; setting v = 1 and summing
    rows recovers the chi_p list.
    """
    return tuple(
        tuple((-1) ** (p + q) * diamond.h[p][q] for q in range(diamond.n + 1))
        for p in range(diamond.n + 1)
    )


def chi_p(diamond: HodgeDiamond) -> tuple[int, ...]:
    """chi_p = sum_q (-1)^{p+q} h[p][q], for p = 0..n."""
    return tuple(
        sum((-1) ** (p + q) * diamond.h[p][q] for q in range(diamond.n + 1))
        for p in range(diamond.n + 1)
    )


def defect(diamond: HodgeDiamond) -> Fraction:
    """sum over p, q of h[p][q] * ((q - p)/2)^2, as an exact rational.

    Summed as the integer sum of h[p][q] * (q - p)^2 over the scale 4, so
    one exact Fraction is built and its comparisons are exact.
    Nonnegative, and zero exactly when the diamond is diagonal; this is the
    gap between the two sides of the weighted Betti / Chern inequality.
    """
    return Fraction(
        sum(x * (q - p) ** 2 for p, row in enumerate(diamond.h) for q, x in enumerate(row)),
        4,
    )
