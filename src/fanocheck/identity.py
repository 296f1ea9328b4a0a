"""Exact verification of the weighted Betti / Chern number identities.

For a smooth projective variety of dimension n with no odd cohomology the
inequality

    sum_k h^{2k} (k - n/2)^2  <=  (1/6) c_1 c_{n-1} + (n/12) c_n

holds, with equality exactly when all off-diagonal Hodge numbers vanish;
the gap is the defect sum h^{p,q} ((q-p)/2)^2.  Every side is an integer
over a fixed scale: 4 for the weighted sums and the defect, 12 for the Chern
side.  Each kernel sums integers; a report keeps those numerators, and the
verdicts compare them cross-multiplied to a common scale, so every
comparison is exact and no floating point is involved.  Only the helpers
that return exact Fractions import `fractions`, on their first call.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul

from .errors import HypothesisViolated, LengthMismatch
from .value import Value

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; a check loads only what its mode runs
    from fractions import Fraction

    from .diamond import HodgeDiamond
    from .invariants import ToricInvariants


class IdentityReport(Value):
    """Both sides of the identity plus the individual verdicts.

    The sides are the kernels' integer numerators: lhs4 and defect4 over 4,
    rhs12 over 12.  lhs, defect and rhs are the exact Fractions, and
    equality and inequality_ok are read from to_dict(), when read.
    rhs-dependent fields are None when the Chern numbers needed to compute
    them were not supplied; chi_identity_ok and quarter_form_ok are None
    unless a chi side was tested, which only a diamond with both Chern
    numbers gives.
    """

    __slots__ = _fields = (
        "n",
        "lhs4",
        "defect4",
        "rhs12",
        "chi_identity_ok",
        "quarter_form_ok",
    )
    _optional = 3

    @property
    def equality(self) -> bool | None:
        """lhs == rhs; None without Chern numbers."""
        return self.to_dict()["equality"]

    @property
    def inequality_ok(self) -> bool | None:
        """lhs <= rhs; None without Chern numbers."""
        return self.to_dict()["inequality_ok"]

    @property
    def lhs(self) -> Fraction:
        """sum_k h^{2k} (k - n/2)^2, exact."""
        return _fraction(self.lhs4, 4)

    @property
    def defect(self) -> Fraction:
        """The defect sum, exact."""
        return _fraction(self.defect4, 4)

    @property
    def rhs(self) -> Fraction | None:
        """(1/6) c_1 c_{n-1} + (n/12) c_n, exact; None without Chern numbers."""
        return None if self.rhs12 is None else _fraction(self.rhs12, 12)

    def to_dict(self) -> dict:
        """The report's identity fields, as _identity_fields writes them."""
        return _identity_fields(*self._key())


def _identity_fields(n, lhs4, defect4, rhs12=None, chi_identity_ok=None, quarter_form_ok=None):
    """The identity fields of the report with these fields: lhs, defect
    and rhs as "p/q" in lowest terms, or "p" when q is 1, as str() of the
    Fraction reads; then the verdicts, in the order a text report lists
    them, the chi side's two only when they were tested.  Only here do
    equality and inequality_ok compare lhs4 and rhs12."""
    if rhs12 is None:
        rhs = equality = inequality_ok = None
    else:
        rhs, equality, inequality_ok = _ratio_text(rhs12, 12), 3 * lhs4 == rhs12, 3 * lhs4 <= rhs12
    fields = {
        "lhs": _ratio_text(lhs4, 4),
        "defect": _ratio_text(defect4, 4),
        "rhs": rhs,
        "equality": equality,
        "inequality_ok": inequality_ok,
    }
    if chi_identity_ok is not None:
        fields.update(chi_identity_ok=chi_identity_ok, quarter_form_ok=quarter_form_ok)
    return fields


def _fraction(num: int, scale: int) -> Fraction:
    """num / scale as an exact Fraction; `fractions` loads on the first call."""
    from fractions import Fraction

    return Fraction(num, scale)


def _ratio_text(num: int, scale: int) -> str:
    """str(Fraction(num, scale)) for a positive scale, without building it."""
    g = gcd(num, scale)
    return str(num // g) if g == scale else f"{num // g}/{scale // g}"


@lru_cache(maxsize=32)
def _weights(n: int) -> tuple[int, ...]:
    """For k = 0..n, the weights (2k - n)^2 of the scaled weighted sums."""
    return tuple((2 * k - n) ** 2 for k in range(n + 1))


def _length(values, n: int):
    """values, once it is known to hold n + 1 entries."""
    if len(values) != n + 1:
        raise LengthMismatch(f"expected {n + 1} entries, got {len(values)}")
    return values


def _weighted_sum4(values, n: int) -> int:
    """4 * sum_k values[k] * (k - n/2)^2, an integer, for n + 1 values."""
    return sum(map(mul, values, _weights(n)))


def _chern_side12(c1_cn1: int, c_n: int, n: int) -> int:
    """12 * ((1/6) c_1 c_{n-1} + (n/12) c_n), an integer."""
    return 2 * c1_cn1 + n * c_n


def weighted_betti_sum(betti, n: int) -> Fraction:
    """sum_k betti[k] * (k - n/2)^2, exact."""
    return _fraction(_weighted_sum4(_length(betti, n), n), 4)


def check_betti_chern(
    diamond: HodgeDiamond, c1_cn1: int | None = None, c_n: int | None = None
) -> IdentityReport:
    """Identity report for a diamond, with its Chern numbers when known.

    Raises HypothesisViolated unless odd cohomology vanishes.  Without
    both Chern numbers the report holds lhs and the defect, with every
    rhs-dependent field None.  With them, equality <=> defect == 0 for
    consistent inputs; chi_identity_ok records whether the chi-weighted sum
    matches the Chern side (true for every actual variety), and
    quarter_form_ok whether the original-normalization identity holds.
    Each verdict compares the integer numerators over a common scale.
    """
    return IdentityReport(*_diamond_sides(diamond._sums(), c1_cn1, c_n))


def diamond_identity(sums: tuple, c1_cn1: int | None, c_n: int | None) -> tuple[dict, bool]:
    """The identity fields of check_betti_chern's report on the diamond
    whose table diamond._table checked into sums, and whether they leave
    lhs <= rhs standing; raises as check_betti_chern does."""
    fields = _identity_fields(*_diamond_sides(sums, c1_cn1, c_n))
    return fields, fields["inequality_ok"] is not False


def _diamond_sides(sums: tuple, c1_cn1, c_n) -> tuple:
    """_sides of the diamond whose table diamond._table checked into sums;
    raises HypothesisViolated, the package's one test of the hypothesis,
    unless odd cohomology vanishes."""
    betti, chi, odd_vanishing, defect4 = sums
    if not odd_vanishing:
        raise HypothesisViolated("diamond has nonzero odd cohomology")
    if c1_cn1 is None or c_n is None:
        return _sides(betti, defect4)
    return _sides(betti, defect4, c1_cn1, c_n, chi)


def _sides(betti, defect4: int, c1_cn1=None, c_n=None, chi=None) -> tuple:
    """IdentityReport's leading fields for the even Betti numbers betti, in
    dimension len(betti) - 1, with defect numerator defect4; with c_n, also
    rhs12, and with the chi side chi (as long as betti) chi_identity_ok and
    quarter_form_ok, the original normalization with chi = sum(betti)."""
    n = len(betti) - 1
    lhs4 = _weighted_sum4(betti, n)
    if c_n is None:
        return n, lhs4, defect4
    rhs12 = _chern_side12(c1_cn1, c_n, n)
    if chi is None:
        return n, lhs4, defect4, rhs12
    # e = sum(betti): 3 (e - lhs4) == (3-n) e - 2 c1_cn1 as (2k-n+1)(n+1-2k) = 1 - (2k-n)^2
    quarter_form_ok = 3 * lhs4 == _chern_side12(c1_cn1, sum(betti), n)
    return n, lhs4, defect4, rhs12, 3 * _weighted_sum4(chi, n) == rhs12, quarter_form_ok


def toric_identity_report(inv: ToricInvariants) -> IdentityReport:
    """Identity report for a smooth toric Fano given its computed invariants,
    built from the Betti numbers and the two Chern numbers alone.

    The variety's diamond is diagonal, so the defect is 0 and chi_p is the
    Betti number h^{2p}.  With c_n the sum of the palindromic Betti list,
    the chi-weighted and original-normalization forms would restate
    equality and could not disagree with it, so they are not tested.
    """
    return IdentityReport(*_sides(inv.betti, 0, inv.c1_cn1, inv.c_n))
