"""Exact verification of the weighted Betti / Chern number identities.

For a smooth projective variety of dimension n with no odd cohomology the
inequality

    sum_k h^{2k} (k - n/2)^2  <=  (1/6) c_1 c_{n-1} + (n/12) c_n

holds, with equality exactly when all off-diagonal Hodge numbers vanish;
the gap is the defect sum h^{p,q} ((q-p)/2)^2.  Every side is an integer
over a fixed scale: 4 for the weighted sums and the defect, 12 for the Chern
side, 16 and 48 for the two sides of the original normalization.  Each
kernel sums integers and returns one exact Fraction; the verdicts compare
the integers cross-multiplied to a common scale, so every comparison is
exact and no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .diamond import HodgeDiamond, chi_p, defect
from .errors import HypothesisViolated, LengthMismatch, NotPalindromic
from .invariants import ToricInvariants, chern_numbers
from .lattice import FaceLattice, FanoPolytope
from .value import Value, set_field


class IdentityReport(Value):
    """Both sides of the identity plus the individual verdicts.

    rhs-dependent fields are None when the Chern numbers needed to compute
    them were not supplied; face_count_ok is only filled in toric mode.
    """

    __slots__ = _fields = (
        "n",
        "lhs",
        "defect",
        "rhs",
        "equality",
        "inequality_ok",
        "chi_identity_ok",
        "quarter_form_ok",
        "face_count_ok",
    )

    def __init__(
        self,
        n: int,
        lhs: Fraction,
        defect: Fraction,
        rhs: Fraction | None = None,
        equality: bool | None = None,
        inequality_ok: bool | None = None,
        chi_identity_ok: bool | None = None,
        quarter_form_ok: bool | None = None,
        face_count_ok: bool | None = None,
    ):
        set_field(self, "n", n)
        set_field(self, "lhs", lhs)
        set_field(self, "defect", defect)
        set_field(self, "rhs", rhs)
        set_field(self, "equality", equality)
        set_field(self, "inequality_ok", inequality_ok)
        set_field(self, "chi_identity_ok", chi_identity_ok)
        set_field(self, "quarter_form_ok", quarter_form_ok)
        set_field(self, "face_count_ok", face_count_ok)


@lru_cache(maxsize=32)
def _weights(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For k = 0..n, the weights (2k - n)^2 of the scaled weighted sums and
    (2k - n + 1)(n + 1 - 2k) of the scaled original normalization."""
    ks = range(n + 1)
    return (
        tuple((2 * k - n) ** 2 for k in ks),
        tuple((2 * k - n + 1) * (n + 1 - 2 * k) for k in ks),
    )


def _weighted_sum4(values, n: int) -> int:
    """4 * sum_k values[k] * (k - n/2)^2, an integer."""
    if len(values) != n + 1:
        raise LengthMismatch(f"expected {n + 1} entries, got {len(values)}")
    return sum(map(mul, values, _weights(n)[0]))


def _chern_side12(c1_cn1: int, c_n: int, n: int) -> int:
    """12 * ((1/6) c_1 c_{n-1} + (n/12) c_n), an integer."""
    return 2 * c1_cn1 + n * c_n


def _quarter_sides(betti, c1_cn1: int, n: int) -> tuple[int, int]:
    """16 * lhs and 48 * rhs of the original normalization, as integers."""
    if len(betti) != n + 1:
        raise LengthMismatch(f"expected {n + 1} entries, got {len(betti)}")
    return sum(map(mul, betti, _weights(n)[1])), (3 - n) * sum(betti) - 2 * c1_cn1


def weighted_betti_sum(betti, n: int) -> Fraction:
    """sum_k betti[k] * (k - n/2)^2, exact."""
    return Fraction(_weighted_sum4(betti, n), 4)


def chern_side(c1_cn1: int, c_n: int, n: int) -> Fraction:
    """(1/6) c_1 c_{n-1} + (n/12) c_n, exact."""
    return Fraction(_chern_side12(c1_cn1, c_n, n), 12)


def chi_weighted_sum(chi, n: int) -> Fraction:
    """sum_p chi[p] * (p - n/2)^2, exact."""
    return Fraction(_weighted_sum4(chi, n), 4)


def verify_chi_identity(chi, c1_cn1: int, c_n: int, n: int) -> bool:
    """Exact test of sum_p chi_p (p - n/2)^2 = (1/6) c_1 c_{n-1} + (n/12) c_n.

    The chi list must be palindromic (chi_p = chi_{n-p}), which holds for
    any variety by Serre duality.
    """
    if len(chi) != n + 1:
        raise LengthMismatch(f"expected {n + 1} entries, got {len(chi)}")
    if tuple(chi) != tuple(chi)[::-1]:
        raise NotPalindromic(f"chi list {tuple(chi)} is not palindromic")
    return chi_weighted_sum(chi, n) == chern_side(c1_cn1, c_n, n)


def quarter_weighted_form(betti, c1_cn1: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the identity in its original normalization.

    lhs = (1/4) sum_k h^{2k} (k - (n-1)/2)(1 - k + (n-1)/2) and
    rhs = (1/24) ((3-n)/2 * chi(X) - c_1 c_{n-1}), with chi(X) taken as the
    sum of the Betti numbers.  The two sides agree exactly iff the rewritten
    (k - n/2)^2 form does.
    """
    lhs16, rhs48 = _quarter_sides(betti, c1_cn1, n)
    return Fraction(lhs16, 16), Fraction(rhs48, 48)


def check_betti_chern(
    diamond: HodgeDiamond, c1_cn1: int, c_n: int
) -> IdentityReport:
    """Full identity report for a diamond with known Chern numbers.

    Requires vanishing odd cohomology.  equality <=> defect == 0 for
    consistent inputs; chi_identity_ok records whether the chi-weighted sum
    matches the Chern side (true for every actual variety), and
    quarter_form_ok whether the original-normalization identity holds.
    Each verdict compares the integer numerators over a common scale.
    """
    return _betti_chern_report(diamond, c1_cn1, c_n)


def _betti_chern_report(
    diamond: HodgeDiamond, c1_cn1: int, c_n: int, face_count_ok: bool | None = None
) -> IdentityReport:
    """check_betti_chern's report, with face_count_ok as given."""
    if not diamond.is_odd_vanishing:
        raise HypothesisViolated(
            "diamond has nonzero odd cohomology; the inequality does not apply"
        )
    n = diamond.n
    betti = diamond.even_betti()
    lhs4 = _weighted_sum4(betti, n)
    rhs12 = _chern_side12(c1_cn1, c_n, n)
    quarter16, quarter48 = _quarter_sides(betti, c1_cn1, n)
    return IdentityReport(
        n=n,
        lhs=Fraction(lhs4, 4),
        defect=defect(diamond),
        rhs=Fraction(rhs12, 12),
        equality=3 * lhs4 == rhs12,
        inequality_ok=3 * lhs4 <= rhs12,
        chi_identity_ok=3 * _weighted_sum4(chi_p(diamond), n) == rhs12,
        quarter_form_ok=3 * quarter16 == quarter48,
        face_count_ok=face_count_ok,
    )


def verify_face_count_identity(delta: FanoPolytope, faces: FaceLattice) -> bool:
    """Combinatorial form of the identity on the dual polytope:

    #2-faces = (1/12) * (interior points summed over edges)
             + (n^2/8 - n/6) * #vertices,  exactly.
    """
    return _face_count_holds(delta.dim, faces.f_vector(), chern_numbers(delta, faces)[1])


def _face_count_holds(n: int, fvec, c1_cn1: int) -> bool:
    """The face-count identity with c1_cn1 = interior + #edges, tested as
    24 * #2-faces = 2 * interior + (3n^2 - 4n) * #vertices."""
    two_faces = fvec[2] if n >= 2 else 0
    interior = c1_cn1 - fvec[1]
    return 24 * two_faces == 2 * interior + (3 * n * n - 4 * n) * fvec[0]


def toric_identity_report(inv: ToricInvariants) -> IdentityReport:
    """Identity report for a smooth toric Fano given its computed invariants.

    The diamond is the diagonal one built from the Betti numbers, so for a
    correct pipeline equality must hold with defect zero.  Here c_n is the
    sum of the Betti numbers and the Betti list is palindromic, so
    chi_identity_ok, quarter_form_ok and face_count_ok each equal equality
    by construction: they restate it and cannot disagree with it.
    """
    return _betti_chern_report(
        HodgeDiamond.from_betti(inv.betti),
        inv.c1_cn1,
        inv.c_n,
        face_count_ok=_face_count_holds(inv.n, inv.f_vector, inv.c1_cn1),
    )
