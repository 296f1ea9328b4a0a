"""Hodge diamond construction, E-polynomial, chi_p, defect."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocheck import HodgeDiamond, chi_p, defect, e_polynomial
from fanocheck.errors import InvalidBetti, InvalidDiamond, SerreDualityWarning

from conftest import random_symmetric_diamond

pytestmark = pytest.mark.filterwarnings(
    "ignore::fanocheck.errors.SerreDualityWarning"
)

K3 = HodgeDiamond.from_table([[1, 0, 1], [0, 20, 0], [1, 0, 1]])
P2_DIAMOND = HodgeDiamond.from_betti([1, 1, 1])


class TestConstruction:
    def test_k3(self):
        assert K3.n == 2
        assert K3.is_odd_vanishing
        assert not K3.is_diagonal
        assert K3.euler() == 24

    def test_rejects_asymmetric_table(self):
        with pytest.raises(InvalidDiamond):
            HodgeDiamond.from_table([[1, 2], [0, 1]])

    def test_rejects_h00(self):
        with pytest.raises(InvalidDiamond):
            HodgeDiamond.from_table([[2, 0], [0, 2]])

    def test_rejects_negative(self):
        with pytest.raises(InvalidDiamond):
            HodgeDiamond.from_table([[1, 0], [0, -1]])

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidDiamond):
            HodgeDiamond(1, ((1, 0, 0), (0, 0, 0)))

    def test_serre_violation_warns_only(self):
        with pytest.warns(SerreDualityWarning):
            d = HodgeDiamond.from_table([[1, 0], [0, 7]])
        assert d.h[1][1] == 7

    def test_from_betti(self):
        assert P2_DIAMOND.is_diagonal
        assert P2_DIAMOND.h[1][1] == 1
        quadric = HodgeDiamond.from_betti([1, 2, 1])
        assert quadric.h[1][1] == 2
        # purely formal, but palindromic with leading 1: accepted
        formal = HodgeDiamond.from_betti([1, 0, 1])
        assert formal.h[1][1] == 0

    def test_from_betti_rejects(self):
        with pytest.raises(InvalidBetti):
            HodgeDiamond.from_betti([2, 1, 2])
        with pytest.raises(InvalidBetti):
            HodgeDiamond.from_betti([1, 2, 3])
        with pytest.raises(InvalidBetti):
            HodgeDiamond.from_betti([1, -1, 1])
        with pytest.raises(InvalidBetti):
            HodgeDiamond.from_betti([])


class TestEPolynomial:
    def test_p2(self):
        # u^2 v^2 + u v + 1
        assert e_polynomial(P2_DIAMOND) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_k3(self):
        # u^2 v^2 + u^2 + v^2 + 20 u v + 1
        assert e_polynomial(K3) == ((1, 0, 1), (0, 20, 0), (1, 0, 1))

    def test_point(self):
        point = HodgeDiamond.from_table([[1]])
        assert e_polynomial(point) == ((1,),)

    def test_signs(self):
        with pytest.warns(SerreDualityWarning):
            d = HodgeDiamond.from_table([[1, 2], [2, 0]])
        assert e_polynomial(d) == ((1, -2), (-2, 0))

    def test_v1_specialization_gives_chi(self, rng):
        for _ in range(50):
            d = random_symmetric_diamond(rng, max_n=5, max_entry=9)
            table = e_polynomial(d)
            assert tuple(sum(row) for row in table) == chi_p(d)


class TestChiP:
    def test_p2(self):
        assert chi_p(P2_DIAMOND) == (1, 1, 1)

    def test_k3(self):
        assert chi_p(K3) == (2, 20, 2)

    def test_curve_like(self):
        with pytest.warns(SerreDualityWarning):
            d = HodgeDiamond.from_table([[1, 0], [0, 0]])
        assert chi_p(d) == (1, 0)

    def test_diagonal_chi_equals_h(self, rng):
        for _ in range(20):
            n = rng.randint(1, 6)
            betti = [1] + [rng.randint(0, 30) for _ in range(n - 1)] + [1]
            betti = [max(a, b) for a, b in zip(betti, betti[::-1])]
            d = HodgeDiamond.from_betti(betti)
            assert chi_p(d) == tuple(d.h[p][p] for p in range(n + 1))


class TestDefect:
    def test_diagonal_is_zero(self):
        assert defect(P2_DIAMOND) == 0
        assert defect(HodgeDiamond.from_betti([1, 5, 9, 5, 1])) == 0

    def test_k3(self):
        assert defect(K3) == 2

    def test_single_far_pair(self):
        h = [[0] * 5 for _ in range(5)]
        h[0][0] = h[4][4] = 1
        h[3][1] = h[1][3] = 1
        d = HodgeDiamond.from_table(h)
        assert defect(d) == 2

    def test_zero_iff_diagonal(self, rng):
        for _ in range(200):
            d = random_symmetric_diamond(rng, max_n=5, max_entry=6)
            gap = defect(d)
            assert gap >= 0
            assert (gap == 0) == d.is_diagonal


def ref_defect(diamond):
    """The defect written directly in Fraction arithmetic; the library sums
    scaled integers instead and must agree exactly."""
    total = Fraction(0)
    for p in range(diamond.n + 1):
        for q in range(diamond.n + 1):
            if diamond.h[p][q]:
                total += diamond.h[p][q] * Fraction(q - p, 2) ** 2
    return total


@st.composite
def hodge_tables(draw):
    """Hodge-symmetric tables with h[0][0] = 1 and entries up to 10**30,
    odd-degree and off-diagonal entries included."""
    n = draw(st.integers(0, 12))
    h = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(p, n + 1):
            h[p][q] = h[q][p] = 1 if (p, q) == (0, 0) else draw(st.integers(0, 10**30))
    return HodgeDiamond.from_table(h)


class TestDefectMatchesFractionReference:
    @given(hodge_tables())
    def test_defect(self, d):
        got = defect(d)
        assert type(got) is Fraction
        assert got == ref_defect(d)


class TestDecomposition:
    def test_weighted_balance(self, rng):
        # The even Betti weighted sum plus the defect equals the chi-weighted
        # sum, for every symmetric odd-vanishing table.
        from fanocheck import chi_weighted_sum, weighted_betti_sum

        for _ in range(300):
            d = random_symmetric_diamond(rng)
            lhs = weighted_betti_sum(d.even_betti(), d.n) + defect(d)
            assert lhs == chi_weighted_sum(chi_p(d), d.n)


@pytest.fixture
def rng():
    return random.Random(987123)
