"""Hodge diamond construction, E-polynomial, chi_p, defect."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocheck import HodgeDiamond, chi_p, defect
from fanocheck.errors import InvalidDiamond, SerreDualityWarning

from conftest import diagonal_diamond, random_symmetric_diamond

pytestmark = pytest.mark.filterwarnings(
    "ignore::fanocheck.errors.SerreDualityWarning"
)

K3 = HodgeDiamond.from_table([[1, 0, 1], [0, 20, 0], [1, 0, 1]])
P2_DIAMOND = diagonal_diamond([1, 1, 1])


class TestConstruction:
    def test_k3(self):
        assert K3.n == 2
        assert K3.is_odd_vanishing
        assert K3.h[0][2] == 1  # off the diagonal
        assert sum(chi_p(K3)) == 24

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

    def test_diagonal_table(self):
        # purely formal for (1, 0, 1), but a valid table all the same
        for betti in ([1, 1, 1], [1, 2, 1], [1, 0, 1]):
            d = diagonal_diamond(betti)
            assert [d.h[p][p] for p in range(3)] == betti
            assert d.is_odd_vanishing and d.even_betti() == tuple(betti)


def e_polynomial(diamond):
    """Coefficient table of E(u, v) = sum (-1)^{p+q} h[p][q] u^p v^q; entry
    [p][q] is the coefficient of u^p v^q."""
    return tuple(
        tuple((-1) ** (p + q) * diamond.h[p][q] for q in range(diamond.n + 1))
        for p in range(diamond.n + 1)
    )


class TestEPolynomial:
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
            d = diagonal_diamond(betti)
            assert chi_p(d) == tuple(d.h[p][p] for p in range(n + 1))


class TestDefect:
    def test_diagonal_is_zero(self):
        assert defect(P2_DIAMOND) == 0
        assert defect(diagonal_diamond([1, 5, 9, 5, 1])) == 0

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
            assert (gap == 0) == all(
                x == 0 for p, row in enumerate(d.h) for q, x in enumerate(row) if p != q
            )


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


# Reference formulas, one comprehension per quantity, and reference
# constructor checks, entry by entry.  The library computes every sum once
# from slices of the flattened table and checks the whole table at once; it
# must agree with these exactly, messages and warnings included.


def ref_even_betti(d):
    return tuple(
        sum(d.h[p][2 * k - p] for p in range(d.n + 1) if 0 <= 2 * k - p <= d.n)
        for k in range(d.n + 1)
    )


def ref_chi_p(d):
    return tuple(
        sum((-1) ** (p + q) * d.h[p][q] for q in range(d.n + 1)) for p in range(d.n + 1)
    )


def ref_is_odd_vanishing(d):
    return all(
        d.h[p][q] == 0 for p in range(d.n + 1) for q in range(d.n + 1) if (p + q) % 2
    )


def ref_euler(d):
    return sum((-1) ** (p + q) * d.h[p][q] for p in range(d.n + 1) for q in range(d.n + 1))


def ref_validate(n, h):
    """The constructor's checks, entry by entry; raises or warns alike."""
    size = n + 1
    if n < 0:
        raise InvalidDiamond(f"dimension must be >= 0, got {n}")
    if len(h) != size or any(len(row) != size for row in h):
        raise InvalidDiamond(f"table must be {size}x{size}")
    if any(x < 0 for row in h for x in row):
        raise InvalidDiamond("Hodge numbers must be nonnegative")
    if h[0][0] != 1:
        raise InvalidDiamond(f"h[0][0] must be 1, got {h[0][0]}")
    for p in range(size):
        for q in range(p + 1, size):
            if h[p][q] != h[q][p]:
                raise InvalidDiamond(
                    f"Hodge symmetry broken: h[{p}][{q}]={h[p][q]} "
                    f"but h[{q}][{p}]={h[q][p]}"
                )
    for p in range(size):
        for q in range(size):
            if h[p][q] != h[n - p][n - q]:
                warnings.warn(f"h[{p}][{q}] != h[{n - p}][{n - q}]", SerreDualityWarning)
                return


@st.composite
def diamond_tables(draw):
    """Hodge-symmetric tables with h[0][0] = 1, n = 0..12 and entries up to
    10**30; odd-degree entries vanish or not, Serre duality holds or not."""
    n = draw(st.integers(0, 12))
    odd = draw(st.booleans())
    serre = draw(st.booleans())
    entries = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 10**30))
    h = [[None] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(p, n + 1):
            if h[p][q] is not None:
                continue
            if (p, q) == (0, 0):
                v = 1
            elif (p + q) % 2 and not odd:
                v = 0
            else:
                v = draw(entries)
            cells = [(p, q), (q, p)]
            if serre:
                cells += [(n - p, n - q), (n - q, n - p)]
            for a, b in cells:
                h[a][b] = v
    return tuple(tuple(row) for row in h)


def _outcome(build, n, h):
    """(exception type and message or None, warning texts) of build(n, h)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            build(n, h)
            error = None
        except InvalidDiamond as exc:
            error = (type(exc), str(exc))
    return error, [(w.category, str(w.message)) for w in caught]


class TestSumsMatchReference:
    @given(diamond_tables())
    def test_sums(self, h):
        n = len(h) - 1
        assert _outcome(HodgeDiamond, n, h) == _outcome(ref_validate, n, h)
        d = HodgeDiamond(n, h)
        assert d.even_betti() == ref_even_betti(d)
        assert chi_p(d) == ref_chi_p(d)
        assert d.is_odd_vanishing == ref_is_odd_vanishing(d)
        assert sum(chi_p(d)) == ref_euler(d)
        got = defect(d)
        assert type(got) is Fraction
        assert got == ref_defect(d)

    def test_negative_dimension(self):
        with pytest.raises(InvalidDiamond, match=r"^dimension must be >= 0, got -1$"):
            HodgeDiamond(-1, ())

    def test_edge_sizes(self):
        point = HodgeDiamond(0, ((1,),))
        assert (point.even_betti(), chi_p(point), point.is_odd_vanishing) == ((1,), (1,), True)
        assert defect(point) == 0
        curve = HodgeDiamond.from_table([[1, 2], [2, 1]])
        assert curve.even_betti() == (1, 1) and chi_p(curve) == (-1, -1)
        assert not curve.is_odd_vanishing and defect(curve) == 1


class TestConstructorMatchesReference:
    @given(diamond_tables(), st.data())
    def test_one_perturbed_entry(self, h, data):
        n = len(h) - 1
        p = data.draw(st.integers(0, n))
        q = data.draw(st.integers(0, n))
        v = data.draw(st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)))
        rows = [list(row) for row in h]
        rows[p][q] = v
        table = tuple(tuple(row) for row in rows)
        assert _outcome(HodgeDiamond, n, table) == _outcome(ref_validate, n, table)

    @pytest.mark.parametrize(
        "table",
        [
            [[1, 2], [0, 1]],  # asymmetric
            [[1, 0, 0], [0, -1, 0], [0, 0, 1]],  # negative
            [[2, 0], [0, 2]],  # h[0][0] != 1
            [[1, 0, 0], [0, 5, 0], [0, 0, 3]],  # Serre break on the diagonal
            [[1, 0, 4], [0, 5, 0], [4, 0, 3]],
            [[1, 0], [0, 1, 0]],  # bad shape
            [],  # n = -1: no table has a negative size
        ],
    )
    def test_examples(self, table):
        n = len(table) - 1
        h = tuple(tuple(row) for row in table)
        got = _outcome(HodgeDiamond, n, h)
        assert got == _outcome(ref_validate, n, h)
        assert got[0] is not None or len(got[1]) == 1
