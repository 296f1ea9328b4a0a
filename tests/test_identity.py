"""The weighted Betti / Chern identity in all its forms."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fanocheck import (
    HodgeDiamond,
    IdentityReport,
    ToricInvariants,
    analyze,
    check_betti_chern,
    chern_side,
    chi_p,
    chi_weighted_sum,
    defect,
    dim2_corpus,
    edge_interior_points,
    face_lattice,
    gen_direct_sum,
    gen_pn,
    loads_polytope,
    polar_dual,
    quarter_weighted_form,
    read_polytope,
    reflexive_dual,
    toric_identity_report,
    verify_chi_identity,
    verify_face_count_identity,
    weighted_betti_sum,
)
from fanocheck.errors import (
    HypothesisViolated,
    LengthMismatch,
    NotPalindromic,
    ParseError,
    ValidationError,
)

from conftest import diagonal_diamond, random_symmetric_diamond
from test_golden import FIXTURES, GOLDEN, ROOT, _generated_polytopes

pytestmark = pytest.mark.filterwarnings(
    "ignore::fanocheck.errors.SerreDualityWarning"
)

K3 = HodgeDiamond.from_table([[1, 0, 1], [0, 20, 0], [1, 0, 1]])


class TestWeightedBettiSum:
    def test_p3(self):
        assert weighted_betti_sum((1, 1, 1, 1), 3) == 5

    def test_p1(self):
        assert weighted_betti_sum((1, 1), 1) == Fraction(1, 2)

    def test_zero(self):
        assert weighted_betti_sum((0, 0, 0), 2) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_betti_sum((1, 1), 2)

    def test_pn_closed_form(self):
        for n in range(1, 10):
            assert weighted_betti_sum((1,) * (n + 1), n) == Fraction(
                n * (n + 1) * (n + 2), 12
            )


class TestChernSide:
    def test_p2_values(self):
        assert chern_side(9, 3, 2) == 2

    def test_k3_values(self):
        assert chern_side(0, 24, 2) == 4

    def test_zero(self):
        for n in range(1, 6):
            assert chern_side(0, 0, n) == 0


class TestCheckBettiChern:
    def test_p2(self):
        report = check_betti_chern(diagonal_diamond([1, 1, 1]), 9, 3)
        assert (report.lhs, report.rhs, report.defect) == (2, 2, 0)
        assert report.equality and report.inequality_ok
        assert report.chi_identity_ok and report.quarter_form_ok

    def test_k3(self):
        report = check_betti_chern(K3, 0, 24)
        assert (report.lhs, report.rhs, report.defect) == (2, 4, 2)
        assert not report.equality
        assert report.inequality_ok
        assert report.chi_identity_ok
        assert report.lhs + report.defect == report.rhs

    def test_p1(self):
        report = check_betti_chern(diagonal_diamond([1, 1]), 2, 2)
        assert report.lhs == report.rhs == Fraction(1, 2)
        assert report.equality and report.defect == 0

    def test_cubic_fourfold(self):
        # h^{1,1} = h^{3,3} = 1, h^{2,2} = 21, h^{3,1} = h^{1,3} = 1;
        # Chern numbers c_1 c_3 = 18, c_4 = 27 from c(X) = (1+H)^6 / (1+3H).
        h = [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 21, 0, 0],
            [0, 1, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ]
        h[1][3] = 1
        report = check_betti_chern(HodgeDiamond.from_table(h), 18, 27)
        assert (report.lhs, report.rhs, report.defect) == (10, 12, 2)
        assert report.inequality_ok and not report.equality
        assert report.chi_identity_ok

    def test_rejects_odd_cohomology(self):
        h = [[1, 0], [0, 1]]
        h[0][1] = h[1][0] = 2  # e.g. a genus-2 curve
        with pytest.raises(HypothesisViolated):
            check_betti_chern(HodgeDiamond.from_table(h), 0, -2)
        with pytest.raises(HypothesisViolated):
            check_betti_chern(HodgeDiamond.from_table(h))

    @pytest.mark.parametrize("chern", [{}, {"c1_cn1": 0}, {"c_n": 24}])
    def test_without_chern_numbers(self, chern):
        # Without both Chern numbers the one report call gives lhs and the
        # defect as it does with them, and None for every rhs field.
        report = check_betti_chern(K3, **chern)
        full = check_betti_chern(K3, 0, 24)
        assert (report.lhs4, report.defect4) == (full.lhs4, full.defect4)
        assert report.rhs12 is None and report.rhs is None
        verdicts = ("equality", "inequality_ok", "chi_identity_ok", "quarter_form_ok")
        assert [getattr(report, k) for k in verdicts] == [None] * 4
        # The chi side's verdicts were not tested, so they are not written.
        assert list(report.to_dict()) == ["lhs", "defect", "rhs", "equality", "inequality_ok"]

    @pytest.mark.parametrize(
        "table, c1_cn1, c_n, verdict",
        [
            # c_n is not the Betti sum, so the original normalization fails.
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7, 5, "quarter_form_ok"),
            # K3's chi side (2, -20, 2) is not its Betti list.
            ([[1, 0, 1], [0, 20, 0], [1, 0, 1]], 0, 12, "chi_identity_ok"),
        ],
    )
    def test_written_verdict_can_disagree_with_equality(self, table, c1_cn1, c_n, verdict):
        # Each verdict a diamond report writes besides equality and
        # inequality_ok tests something equality does not.
        report = check_betti_chern(HodgeDiamond.from_table(table), c1_cn1, c_n)
        written = report.to_dict()
        assert written["equality"] is True and written[verdict] is False
        assert list(written) == [
            "lhs", "defect", "rhs",
            "equality", "inequality_ok", "chi_identity_ok", "quarter_form_ok",
        ]


class TestChiIdentity:
    def test_k3(self):
        assert verify_chi_identity((2, 20, 2), 0, 24, 2)

    def test_p2(self):
        assert verify_chi_identity((1, 1, 1), 9, 3, 2)

    def test_false_case(self):
        assert not verify_chi_identity((1, 0, 1), 0, 0, 2)

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            verify_chi_identity((1, 2, 3), 0, 0, 2)

    def test_length(self):
        with pytest.raises(LengthMismatch):
            verify_chi_identity((1, 1), 0, 0, 2)


class TestQuarterWeightedForm:
    def test_p2(self):
        lhs, rhs = quarter_weighted_form((1, 1, 1), 9, 2)
        assert lhs == rhs == Fraction(-5, 16)

    def test_k3_strict(self):
        lhs, rhs = quarter_weighted_form((1, 22, 1), 0, 2)
        assert lhs != rhs
        assert lhs - rhs == Fraction(1, 2)

    def test_zero(self):
        assert quarter_weighted_form((0, 0), 0, 1) == (0, 0)

    def test_scaling_relation(self, rng):
        # lhs - rhs is always -(1/4) of (weighted sum - Chern side) with
        # c_n taken as the Betti sum, so the two identities are equivalent.
        for _ in range(300):
            n = rng.randint(1, 8)
            betti = [rng.randint(0, 50) for _ in range(n + 1)]
            c1 = rng.randint(-200, 200)
            lhs, rhs = quarter_weighted_form(betti, c1, n)
            gap = weighted_betti_sum(betti, n) - chern_side(c1, sum(betti), n)
            assert lhs - rhs == -Fraction(1, 4) * gap

    def test_equivalence_of_forms(self, rng):
        hits = 0
        for _ in range(300):
            n = rng.randint(1, 8)
            betti = [rng.randint(0, 50) for _ in range(n + 1)]
            c_n = sum(betti)
            exact = 6 * weighted_betti_sum(betti, n) - Fraction(n, 2) * c_n
            if exact.denominator == 1 and rng.random() < 0.5:
                c1 = int(exact)  # forces the rewritten identity to hold
            else:
                c1 = rng.randint(-200, 200)
            rewritten = weighted_betti_sum(betti, n) == chern_side(c1, c_n, n)
            lhs, rhs = quarter_weighted_form(betti, c1, n)
            assert (lhs == rhs) == rewritten
            hits += rewritten
        assert hits > 0  # both branches of the iff exercised


class TestFaceCountIdentity:
    def test_dim2_examples(self):
        # triangle: 1 = 6/12 + (1/2 - 1/3) * 3, square: 1 = 4/12 + (1/6) * 4,
        # hexagon: 1 = 0/12 + (1/6) * 6
        for entry in dim2_corpus():
            delta = polar_dual(entry.polytope)
            assert verify_face_count_identity(delta, face_lattice(delta))

    def test_higher_dim(self):
        for P in (gen_pn(3), gen_direct_sum(gen_pn(1), gen_pn(2)), gen_pn(1)):
            delta = polar_dual(P)
            assert verify_face_count_identity(delta, face_lattice(delta))

    def test_hexagon_edges_short(self):
        hexagon = dim2_corpus()[-1]
        delta = polar_dual(hexagon.polytope)
        lat = face_lattice(delta)
        assert lat.f_vector() == (6, 6, 1)
        from fanocheck import edge_interior_points

        for e in lat.faces(1):
            i, j = e.vertex_indices
            assert edge_interior_points(delta.vertices[i], delta.vertices[j]) == 0


class TestConstantRegression:
    def test_n_twelfths_not_one_twelfth(self):
        # For projective 3-space the c_n coefficient must be n/12, not 1/12.
        lhs = weighted_betti_sum((1, 1, 1, 1), 3)
        good = Fraction(24, 6) + Fraction(3, 12) * 4
        bad = Fraction(24, 6) + Fraction(1, 12) * 4
        assert lhs == good == chern_side(24, 4, 3)
        assert lhs != bad
        assert bad == Fraction(13, 3)


class TestEqualityCriterion:
    def test_equality_iff_diagonal_for_consistent_chern_data(self, rng):
        # When the Chern side is engineered to match the chi-weighted sum
        # (as it does for every actual variety), equality holds exactly
        # when the defect vanishes, i.e. exactly for diagonal diamonds.
        for _ in range(200):
            d = random_symmetric_diamond(rng, max_n=6, max_entry=12)
            n = d.n
            c_n = sum(chi_p(d))
            target = chi_weighted_sum(chi_p(d), n)
            c1_exact = 6 * target - Fraction(n, 2) * c_n
            if c1_exact.denominator != 1:
                continue
            report = check_betti_chern(d, int(c1_exact), c_n)
            assert report.chi_identity_ok
            assert report.inequality_ok
            diagonal = all(x == 0 for p, row in enumerate(d.h) for q, x in enumerate(row) if p != q)
            assert report.equality == (report.defect == 0) == diagonal
            assert report.lhs + report.defect == report.rhs


class TestMonotonePerturbation:
    def test_off_diagonal_pair_grows_defect_exactly(self, rng):
        for _ in range(100):
            d = random_symmetric_diamond(rng, max_n=6, max_entry=10)
            n = d.n
            slots = [
                (p, q)
                for p in range(n + 1)
                for q in range(p + 1, n + 1)
                if (p + q) % 2 == 0
            ]
            if not slots:
                continue
            p, q = rng.choice(slots)
            h = [list(row) for row in d.h]
            h[p][q] += 1
            h[q][p] += 1
            bumped = HodgeDiamond.from_table(h)

            added = 2 * Fraction(q - p, 2) ** 2
            assert defect(bumped) - defect(d) == added
            assert defect(bumped) > defect(d)
            # the decomposition balance survives the perturbation
            for dd in (d, bumped):
                assert weighted_betti_sum(dd.even_betti(), n) + defect(
                    dd
                ) == chi_weighted_sum(chi_p(dd), n)
            # and the chi side moves by the perturbation's full weight
            half_n = Fraction(n, 2)
            assert chi_weighted_sum(chi_p(bumped), n) - chi_weighted_sum(
                chi_p(d), n
            ) == (p - half_n) ** 2 + (q - half_n) ** 2


@pytest.fixture
def rng():
    return random.Random(55331)


# Reference implementations: the identity kernels written directly in
# Fraction arithmetic.  The library sums scaled integers instead, and must
# agree with these exactly.


def ref_weighted_betti_sum(betti, n):
    half_n = Fraction(n, 2)
    return sum((b * (k - half_n) ** 2 for k, b in enumerate(betti)), Fraction(0))


def ref_chern_side(c1_cn1, c_n, n):
    return Fraction(c1_cn1, 6) + Fraction(n, 12) * c_n


def ref_quarter_weighted_form(betti, c1_cn1, n):
    mid = Fraction(n - 1, 2)
    lhs = Fraction(1, 4) * sum(
        (b * (k - mid) * (1 - k + mid) for k, b in enumerate(betti)), Fraction(0)
    )
    rhs = Fraction(1, 24) * (Fraction(3 - n, 2) * sum(betti) - c1_cn1)
    return lhs, rhs


def ref_face_count_identity(delta, faces):
    n = delta.dim
    fvec = faces.f_vector()
    two_faces = fvec[2] if n >= 2 else 0
    interior_total = sum(
        edge_interior_points(
            delta.vertices[e.vertex_indices[0]], delta.vertices[e.vertex_indices[1]]
        )
        for e in faces.faces(1)
    )
    rhs = Fraction(interior_total, 12) + (Fraction(n * n, 8) - Fraction(n, 6)) * fvec[0]
    return Fraction(two_faces) == rhs


BIG = 10**30
_entries = st.integers(-BIG, BIG)


@st.composite
def _vector_and_n(draw):
    n = draw(st.integers(0, 12))
    return draw(st.lists(_entries, min_size=n + 1, max_size=n + 1)), n


@st.composite
def _diamond_and_chern(draw):
    """A Hodge-symmetric, odd-vanishing diamond and Chern numbers with c1_cn1
    within 1 of where the two sides of one verdict meet, so that each
    verdict is drawn both true and false."""
    n = draw(st.integers(0, 6))
    h = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(p, n + 1, 2):
            h[p][q] = h[q][p] = draw(st.integers(0, 30))
    h[0][0] = 1
    diamond = HodgeDiamond.from_table(h)
    betti = diamond.even_betti()
    c_n = draw(st.integers(-BIG, BIG))
    quarter_lhs = ref_quarter_weighted_form(betti, 0, n)[0]
    meeting = draw(st.sampled_from([
        12 * ref_weighted_betti_sum(betti, n) - n * c_n,  # equality, inequality
        12 * ref_weighted_betti_sum(chi_p(diamond), n) - n * c_n,  # chi identity
        (3 - n) * sum(betti) - 48 * quarter_lhs,  # quarter form
    ])) / 2
    return diamond, math.floor(meeting) + draw(st.integers(-1, 1)), c_n


class TestKernelsMatchFractionReference:
    @given(_vector_and_n())
    def test_weighted_sums(self, vec_n):
        vec, n = vec_n
        for kernel in (weighted_betti_sum, chi_weighted_sum):
            got = kernel(vec, n)
            assert type(got) is Fraction
            assert got == ref_weighted_betti_sum(vec, n)

    @given(_entries, _entries, st.integers(0, 12))
    def test_chern_side(self, c1_cn1, c_n, n):
        got = chern_side(c1_cn1, c_n, n)
        assert type(got) is Fraction
        assert got == ref_chern_side(c1_cn1, c_n, n)

    @given(_vector_and_n(), _entries)
    def test_quarter_weighted_form(self, vec_n, c1_cn1):
        betti, n = vec_n
        got = quarter_weighted_form(betti, c1_cn1, n)
        assert all(type(x) is Fraction for x in got)
        assert got == ref_quarter_weighted_form(betti, c1_cn1, n)

    @pytest.mark.parametrize("dual", [True, False])
    def test_face_count_verdicts(self, dual):
        # The identity holds on the dual of a smooth Fano and generally fails
        # on the polytope itself or on the dual of a singular one, so both
        # verdicts are compared.
        singular = loads_polytope("2 3\n1 0\n0 1\n-1 -2\n")
        polytopes = [e.polytope for e in dim2_corpus()] + [
            gen_pn(1), gen_pn(3), gen_pn(4), gen_direct_sum(gen_pn(1), gen_pn(2)), singular,
        ]
        verdicts = []
        for P in polytopes:
            target = reflexive_dual(P) if dual else P
            faces = face_lattice(target)
            verdict = verify_face_count_identity(target, faces)
            assert verdict == ref_face_count_identity(target, faces)
            verdicts.append(verdict)
        assert False in verdicts

    @given(_diamond_and_chern())
    def test_check_betti_chern(self, case):
        diamond, c1_cn1, c_n = case
        n, betti = diamond.n, diamond.even_betti()
        lhs = ref_weighted_betti_sum(betti, n)
        rhs = ref_chern_side(c1_cn1, c_n, n)
        gap = sum(
            (Fraction(x * (q - p) ** 2, 4) for p, row in enumerate(diamond.h)
             for q, x in enumerate(row)),
            Fraction(0),
        )
        quarter_lhs, quarter_rhs = ref_quarter_weighted_form(betti, c1_cn1, n)
        got = check_betti_chern(diamond, c1_cn1, c_n)
        assert all(type(x) is Fraction for x in (got.lhs, got.rhs, got.defect))
        assert (got.lhs, got.rhs, got.defect) == (lhs, rhs, gap)
        assert got.equality == (lhs == rhs)
        assert got.inequality_ok == (lhs <= rhs)
        assert got.chi_identity_ok == (ref_weighted_betti_sum(chi_p(diamond), n) == rhs)
        assert got.quarter_form_ok == (quarter_lhs == quarter_rhs)


def _old_frac_str(x: Fraction) -> str:
    """How a report wrote a side when IdentityReport held Fractions."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# Numerators as the kernels make them: small, any size, and 4000 digits
# (the bound on a file's integers).
_numerators = st.one_of(
    st.integers(-100, 100),
    st.integers(),
    st.builds(
        lambda sign, x: sign * x,
        st.sampled_from([1, -1]),
        st.integers(10**3999, 10**4000 - 1),
    ),
)


class TestIdentityReportNumerators:
    @given(st.integers(0, 12), _numerators, _numerators, st.none() | _numerators)
    @example(2, 8, 0, 24)
    @example(1, -6, 2, None)
    @example(4, 10**4000 - 1, -(10**4000 - 1), 12 * (10**4000 - 1))
    def test_text_and_fractions_match_the_numerators(self, n, lhs4, defect4, rhs12):
        report = IdentityReport(n=n, lhs4=lhs4, defect4=defect4, rhs12=rhs12)
        sides = {"lhs": (lhs4, 4), "defect": (defect4, 4), "rhs": (rhs12, 12)}
        written = report.to_dict()
        assert list(written) == ["lhs", "defect", "rhs", "equality", "inequality_ok"]
        for name, (num, scale) in sides.items():
            got = getattr(report, name)
            if num is None:
                assert got is None and written[name] is None
                continue
            assert type(got) is Fraction
            assert got == Fraction(num, scale)
            assert written[name] == _old_frac_str(Fraction(num, scale))
        if rhs12 is None:
            assert report.equality is None and report.inequality_ok is None
        else:
            assert report.equality == (3 * lhs4 == rhs12)
            assert report.inequality_ok == (3 * lhs4 <= rhs12)


def ref_toric_report(inv):
    """The toric report as the diagonal diamond of the Betti numbers gives
    it, without the chi side's verdicts: there they would restate equality."""
    ref = check_betti_chern(diagonal_diamond(inv.betti), inv.c1_cn1, inv.c_n)
    return IdentityReport(*ref._key()[:4])


@st.composite
def _toric_invariants(draw):
    """Palindromic Betti numbers with c_n their sum, an f-vector drawn at
    random, and c1_cn1 within 1 of where the two sides meet."""
    n = draw(st.integers(1, 8))
    half = [1, *draw(st.lists(st.integers(0, 10**6), min_size=n // 2, max_size=n // 2))]
    betti = (*half, *half[: n + 1 - len(half)][::-1])
    f_vector = tuple(draw(st.lists(st.integers(0, 500), min_size=n + 1, max_size=n + 1)))
    c_n = sum(betti)
    meeting = (12 * ref_weighted_betti_sum(betti, n) - n * c_n) / 2
    c1_cn1 = math.floor(meeting) + draw(st.integers(-1, 1))
    return ToricInvariants(n, betti, c_n, c1_cn1, f_vector)


class TestToricReportMatchesDiamondRoute:
    """toric_identity_report builds no diamond; the report it gives is the
    one check_betti_chern gives on the diagonal diamond of the Betti
    numbers, less the verdicts that would restate equality there."""

    def test_golden_inputs(self):
        cases = list(_generated_polytopes())
        for path in sorted(FIXTURES.glob("*.poly")):
            label = path.relative_to(ROOT).as_posix()
            try:
                P = read_polytope(path)
                cases.append((label, P))
                cases.append((f"{label} --dual", reflexive_dual(P)))
            except (ParseError, ValidationError):
                pass
        checked = []
        for label, P in cases:
            try:
                analysis = analyze(P)
            except ValidationError:
                continue
            delta, inv = analysis.delta, analysis.invariants
            assert verify_face_count_identity(delta, face_lattice(delta)), label
            assert toric_identity_report(inv) == ref_toric_report(inv), label
            checked.append(label)
        golden = json.loads(GOLDEN.read_text())
        toric = [k for k, v in golden.items() if v["mode"] == "toric" and "identity" in v]
        assert sorted(checked) == sorted(toric)

    @given(_toric_invariants())
    def test_palindromic_betti(self, inv):
        got = toric_identity_report(inv)
        assert got == ref_toric_report(inv)
        assert got.defect4 == 0
