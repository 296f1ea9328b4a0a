"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s pytest shows them for failing criteria only.  Every
comparison is exact (integers or Fractions); there are no tolerances
anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from fanocheck import (
    CheckStatus,
    IntPolynomial,
    chi_p,
    defect,
    dim2_corpus,
    dumps_polytope,
    face_lattice,
    gen_direct_sum,
    gen_pn,
    is_reflexive,
    loads_polytope,
    poincare_polynomial,
    run_batch,
    run_check,
    second_derivative_at_one,
    verify_face_count_identity,
    weighted_betti_sum,
)
from fanocheck.pipeline import analyze, clear_caches

from conftest import (
    diagonal_diamond,
    random_symmetric_diamond,
    ref_chern_side,
    ref_quarter_weighted_form,
    ref_weighted_betti_sum,
)

FIXTURES = Path(__file__).parent / "fixtures"

pytestmark = pytest.mark.filterwarnings(
    "ignore::fanocheck.errors.SerreDualityWarning"
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    else:
        print(f"[criterion {number}] PASS: {description}")


def product_family():
    """All direct sums of projective spaces {P1, P2, P3}, total dim <= 5."""
    out = []
    for size in range(2, 6):
        for parts in combinations_with_replacement((1, 2, 3), size):
            if sum(parts) <= 5:
                P = gen_pn(parts[0])
                for d in parts[1:]:
                    P = gen_direct_sum(P, gen_pn(d))
                out.append((parts, P))
    return out


def full_corpus():
    polytopes = [(e.name, e.polytope) for e in dim2_corpus()]
    polytopes += [(f"P{n}", gen_pn(n)) for n in range(1, 9)]
    polytopes += [("x".join(f"P{d}" for d in parts), P) for parts, P in product_family()]
    return polytopes


def assert_every_form(analysis, label):
    """The chi-weighted, original-normalization and face-count forms of the
    identity, each through its own formula: the report writes none of them
    for a toric input, where chi_p is the Betti number h^{2p}."""
    inv, delta = analysis.invariants, analysis.delta
    assert inv.betti == inv.betti[::-1], label
    chern = ref_chern_side(inv.c1_cn1, inv.c_n, inv.n)
    assert ref_weighted_betti_sum(inv.betti, inv.n) == chern, label
    lhs, rhs = ref_quarter_weighted_form(inv.betti, inv.c1_cn1, inv.n)
    assert lhs == rhs, label
    assert verify_face_count_identity(delta, face_lattice(delta)), label


def test_criterion_1_projective_space_family():
    with criterion(1, "projective spaces n=1..8: closed forms, < 1 s each"):
        clear_caches()
        for n in range(1, 9):
            start = time.perf_counter()
            analysis = analyze(gen_pn(n))
            elapsed = time.perf_counter() - start
            inv = analysis.invariants
            rep = analysis.report
            assert inv.betti == (1,) * (n + 1)
            assert inv.c_n == n + 1
            assert inv.c1_cn1 == n * (n + 1) ** 2 // 2
            expected = Fraction(n * (n + 1) * (n + 2), 12)
            assert rep.lhs == rep.rhs == expected
            assert rep.equality and rep.defect == 0
            assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"


def test_criterion_2_dim2_corpus():
    with criterion(2, "all 5 smooth toric del Pezzo surfaces verify exactly"):
        entries = dim2_corpus()
        assert len(entries) == 5
        for entry in entries:
            assert entry.polytope.cones, entry.name
            assert is_reflexive(entry.polytope), entry.name
            analysis = analyze(entry.polytope)
            rep = analysis.report
            assert rep.equality and rep.defect == 0, entry.name
            assert rep.inequality_ok, entry.name
            assert_every_form(analysis, entry.name)
            assert all(analysis.consistency.values()), entry.name
        by_name = {e.name: analyze(e.polytope) for e in entries}
        p2 = by_name["P2"]
        assert (p2.report.lhs, p2.report.rhs) == (2, 2)
        assert p2.invariants.c1_cn1 == 9
        hexagon = by_name["Bl3P2"]
        assert hexagon.invariants.betti == (1, 4, 1)
        assert hexagon.invariants.c1_cn1 == 6


def test_criterion_3_product_family():
    with criterion(3, "direct sums of P1/P2/P3 up to dim 5 verify; multiplicative"):
        family = product_family()
        assert len(family) == 12
        for parts, P in family:
            analysis = analyze(P)
            expected_poly = poincare_polynomial(
                face_lattice(analyze(gen_pn(parts[0])).delta)
            )
            for d in parts[1:]:
                expected_poly = expected_poly * poincare_polynomial(
                    face_lattice(analyze(gen_pn(d)).delta)
                )
            e_poly = IntPolynomial.from_coeffs(analysis.invariants.betti)
            assert e_poly == expected_poly, parts
            rep = analysis.report
            assert rep.equality and rep.defect == 0, parts
            assert_every_form(analysis, parts)
            assert all(analysis.consistency.values()), parts
        pinned = analyze(gen_direct_sum(gen_pn(1), gen_pn(2)))
        assert pinned.invariants.betti == (1, 2, 2, 1)
        assert pinned.invariants.c_n == 6
        assert pinned.invariants.c1_cn1 == 24
        assert pinned.report.lhs == pinned.report.rhs == Fraction(11, 2)


def test_criterion_4_k3_diamond_mode():
    with criterion(4, "K3 diamond: lhs 2, rhs 4, defect 2, strict inequality"):
        entry = run_check(FIXTURES / "k3.json")
        assert entry.status is CheckStatus.OK
        ident = entry.payload["identity"]
        assert ident["lhs"] == "2"
        assert ident["rhs"] == "4"
        assert ident["defect"] == "2"
        assert ident["equality"] is False
        assert ident["inequality_ok"] is True
        assert ident["chi_identity_ok"] is True


def test_criterion_5_decomposition_property():
    with criterion(5, ">= 1000 random diamonds: exact decomposition, defect >= 0"):
        rng = random.Random(16180339)
        diagonal_seen = nondiagonal_seen = 0
        for _ in range(1000):
            d = random_symmetric_diamond(rng, max_n=6, max_entry=50)
            lhs = weighted_betti_sum(d.even_betti(), d.n)
            gap = defect(d)
            assert lhs + gap == ref_weighted_betti_sum(chi_p(d), d.n)
            assert gap >= 0
            diagonal = all(x == 0 for p, row in enumerate(d.h) for q, x in enumerate(row) if p != q)
            assert (gap == 0) == diagonal
            diagonal_seen += diagonal
            nondiagonal_seen += not diagonal
        # force the equality branch with explicit diagonal diamonds
        for betti in ((1, 1, 1), (1, 5, 9, 5, 1), (1, 0, 1)):
            assert defect(diagonal_diamond(betti)) == 0
            diagonal_seen += 1
        assert diagonal_seen > 0 and nondiagonal_seen > 0


def test_criterion_6_internal_consistency():
    with criterion(6, "internal consistency suite exact on every corpus polytope"):
        for name, P in full_corpus():
            analysis = analyze(P)
            inv = analysis.invariants
            e_poly = IntPolynomial.from_coeffs(inv.betti)
            n = P.dim
            fD = face_lattice(analysis.delta).f_vector()
            fP = face_lattice(P).f_vector()
            two_faces = fD[2] if n >= 2 else 0
            assert second_derivative_at_one(e_poly) == 2 * two_faces, name
            assert Fraction(2 * two_faces) == Fraction(inv.c1_cn1, 6) + (
                Fraction(n * n, 4) - Fraction(5 * n, 12)
            ) * inv.c_n, name
            assert 2 * fD[1] == n * fD[0], name
            assert all(fD[k] == fP[n - 1 - k] for k in range(n)), name
            assert e_poly(1) == sum(inv.betti) == inv.c_n, name


def test_criterion_7_equivalence_of_forms():
    with criterion(7, ">= 1000 random inputs: intro form holds iff rewritten form"):
        rng = random.Random(27182818)
        agree = disagree = 0
        for _ in range(1000):
            n = rng.randint(1, 8)
            betti = [rng.randint(0, 50) for _ in range(n + 1)]
            c_n = sum(betti)
            exact = 6 * weighted_betti_sum(betti, n) - Fraction(n, 2) * c_n
            if exact.denominator == 1 and rng.random() < 0.5:
                c1_cn1 = int(exact)
            else:
                c1_cn1 = rng.randint(-300, 300)
            rewritten_holds = weighted_betti_sum(betti, n) == ref_chern_side(
                c1_cn1, c_n, n
            )
            lhs, rhs = ref_quarter_weighted_form(betti, c1_cn1, n)
            assert (lhs == rhs) == rewritten_holds
            agree += rewritten_holds
            disagree += not rewritten_holds
        assert agree > 0 and disagree > 0


def test_criterion_8_negative_controls():
    with criterion(8, "singular input exits 2; bad diamond rejected; n/12 pinned"):
        entry = run_check(FIXTURES / "singular_dp.poly")
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert entry.status.exit_code == 2
        assert entry.payload["valid"]["reflexive"] is True
        assert "NotSmooth" in entry.error

        bad_diamond = run_check(FIXTURES / "asym.json")
        assert bad_diamond.status is CheckStatus.VALIDATION_ERROR
        assert bad_diamond.status.exit_code == 2

        # P3: the c_n coefficient must be n/12; the 1/12 variant fails.
        p3 = analyze(gen_pn(3))
        lhs = p3.report.lhs
        c1_cn1, c_n = p3.invariants.c1_cn1, p3.invariants.c_n
        assert lhs == p3.report.rhs == ref_chern_side(c1_cn1, c_n, 3) == 5
        one_twelfth_variant = Fraction(c1_cn1, 6) + Fraction(1, 12) * c_n
        assert lhs != one_twelfth_variant


def test_criterion_9_robustness():
    with criterion(9, "parser round-trips; a batch reports its files checked one by one"):
        for path in sorted(FIXTURES.glob("*.poly")):
            if path.name == "bad_header.poly":
                continue
            P = loads_polytope(path.read_text())
            again = loads_polytope(dumps_polytope(P, comment=path.name))
            assert sorted(again.vertices) == sorted(P.vertices), path.name
        for name, P in full_corpus():
            assert loads_polytope(dumps_polytope(P)).vertices == P.vertices, name

        batch = run_batch([FIXTURES])
        one_by_one = [run_check(p).to_dict() for p in sorted(map(str, FIXTURES.iterdir()))]
        assert [e.to_dict() for e in batch.entries] == one_by_one
        assert batch.exit_status == 2  # the broken fixtures are counted
