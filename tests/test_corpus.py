"""Generators and the built-in dimension-2 corpus."""

import pytest

from fanocheck import (
    FanoPolytope,
    IntPolynomial,
    compute_invariants,
    dim2_corpus,
    face_lattice,
    gen_direct_sum,
    gen_pn,
    is_reflexive,
    poincare_polynomial,
    polar_dual,
)
from fanocheck.errors import InvalidDimension, NotReflexive, NotSmooth


def invariants_of(P):
    delta = polar_dual(P)
    faces = face_lattice(delta)
    return compute_invariants(delta, faces)


class TestGenPn:
    def test_p1(self):
        assert set(gen_pn(1).vertices) == {(1,), (-1,)}

    def test_p2(self):
        assert set(gen_pn(2).vertices) == {(1, 0), (0, 1), (-1, -1)}

    def test_p3_smooth(self):
        P = gen_pn(3)
        assert len(P.vertices) == 4
        assert (-1, -1, -1) in P.vertices
        assert P.cones and is_reflexive(P)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            gen_pn(0)
        with pytest.raises(InvalidDimension):
            gen_pn(-3)


class TestDirectSum:
    def test_p1_p1_is_cross_polytope(self):
        S = gen_direct_sum(gen_pn(1), gen_pn(1))
        assert set(S.vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_p1_p2(self):
        S = gen_direct_sum(gen_pn(1), gen_pn(2))
        assert len(S.vertices) == 5
        assert S.dim == 3
        inv = invariants_of(S)
        assert IntPolynomial.from_coeffs(inv.betti) == poincare_polynomial(
            face_lattice(polar_dual(gen_pn(1)))
        ) * poincare_polynomial(face_lattice(polar_dual(gen_pn(2))))

    def test_p2_p2(self):
        S = gen_direct_sum(gen_pn(2), gen_pn(2))
        assert len(S.vertices) == 6
        assert S.dim == 4
        assert invariants_of(S).c_n == 9

    def test_dual_is_product_of_duals(self):
        P, Q = gen_pn(1), gen_pn(2)
        S = gen_direct_sum(P, Q)
        dp = set(polar_dual(P).vertices)
        dq = set(polar_dual(Q).vertices)
        assert set(polar_dual(S).vertices) == {a + b for a in dp for b in dq}

    def test_rejects_bad_summands(self):
        singular = FanoPolytope(2, ((1, 0), (0, 1), (-1, -2)))
        with pytest.raises(NotSmooth) as info:
            gen_direct_sum(singular, gen_pn(1))
        with pytest.raises(NotSmooth) as dual_info:
            polar_dual(singular)
        assert str(info.value) == str(dual_info.value)
        skew = FanoPolytope(2, ((1, 0), (0, 1), (-1, -3)))
        with pytest.raises(NotReflexive) as info:
            gen_direct_sum(gen_pn(1), skew)
        with pytest.raises(NotReflexive) as dual_info:
            polar_dual(skew)
        assert str(info.value) == str(dual_info.value)


class TestDim2Corpus:
    def test_exactly_five_entries(self):
        assert len(dim2_corpus()) == 5

    def test_all_smooth_reflexive(self):
        for entry in dim2_corpus():
            assert entry.polytope.cones, entry.name
            assert is_reflexive(entry.polytope), entry.name

    def test_pinned_values(self):
        for entry in dim2_corpus():
            inv = invariants_of(entry.polytope)
            assert inv.betti == entry.expected.betti, entry.name
            assert inv.c_n == entry.expected.c_n, entry.name
            assert inv.c1_cn1 == entry.expected.c1_cn1, entry.name

    def test_hexagon(self):
        hexagon = dim2_corpus()[-1]
        assert hexagon.name == "Bl3P2"
        inv = invariants_of(hexagon.polytope)
        assert inv.betti == (1, 4, 1)
        assert inv.c_n == 6
        assert inv.c1_cn1 == 6

    def test_quadric_matches_direct_sum(self):
        by_name = {e.name: e for e in dim2_corpus()}
        S = gen_direct_sum(gen_pn(1), gen_pn(1))
        assert set(by_name["P1xP1"].polytope.vertices) == set(S.vertices)

    def test_euler_numbers_increase_by_one(self):
        # each blow-up adds one to the Euler number: 3, 4, 4, 5, 6
        eulers = [invariants_of(e.polytope).c_n for e in dim2_corpus()]
        assert eulers == [3, 4, 4, 5, 6]
