"""Poincare polynomial, Betti numbers, Chern numbers, derivative checks."""

from fractions import Fraction
from math import comb, gcd

import pytest

from fanocheck import (
    FanoPolytope,
    IntPolynomial,
    betti_numbers,
    chern_numbers,
    compute_invariants,
    dim2_corpus,
    face_lattice,
    gen_direct_sum,
    gen_pn,
    poincare_polynomial,
    polar_dual,
    second_derivative_at_one,
    toric_invariants,
)
from fanocheck.errors import DuplicateVertex, NegativeCoefficient, NotSmooth

from test_acceptance import product_family


def dual_and_faces(P):
    delta = polar_dual(P)
    return delta, face_lattice(delta)


def dp6_power(k):
    dp6 = next(e.polytope for e in dim2_corpus() if e.name == "Bl3P2")
    P = dp6
    for _ in range(k - 1):
        P = gen_direct_sum(P, dp6)
    return P


def corpus_polytopes():
    out = [e.polytope for e in dim2_corpus()]
    out += [gen_pn(n) for n in (1, 3, 4)]
    out += [
        gen_direct_sum(gen_pn(1), gen_pn(2)),
        gen_direct_sum(gen_pn(2), gen_pn(2)),
        gen_direct_sum(gen_pn(1), gen_pn(1)),
    ]
    return out


class TestIntPolynomial:
    def test_normalization(self):
        p = IntPolynomial.from_coeffs([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1
        assert IntPolynomial.from_coeffs([0, 0]).coeffs == ()

    def test_evaluation(self):
        p = IntPolynomial.from_coeffs([1, 1, 1])
        assert p(1) == 3
        assert p(2) == 7
        assert p(Fraction(1, 2)) == Fraction(7, 4)
        assert IntPolynomial(())(5) == 0

    def test_arithmetic(self):
        a = IntPolynomial.from_coeffs([1, 1])
        b = IntPolynomial.from_coeffs([1, 1, 1])
        assert (a * b).coeffs == (1, 2, 2, 1)
        assert (a + b).coeffs == (2, 2, 1)

    def test_derivative(self):
        p = IntPolynomial.from_coeffs([1, 2, 2, 1])
        assert p.derivative().coeffs == (2, 4, 3)
        assert IntPolynomial.from_coeffs([5]).derivative().coeffs == ()

    def test_str(self):
        assert str(IntPolynomial.from_coeffs([1, 1, 1])) == "t^2 + t + 1"
        assert str(IntPolynomial(())) == "0"


class TestPoincarePolynomial:
    def test_triangle(self):
        _, faces = dual_and_faces(gen_pn(2))
        assert poincare_polynomial(faces).coeffs == (1, 1, 1)

    def test_interval(self):
        _, faces = dual_and_faces(gen_pn(1))
        assert poincare_polynomial(faces).coeffs == (1, 1)

    def test_square(self):
        _, faces = dual_and_faces(gen_direct_sum(gen_pn(1), gen_pn(1)))
        assert poincare_polynomial(faces).coeffs == (1, 2, 1)

    def test_degree_and_nonnegativity(self):
        for P in corpus_polytopes():
            _, faces = dual_and_faces(P)
            poly = poincare_polynomial(faces)
            assert poly.degree == P.dim
            assert all(c >= 0 for c in poly.coeffs)

    def test_multiplicative_on_products(self):
        for a, b in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
            _, fa = dual_and_faces(gen_pn(a))
            _, fb = dual_and_faces(gen_pn(b))
            _, fs = dual_and_faces(gen_direct_sum(gen_pn(a), gen_pn(b)))
            assert (
                poincare_polynomial(fa) * poincare_polynomial(fb)
                == poincare_polynomial(fs)
            )


class TestBettiNumbers:
    def test_read_off(self):
        assert betti_numbers(IntPolynomial.from_coeffs([1, 1, 1])) == (1, 1, 1)
        assert betti_numbers(IntPolynomial.from_coeffs([1, 1])) == (1, 1)

    def test_product_expansion(self):
        p = IntPolynomial.from_coeffs([1, 1]) * IntPolynomial.from_coeffs([1, 1, 1])
        assert betti_numbers(p) == (1, 2, 2, 1)
        _, faces = dual_and_faces(gen_direct_sum(gen_pn(1), gen_pn(2)))
        assert betti_numbers(poincare_polynomial(faces)) == (1, 2, 2, 1)

    def test_negative_coefficient(self):
        with pytest.raises(NegativeCoefficient):
            betti_numbers(IntPolynomial.from_coeffs([1, -1, 1]))


class TestChernNumbers:
    def test_p2(self):
        assert chern_numbers(*dual_and_faces(gen_pn(2))) == (3, 9)

    def test_p1xp1(self):
        P = gen_direct_sum(gen_pn(1), gen_pn(1))
        assert chern_numbers(*dual_and_faces(P)) == (4, 8)

    def test_p1xp2(self):
        P = gen_direct_sum(gen_pn(1), gen_pn(2))
        assert chern_numbers(*dual_and_faces(P)) == (6, 24)

    def test_top_chern_multiplicative(self):
        for a, b in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            ca, _ = chern_numbers(*dual_and_faces(gen_pn(a)))
            cb, _ = chern_numbers(*dual_and_faces(gen_pn(b)))
            cs, _ = chern_numbers(*dual_and_faces(gen_direct_sum(gen_pn(a), gen_pn(b))))
            assert cs == ca * cb


class TestSecondDerivative:
    def test_examples(self):
        assert second_derivative_at_one(IntPolynomial.from_coeffs([1, 1, 1])) == 2
        assert second_derivative_at_one(IntPolynomial.from_coeffs([1, 2, 2, 1])) == 10
        assert second_derivative_at_one(IntPolynomial.from_coeffs([1])) == 0

    def test_matches_symbolic_derivative_path(self):
        for coeffs in ((1, 1, 1), (1, 2, 2, 1), (3, 0, 5, 7, 2), (1,)):
            p = IntPolynomial.from_coeffs(coeffs)
            assert second_derivative_at_one(p) == p.derivative().derivative()(1)

    def test_strata_identity(self):
        # p''(1) counts twice the 2-faces of the dual polytope.
        for P in corpus_polytopes():
            _, faces = dual_and_faces(P)
            poly = poincare_polynomial(faces)
            fvec = faces.f_vector()
            two_faces = fvec[2] if len(fvec) > 2 else 0
            assert second_derivative_at_one(poly) == 2 * two_faces

    def test_hrr_derivative_identity(self):
        # p''(1) = (1/6) c1 c_{n-1} + (n^2/4 - 5n/12) c_n, exactly.
        for P in corpus_polytopes():
            delta, faces = dual_and_faces(P)
            inv = compute_invariants(delta, faces)
            n = P.dim
            e_poly = IntPolynomial.from_coeffs(inv.betti)
            assert Fraction(second_derivative_at_one(e_poly)) == Fraction(
                inv.c1_cn1, 6
            ) + (Fraction(n * n, 4) - Fraction(5 * n, 12)) * inv.c_n


class TestComputeInvariants:
    def test_bundle_consistency(self):
        for P in corpus_polytopes():
            delta, faces = dual_and_faces(P)
            inv = compute_invariants(delta, faces)
            n = inv.n
            assert n == P.dim
            assert inv.betti == inv.betti[::-1]
            assert inv.betti[0] == 1
            assert all(b >= 0 for b in inv.betti)
            assert inv.c_n == inv.f_vector[0] == sum(inv.betti)
            # The paper's identity ties the face-lattice Betti numbers to
            # the edge sum c1_cn1.
            weighted = sum(b * (2 * k - n) ** 2 for k, b in enumerate(inv.betti))
            assert 3 * weighted == 2 * inv.c1_cn1 + n * inv.c_n

    def test_pn_closed_forms(self):
        for n in range(1, 7):
            delta, faces = dual_and_faces(gen_pn(n))
            inv = compute_invariants(delta, faces)
            assert inv.betti == (1,) * (n + 1)
            assert inv.c_n == n + 1
            assert inv.c1_cn1 == n * (n + 1) ** 2 // 2


class TestFanInvariants:
    """toric_invariants shares only P's facet incidences with the
    face-lattice derivation, so a corrupted dual makes them disagree."""

    @staticmethod
    def fan_side(P):
        inv, consistent = toric_invariants(P, polar_dual(P))
        assert consistent, P.vertices
        return inv.betti, inv.c_n, inv.c1_cn1

    @staticmethod
    def dual_side(P):
        inv = compute_invariants(*dual_and_faces(P))
        return inv.betti, inv.c_n, inv.c1_cn1

    def test_agrees_with_dual_side(self):
        polytopes = [e.polytope for e in dim2_corpus()]
        polytopes += [gen_pn(n) for n in range(1, 9)]
        polytopes += [P for _, P in product_family()]
        polytopes += [dp6_power(2), dp6_power(3)]
        for P in polytopes:
            assert self.fan_side(P) == self.dual_side(P), P.vertices

    def test_pinned_values(self):
        assert self.fan_side(gen_pn(2)) == ((1, 1, 1), 3, 9)
        assert self.fan_side(dp6_power(2)) == ((1, 8, 18, 8, 1), 36, 72)
        assert self.fan_side(dp6_power(3)) == ((1, 12, 51, 88, 51, 12, 1), 216, 648)

    def test_moved_dual_vertex_disagrees(self):
        # Moving one vertex of the dual along an edge doubles that edge's
        # lattice length: the dual side counts 73, the fan still 72.
        P = dp6_power(2)
        delta, faces = dual_and_faces(P)
        i, j = faces.faces(1)[0].vertex_indices
        verts = list(delta.vertices)
        verts[j] = tuple(2 * b - a for a, b in zip(verts[i], verts[j]))
        moved = FanoPolytope(delta.dim, tuple(verts))
        inv, consistent = toric_invariants(P, moved)
        reference = compute_invariants(moved, faces)
        assert (inv.betti, inv.c_n) == (reference.betti, reference.c_n)
        assert (inv.c1_cn1, reference.c1_cn1, self.fan_side(P)[2]) == (73, 73, 72)
        assert not consistent


class TestToricInvariants:
    """The pipeline's derivation: Betti numbers and curve degrees from the
    fan, edge lengths and face counts from the dual's vertices."""

    def test_matches_face_lattice_derivation(self):
        polytopes = [e.polytope for e in dim2_corpus()]
        polytopes += [gen_pn(n) for n in range(1, 7)]
        polytopes += [P for _, P in product_family()]
        polytopes += [dp6_power(2)]
        for P in polytopes:
            delta, faces = dual_and_faces(P)
            inv, consistent = toric_invariants(P, delta)
            assert consistent, P.vertices
            assert inv == compute_invariants(delta, faces), P.vertices

    def test_values_at_scale(self):
        for n in range(1, 17):
            P = gen_pn(n)
            inv, consistent = toric_invariants(P, polar_dual(P))
            assert consistent
            assert inv.betti == (1,) * (n + 1)
            assert inv.c_n == n + 1
            assert inv.c1_cn1 == n * (n + 1) ** 2 // 2
            # the dual is a simplex
            assert inv.f_vector == tuple(comb(n + 1, k + 1) for k in range(n + 1))
        P = gen_pn(1)
        for _ in range(7):
            P = gen_direct_sum(P, gen_pn(1))
        inv, consistent = toric_invariants(P, polar_dual(P))
        assert consistent
        assert inv.betti == tuple(comb(8, k) for k in range(9))
        assert (inv.c_n, inv.c1_cn1) == (256, 2048)
        # the dual is the 8-cube
        assert inv.f_vector == tuple(comb(8, k) * 2 ** (8 - k) for k in range(9))
        P = dp6_power(3)
        inv, consistent = toric_invariants(P, polar_dual(P))
        assert consistent
        assert (inv.betti, inv.c_n, inv.c1_cn1) == ((1, 12, 51, 88, 51, 12, 1), 216, 648)

    def test_moved_vertex_disagrees(self):
        # Keep P's facets and incidences but move one coordinate of one
        # vertex by +/-1.  Every move that leaves all cones unimodular
        # changes some curve degree on the fan side, while the dual's edges
        # keep their lengths, so the check reads false; the other valid
        # moves make some cone singular.
        polytopes = [e.polytope for e in dim2_corpus()]
        polytopes += [gen_pn(3), gen_pn(4), gen_direct_sum(gen_pn(1), gen_pn(2))]
        polytopes += [gen_direct_sum(gen_pn(2), gen_pn(2)), dp6_power(2)]
        caught = singular = 0
        for P in polytopes:
            for i, v in enumerate(P.vertices):
                for k in range(P.dim):
                    for step in (1, -1):
                        verts = list(P.vertices)
                        verts[i] = v[:k] + (v[k] + step,) + v[k + 1 :]
                        if gcd(*verts[i]) != 1:  # Q.hull would refuse it
                            continue
                        try:
                            Q = FanoPolytope(P.dim, tuple(verts))
                        except DuplicateVertex:
                            continue
                        object.__setattr__(Q, "hull", P.hull)
                        try:
                            consistent = toric_invariants(Q, polar_dual(Q))[1]
                        except NotSmooth:
                            singular += 1
                            continue
                        assert not consistent, (P.vertices, Q.vertices)
                        caught += 1
        assert (caught, singular) == (96, 120)

    def test_moved_dual_vertex_disagrees(self):
        # Moving a vertex of P4's dual by +/-1 in one coordinate changes the
        # lattice length of an edge at it.
        P = gen_pn(4)
        delta = polar_dual(P)
        for a, u in enumerate(delta.vertices):
            for k in range(P.dim):
                for step in (1, -1):
                    verts = list(delta.vertices)
                    verts[a] = u[:k] + (u[k] + step,) + u[k + 1 :]
                    moved = FanoPolytope(P.dim, tuple(verts))
                    assert not toric_invariants(P, moved)[1], verts
