"""Lattice geometry: facet enumeration, predicates, duality, face lattice."""

import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocheck import (
    FanoPolytope,
    dim2_corpus,
    edge_interior_points,
    face_lattice,
    facet_enumeration,
    gen_direct_sum,
    gen_pn,
    is_reflexive,
    polar_dual,
    read_polytope,
    reflexive_dual,
)
from fanocheck.errors import (
    DegenerateEdge,
    DegenerateInput,
    DuplicateVertex,
    NonPrimitiveVertex,
    NotReflexive,
    NotSmooth,
    OriginNotInterior,
    RedundantVertex,
)
from fanocheck.lattice import _adjugate, _dot, _scan
from fanocheck.reference import _affine_rank

from conftest import (
    apply_matrix,
    oracle_det,
    oracle_facets,
    oracle_segment_interior,
    product_f_vector,
    random_unimodular,
)

P2 = FanoPolytope(2, ((1, 0), (0, 1), (-1, -1)))
SEGMENT = FanoPolytope(1, ((1,), (-1,)))
CROSS = FanoPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
SINGULAR = FanoPolytope(2, ((1, 0), (0, 1), (-1, -2)))
CUBE3 = FanoPolytope.from_vertices(
    [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
)


def as_pairs(halfspaces):
    return {(h.normal, h.offset) for h in halfspaces}


class TestFacetEnumeration:
    def test_p2(self):
        facets = facet_enumeration(P2)
        assert len(facets) == 3
        assert all(h.offset == 1 for h in facets)
        assert as_pairs(facets) == oracle_facets(P2.vertices)

    def test_segment(self):
        facets = facet_enumeration(SEGMENT)
        assert as_pairs(facets) == {((1,), 1), ((-1,), 1)}

    def test_cross_polytope(self):
        facets = facet_enumeration(CROSS)
        assert as_pairs(facets) == {
            ((1, 1), 1),
            ((1, -1), 1),
            ((-1, 1), 1),
            ((-1, -1), 1),
        }
        assert as_pairs(facets) == oracle_facets(CROSS.vertices)

    def test_oracle_agreement_on_corpus(self):
        polytopes = [e.polytope for e in dim2_corpus()]
        polytopes += [gen_pn(3), gen_direct_sum(gen_pn(1), gen_pn(2)), SINGULAR]
        for P in polytopes:
            assert as_pairs(facet_enumeration(P)) == oracle_facets(P.vertices)

    def test_every_vertex_satisfies_all_inequalities(self):
        for P in (P2, CROSS, gen_pn(4)):
            for h in facet_enumeration(P):
                assert all(_dot(h.normal, v) <= h.offset for v in P.vertices)

    def test_facet_vertex_sets_have_codimension_one(self):
        for P in (P2, CROSS, gen_pn(3), gen_direct_sum(gen_pn(1), gen_pn(2))):
            for inc in P.hull.incidences:
                pts = [v for i, v in enumerate(P.vertices) if inc >> i & 1]
                assert _affine_rank(pts) == P.dim - 1

    def test_input_order_irrelevant(self):
        base = as_pairs(facet_enumeration(CROSS))
        for perm in permutations(CROSS.vertices):
            Q = FanoPolytope(2, perm)
            assert as_pairs(facet_enumeration(Q)) == base

    def test_degenerate_input(self):
        flat = FanoPolytope(2, ((1, 0), (-1, 0)))
        with pytest.raises(DegenerateInput):
            facet_enumeration(flat)

    def test_origin_not_interior(self):
        shifted = FanoPolytope(2, ((1, 0), (0, 1), (1, 1)))
        with pytest.raises(OriginNotInterior):
            facet_enumeration(shifted)

    def test_redundant_vertex_on_edge(self):
        square_plus = FanoPolytope(
            2, ((1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0))
        )
        with pytest.raises(RedundantVertex):
            facet_enumeration(square_plus)

    def test_redundant_vertex_interior(self):
        fat = FanoPolytope(2, ((3, 1), (1, 3), (-1, -1), (1, 1)))
        with pytest.raises(RedundantVertex):
            facet_enumeration(fat)


class TestConstructorValidation:
    # Primitivity is checked with the hull, so that a report can read it as
    # failed; the constructor accepts the vertices.
    def test_non_primitive_vertex(self):
        P = FanoPolytope(2, ((2, 0), (0, 1), (-1, -1)))
        with pytest.raises(NonPrimitiveVertex, match=r"^vertex \(2, 0\) is not primitive$"):
            P.hull

    def test_zero_vertex(self):
        P = FanoPolytope(2, ((0, 0), (0, 1), (1, 0)))
        with pytest.raises(NonPrimitiveVertex):
            P.hull

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            FanoPolytope(2, ((1, 0), (1, 0), (0, 1)))

    def test_length_mismatch(self):
        with pytest.raises(DegenerateInput):
            FanoPolytope(2, ((1, 0), (0, 1, 0)))


class TestPredicates:
    def test_p2_reflexive_and_smooth(self):
        assert is_reflexive(P2)
        assert P2.cones

    def test_singular_reflexive_not_smooth(self):
        assert is_reflexive(SINGULAR)
        with pytest.raises(NotSmooth):
            SINGULAR.cones
        assert as_pairs(facet_enumeration(SINGULAR)) == {
            ((1, 1), 1),
            ((-3, 1), 1),
            ((1, -1), 1),
        }

    def test_cross_smooth(self):
        assert CROSS.cones

    def test_not_reflexive(self):
        P = FanoPolytope(2, ((1, 0), (0, 1), (-1, -3)))
        assert not is_reflexive(P)
        with pytest.raises(NotReflexive):
            polar_dual(P)
        with pytest.raises(NotReflexive):
            reflexive_dual(P)

    def test_cube_reflexive_not_smooth(self):
        assert is_reflexive(CUBE3)
        with pytest.raises(NotSmooth):  # facets are squares, not simplices
            CUBE3.cones


class TestSmoothnessMessages:
    # NotSmooth names the first facet, in hull order, that is not a
    # unimodular simplex, and says which of the two ways it fails.
    CASES = [
        (SINGULAR, "facet with normal (1, -1) has vertex determinant != +/-1"),
        (
            read_polytope(Path(__file__).parent / "fixtures" / "cube3.poly"),
            "facet with normal (-1, 0, 0) is not a simplex",
        ),
    ]

    @pytest.mark.parametrize("P, message", CASES)
    @pytest.mark.parametrize(
        "call", [lambda P: P.cones, polar_dual], ids=["cones", "polar_dual"]
    )
    def test_message(self, P, message, call):
        with pytest.raises(NotSmooth) as info:
            call(P)
        assert str(info.value) == message

    @pytest.mark.parametrize("P, message", CASES)
    def test_is_smooth_stays_false(self, P, message):
        # a second ask raises the first refusal again
        for _ in range(2):
            with pytest.raises(NotSmooth) as info:
                P.cones
            assert str(info.value) == message


class TestPolarDual:
    def test_p2(self):
        assert set(polar_dual(P2).vertices) == {(-1, -1), (2, -1), (-1, 2)}

    def test_segment(self):
        assert set(polar_dual(SEGMENT).vertices) == {(-1,), (1,)}

    def test_cross(self):
        assert set(polar_dual(CROSS).vertices) == {
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        }

    def test_not_smooth_raises(self):
        with pytest.raises(NotSmooth):
            polar_dual(SINGULAR)

    def test_matches_reflexive_dual_on_smooth(self):
        for entry in dim2_corpus():
            assert set(polar_dual(entry.polytope).vertices) == set(
                reflexive_dual(entry.polytope).vertices
            )

    def test_involution(self):
        for P in [e.polytope for e in dim2_corpus()] + [SINGULAR, gen_pn(3)]:
            delta = reflexive_dual(P)
            # a copy without the transposed hull, so the second dual comes
            # from a scan of delta
            again = reflexive_dual(FanoPolytope(delta.dim, delta.vertices))
            assert set(again.vertices) == set(P.vertices)

    def test_transposed_hull_equals_scan(self):
        polytopes = [e.polytope for e in dim2_corpus()]
        polytopes += [gen_pn(n) for n in range(2, 6)]
        polytopes += [gen_direct_sum(gen_pn(1), gen_pn(2)), SINGULAR, CUBE3]
        for P in polytopes:
            delta = reflexive_dual(P)
            assert delta.hull == _scan(delta), P

    def test_defining_inequalities(self):
        # <m, v> >= -1 for every dual vertex m and vertex v of P, with
        # equality exactly for the vertices on the facet m comes from.
        polytopes = [e.polytope for e in dim2_corpus()]
        polytopes += [P2, CROSS, gen_pn(4), gen_direct_sum(gen_pn(1), gen_pn(2))]
        for P in polytopes:
            delta = polar_dual(P)
            for m, inc in zip(delta.vertices, P.hull.incidences):
                for i, v in enumerate(P.vertices):
                    value = sum(a * b for a, b in zip(m, v))
                    assert value >= -1
                    assert (value == -1) == bool(inc >> i & 1)

    def test_dual_vertex_count_equals_facet_count(self):
        for P in (P2, CROSS, gen_pn(4)):
            assert len(polar_dual(P).vertices) == len(facet_enumeration(P))


class TestFaceLattice:
    def test_triangle(self):
        assert face_lattice(polar_dual(P2)).f_vector() == (3, 3, 1)

    def test_square(self):
        assert face_lattice(polar_dual(CROSS)).f_vector() == (4, 4, 1)

    def test_prism(self):
        delta = polar_dual(gen_direct_sum(gen_pn(1), gen_pn(2)))
        fvec = face_lattice(delta).f_vector()
        assert fvec == (6, 9, 5, 1)
        assert fvec == product_f_vector((2, 1), (3, 3, 1))

    def test_0_faces_are_vertices(self):
        for P in (P2, CROSS, gen_pn(3)):
            lat = face_lattice(P)
            assert {f.vertex_indices for f in lat.faces(0)} == {
                (i,) for i in range(len(P.vertices))
            }

    def test_top_face_is_polytope(self):
        lat = face_lattice(P2)
        assert lat.f_vector()[-1] == 1
        assert lat.faces(2)[0].vertex_indices == (0, 1, 2)

    def test_face_vertex_sets_are_exact(self):
        # No vertex outside a face may lie in the face's affine span.
        for P in (P2, CROSS, gen_pn(3), gen_direct_sum(gen_pn(1), gen_pn(2))):
            lat = face_lattice(P)
            for level in lat.faces_by_dim[:-1]:
                for face in level:
                    pts = [P.vertices[i] for i in face.vertex_indices]
                    for j, v in enumerate(P.vertices):
                        if j not in face.vertex_indices:
                            assert _affine_rank(pts + [v]) > face.dim

    def test_every_subface_in_two_faces(self):
        for P in (P2, CROSS, gen_pn(3), gen_direct_sum(gen_pn(1), gen_pn(2))):
            lat = face_lattice(P)
            n = lat.dim
            for k in range(1, n):
                uppers = [set(f.vertex_indices) for f in lat.faces(k)]
                for sub in lat.faces(k - 1):
                    sset = set(sub.vertex_indices)
                    assert sum(1 for up in uppers if sset < up) >= 2

    def test_face_count_duality(self):
        for entry in dim2_corpus():
            P = entry.polytope
            delta = polar_dual(P)
            fP = face_lattice(P).f_vector()
            fD = face_lattice(delta).f_vector()
            n = P.dim
            assert all(fD[k] == fP[n - 1 - k] for k in range(n))

    def test_simplicity_of_dual(self):
        for P in [e.polytope for e in dim2_corpus()] + [gen_pn(3)]:
            delta = polar_dual(P)
            lat = face_lattice(delta)
            n = P.dim
            fvec = lat.f_vector()
            assert 2 * fvec[1] == n * fvec[0]
            for i in range(fvec[0]):
                on_edges = sum(
                    1 for e in lat.faces(1) if i in e.vertex_indices
                )
                assert on_edges == n


class TestUnimodularInvariance:
    def test_transforms_preserve_predicates(self):
        rng = random.Random(7)
        for entry in dim2_corpus():
            for _ in range(5):
                m = random_unimodular(2, rng)
                Q = apply_matrix(entry.polytope, m)
                assert is_reflexive(Q)
                assert Q.cones
                assert face_lattice(polar_dual(Q)).f_vector() == face_lattice(
                    polar_dual(entry.polytope)
                ).f_vector()


class TestEdgeInteriorPoints:
    def test_examples(self):
        assert edge_interior_points((-1, -1), (-1, 2)) == 2
        assert edge_interior_points((0, 0), (1, 0)) == 0
        assert edge_interior_points((0, 0), (4, 6)) == 1

    def test_matches_enumeration_oracle(self):
        assert edge_interior_points((-1, -1), (-1, 2)) == oracle_segment_interior(
            (-1, -1), (-1, 2)
        )
        assert edge_interior_points((0, 0), (4, 6)) == oracle_segment_interior(
            (0, 0), (4, 6)
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateEdge):
            edge_interior_points((1, 2), (1, 2))

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    def test_symmetry_and_translation(self, a, b, t):
        size = min(len(a), len(b), len(t))
        a, b, t = tuple(a[:size]), tuple(b[:size]), tuple(t[:size])
        if a == b:
            return
        forward = edge_interior_points(a, b)
        assert forward == edge_interior_points(b, a)
        shifted_a = tuple(x + y for x, y in zip(a, t))
        shifted_b = tuple(x + y for x, y in zip(b, t))
        assert forward == edge_interior_points(shifted_a, shifted_b)
        assert forward == oracle_segment_interior(a, b)


def check_adjugate(rows):
    det, adj = _adjugate(rows)
    assert det == oracle_det(rows)
    if det == 0:
        assert adj == []
        return
    n = len(rows)
    # B adj(B) = det(B) I
    for i in range(n):
        for j in range(n):
            assert sum(rows[i][k] * adj[k][j] for k in range(n)) == det * (i == j)


class TestDeterminants:
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_adjugate4_matches_permutation_expansion(self, rows):
        check_adjugate(rows)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=5, max_size=5),
            min_size=5,
            max_size=5,
        )
    )
    def test_bareiss_matches_permutation_expansion(self, rows):
        check_adjugate(rows)

    def test_unimodular_without_unit_entry(self):
        # No entry of the first column is +/-1, so +/-1 pivots would not do.
        assert _adjugate([[2, 3], [3, 5]]) == (1, [[5, -3], [-3, 2]])

    def test_row_swap_sign(self):
        assert _adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
