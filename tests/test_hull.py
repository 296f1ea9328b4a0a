"""Double-description hull against the exhaustive subset scan it replaced.

`reference_scan` is the former facet enumeration, kept as the reference:
it tries every n-subset of the vertices, takes the hyperplane through it,
and keeps it when all vertices lie on one side.  It tells vertices by the
rank of the normals of the facets through them, where `_scan` meets the
facets' vertex masks, and raises the same messages, so the property pins
which point each names.  It is exponential in n, so the property below
runs it only in dimensions 2 to 4.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocheck import FanoPolytope, dim2_corpus, gen_direct_sum, gen_pn
from fanocheck.errors import (
    DegenerateInput,
    OriginNotInterior,
    RedundantVertex,
    ValidationError,
)
from fanocheck.lattice import Halfspace, _content, _dot, _Hull, _neg, _scan

from conftest import apply_matrix, oracle_det, random_unimodular
from test_acceptance import product_family


def reference_int_rank(rows) -> int:
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead_row = m[rank]
        a = lead_row[col]
        for i in range(rank + 1, nrows):
            b = m[i][col]
            if b:
                m[i] = [a * y - b * x for x, y in zip(lead_row, m[i])]
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_normal_through(points):
    """Primitive normal of the affine hyperplane through n points in Z^n,
    by cofactor expansion; None when the points are affinely dependent."""
    base = points[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    u = []
    sign = 1
    for j in range(len(base)):
        minor = [r[:j] + r[j + 1 :] for r in rows]
        u.append(sign * oracle_det(minor))
        sign = -sign
    g = _content(u)
    if g == 0:
        return None
    return tuple(a // g for a in u)


def reference_scan(P: FanoPolytope) -> _Hull:
    verts = P.vertices
    n = P.dim
    nv = len(verts)
    base = verts[0]
    if reference_int_rank([tuple(a - b for a, b in zip(p, base)) for p in verts[1:]]) < n:
        raise DegenerateInput("vertices do not affinely span the ambient space")

    halfspaces = []
    incidences = []
    for subset in combinations(range(nv), n):
        if any(inc.issuperset(subset) for inc in incidences):
            continue
        u = reference_normal_through([verts[i] for i in subset])
        if u is None:
            continue
        c = _dot(u, verts[subset[0]])
        sides = [_dot(u, v) - c for v in verts]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        if any(s > 0 for s in sides):
            u, c = _neg(u), -c
        halfspaces.append(Halfspace(u, c))
        incidences.append(frozenset(i for i, s in enumerate(sides) if s == 0))

    if any(h.offset <= 0 for h in halfspaces):
        raise OriginNotInterior(
            "a facet inequality has offset <= 0; the origin is not strictly interior"
        )
    for idx in range(nv):
        touching = [h.normal for h, inc in zip(halfspaces, incidences) if idx in inc]
        if reference_int_rank(touching) < n:
            raise RedundantVertex(f"point {verts[idx]} is not a vertex of the convex hull")

    order = sorted(range(len(halfspaces)), key=lambda i: (halfspaces[i].offset, halfspaces[i].normal))
    return _Hull(
        tuple(halfspaces[i] for i in order),
        tuple(sum(1 << j for j in incidences[i]) for i in order),
    )


_DP6 = next(e.polytope for e in dim2_corpus() if e.name == "Bl3P2")
LADDER = [e.polytope for e in dim2_corpus()] + [gen_pn(3), gen_pn(4)]
LADDER += [P for _, P in product_family() if P.dim <= 4]
LADDER += [gen_direct_sum(_DP6, _DP6)]


def _valid_points(points):
    """The primitive points, without repeats, in their first order."""
    out = []
    for p in points:
        if _content(p) == 1 and p not in out:
            out.append(p)
    return out


@st.composite
def point_sets(draw):
    """Point lists in dims 2-4: random ones, non-spanning ones, ones with a
    point on a segment or inside, ones off the origin, and GL_n(Z) images
    of ladder polytopes, with or without points on a segment."""
    kind = draw(st.sampled_from(["random", "flat", "on_segment", "inside", "shifted", "ladder"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "ladder":
        P = rng.choice(LADDER)
        n = P.dim
        points = list(apply_matrix(P, random_unimodular(n, rng)).vertices)
    else:
        n = rng.randint(2, 4)
        low = 1 if kind == "shifted" else -3
        points = [
            tuple(rng.randint(low, 3) for _ in range(n))
            for _ in range(rng.randint(n + 1, n + 6))
        ]
    if kind == "flat":
        last = rng.choice((0, 1))
        points = [p[:-1] + (last,) for p in points]
    if kind == "on_segment" or (kind == "ladder" and rng.random() < 0.5):
        a = rng.choice(points)
        d = [rng.randint(-2, 2) for _ in range(n)]
        points += [tuple(x + y for x, y in zip(a, d)), tuple(x + 2 * y for x, y in zip(a, d))]
    if kind == "inside":
        points += [tuple(int(i == k) * s for i in range(n)) for k in range(n) for s in (1, -1)]
    points = _valid_points(points)
    return FanoPolytope(n, tuple(points)) if points else FanoPolytope(2, ((1, 0),))


def outcome(scan, P):
    try:
        return scan(P)
    except ValidationError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example(FanoPolytope(2, ((1, 0), (-1, 0), (2, 1))))  # origin on an edge
@example(FanoPolytope(3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0))))  # not spanning
@example(FanoPolytope(2, ((1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0))))  # point on an edge
@example(FanoPolytope(2, ((3, 1), (1, 3), (-1, -1), (1, 1))))  # point inside
@example(FanoPolytope(2, ((1, 0), (0, 1), (1, 1))))  # origin outside
@example(FanoPolytope(3, (*product((1, -1), repeat=3), (1, 0, 0))))  # inside a 2-face
def test_double_description_matches_subset_scan(P):
    assert outcome(_scan, P) == outcome(reference_scan, P)


def test_point_inside_a_face_of_the_five_cube_is_named():
    # (1, 1, 0, 0, 0) is the centre of a 3-face of conv{+-1}^5: the two
    # facets through it, x_1 = 1 and x_2 = 1, meet in that face's 8
    # vertices, not in the point alone.
    point = (1, 1, 0, 0, 0)
    P = FanoPolytope(5, (*product((1, -1), repeat=5), point))
    with pytest.raises(RedundantVertex) as info:
        _scan(P)
    assert str(info.value) == f"point {point} is not a vertex of the convex hull"
