"""Exact integer lattice geometry for Fano polytopes.

Vertices are tuples of Python ints, so every computation here is exact at
arbitrary precision.  Facet enumeration is a brute-force scan over all
n-element vertex subsets with exact sidedness tests; for the polytopes this
package targets (a few dozen vertices, dimension <= 8) that is fast enough
and has no failure modes.

Each polytope is scanned at most once, and its hull is kept in a
module-level store.  The dual of a reflexive polytope is never scanned:
its facets are the polytope's vertices, with the incidences transposed,
so `reflexive_dual` records its hull straight from the polytope's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import (
    DegenerateEdge,
    DegenerateInput,
    DuplicateVertex,
    InvalidDimension,
    NonPrimitiveVertex,
    NotReflexive,
    NotSmooth,
    OriginNotInterior,
    RedundantVertex,
)

LatticePoint = tuple[int, ...]


def _dot(u: LatticePoint, v: LatticePoint) -> int:
    return sum(a * b for a, b in zip(u, v))


def _neg(u: LatticePoint) -> LatticePoint:
    return tuple(-a for a in u)


def _content(u) -> int:
    """gcd of the coordinates (0 for the zero vector)."""
    g = 0
    for a in u:
        g = gcd(g, a)
    return g


def _det_bareiss(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _det(rows) -> int:
    """Exact integer determinant; sizes <= 4 are unrolled for speed."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        # Laplace expansion along the first two rows.
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        p01 = a0 * b1 - a1 * b0
        p02 = a0 * b2 - a2 * b0
        p03 = a0 * b3 - a3 * b0
        p12 = a1 * b2 - a2 * b1
        p13 = a1 * b3 - a3 * b1
        p23 = a2 * b3 - a3 * b2
        q01 = c0 * d1 - c1 * d0
        q02 = c0 * d2 - c2 * d0
        q03 = c0 * d3 - c3 * d0
        q12 = c1 * d2 - c2 * d1
        q13 = c1 * d3 - c3 * d1
        q23 = c2 * d3 - c3 * d2
        return p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01
    return _det_bareiss(rows)


def _int_rank(rows) -> int:
    """Rank of an integer matrix, by exact cross-multiplication elimination."""
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


def _affine_rank(points) -> int:
    """Dimension of the affine span of the given lattice points."""
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    return _int_rank(diffs)


def _normal_through(points):
    """Primitive normal of the affine hyperplane spanned by n points in Z^n.

    Returns None when the points are affinely dependent.  The sign of the
    result is arbitrary; callers orient it by sidedness.
    """
    base = points[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    n = len(base)
    u = []
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows]
        u.append(sign * _det(minor))
        sign = -sign
    g = _content(u)
    if g == 0:
        return None
    return tuple(a // g for a in u)


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : <normal, x> <= offset} with primitive normal."""

    normal: LatticePoint
    offset: int


@dataclass(frozen=True)
class Face:
    """A face given by its dimension and the indices of the polytope
    vertices lying on it."""

    dim: int
    vertex_indices: tuple[int, ...]


@dataclass(frozen=True)
class FaceLattice:
    """All nonempty faces of a polytope, grouped by dimension.

    Level k holds the k-dimensional faces; the top level is the polytope
    itself.  The empty face is not represented.
    """

    faces_by_dim: tuple[tuple[Face, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def faces(self, k: int) -> tuple[Face, ...]:
        return self.faces_by_dim[k]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim)


@dataclass(frozen=True)
class FanoPolytope:
    """Full-dimensional lattice polytope with primitive vertices.

    Used both for the polytope spanned by the primitive ray generators in N
    and for its integral dual in M.  The constructor checks only cheap local
    invariants (shape, primitivity, distinctness); spanning, interiority of
    the origin and vertex minimality are established by facet enumeration.
    """

    dim: int
    vertices: tuple[LatticePoint, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDimension(f"dimension must be >= 1, got {self.dim}")
        if not self.vertices:
            raise DegenerateInput("empty vertex list")
        for v in self.vertices:
            if len(v) != self.dim:
                raise DegenerateInput(
                    f"vertex {v} has length {len(v)}, expected {self.dim}"
                )
            if _content(v) != 1:
                raise NonPrimitiveVertex(f"vertex {v} is not primitive")
        if len(set(self.vertices)) != len(self.vertices):
            raise DuplicateVertex("vertex list contains repeated points")

    @classmethod
    def from_vertices(cls, vertices) -> "FanoPolytope":
        rows = [tuple(int(x) for x in v) for v in vertices]
        if not rows:
            raise DegenerateInput("empty vertex list")
        return cls(len(rows[0]), tuple(rows))


@dataclass(frozen=True)
class _Hull:
    """Facet halfspaces plus, per facet, the incident vertex indices."""

    halfspaces: tuple[Halfspace, ...]
    incidences: tuple[frozenset[int], ...]


_HULLS: dict[FanoPolytope, _Hull] = {}


def _hull(P: FanoPolytope) -> _Hull:
    """P's hull from the store, scanning P only if it is not there yet."""
    hull = _HULLS.get(P)
    if hull is None:
        hull = _HULLS[P] = _scan(P)
    return hull


def _scan(P: FanoPolytope) -> _Hull:
    """Facets of P by the exhaustive scan over n-subsets of its vertices."""
    verts = P.vertices
    n = P.dim
    nv = len(verts)
    if _affine_rank(verts) < n:
        raise DegenerateInput("vertices do not affinely span the ambient space")

    halfspaces: list[Halfspace] = []
    incidences: list[frozenset[int]] = []
    for subset in combinations(range(nv), n):
        # Subsets of an already-found facet span the same hyperplane.
        if any(inc.issuperset(subset) for inc in incidences):
            continue
        u = _normal_through([verts[i] for i in subset])
        if u is None:
            continue
        c = _dot(u, verts[subset[0]])
        pos = neg = False
        on_plane = []
        for idx in range(nv):
            s = _dot(u, verts[idx]) - c
            if s > 0:
                pos = True
                if neg:
                    break
            elif s < 0:
                neg = True
                if pos:
                    break
            else:
                on_plane.append(idx)
        if pos and neg:
            continue
        if pos:
            u, c = _neg(u), -c
        halfspaces.append(Halfspace(u, c))
        incidences.append(frozenset(on_plane))

    if any(h.offset <= 0 for h in halfspaces):
        raise OriginNotInterior(
            "a facet inequality has offset <= 0; the origin is not strictly interior"
        )
    for idx in range(nv):
        touching = [h.normal for h, inc in zip(halfspaces, incidences) if idx in inc]
        if _int_rank(touching) < n:
            raise RedundantVertex(
                f"point {verts[idx]} is not a vertex of the convex hull"
            )

    order = sorted(range(len(halfspaces)), key=lambda i: (halfspaces[i].offset, halfspaces[i].normal))
    return _Hull(
        tuple(halfspaces[i] for i in order),
        tuple(incidences[i] for i in order),
    )


def facet_enumeration(P: FanoPolytope) -> tuple[Halfspace, ...]:
    """All facet halfspaces of P, normalized to primitive outer normals.

    Raises DegenerateInput if the vertices do not span, OriginNotInterior if
    the origin is not strictly inside, RedundantVertex if some listed point
    is not extreme.
    """
    return _hull(P).halfspaces


def facet_incidences(P: FanoPolytope) -> tuple[frozenset[int], ...]:
    """Vertex index sets of the facets, aligned with facet_enumeration."""
    return _hull(P).incidences


def is_reflexive(P: FanoPolytope) -> bool:
    """True iff every facet lies at lattice distance 1 from the origin."""
    return all(h.offset == 1 for h in _hull(P).halfspaces)


def _smoothness_failure(P: FanoPolytope) -> str | None:
    """Why some facet of P is not a unimodular simplex, or None if none."""
    hull = _hull(P)
    for h, inc in zip(hull.halfspaces, hull.incidences):
        if len(inc) != P.dim:
            return f"facet with normal {h.normal} is not a simplex"
        if abs(_det([P.vertices[i] for i in sorted(inc)])) != 1:
            return f"facet with normal {h.normal} has vertex determinant != +/-1"
    return None


def is_smooth(P: FanoPolytope) -> bool:
    """True iff every facet is a simplex whose vertices form a lattice basis."""
    return _smoothness_failure(P) is None


def reflexive_dual(P: FanoPolytope) -> FanoPolytope:
    """Dual of any reflexive polytope, smooth or not.

    The vertices are the negated facet normals.  The dual's facets are
    {m : <-v, m> <= 1} for the vertices v of P, and the dual vertex of
    facet j lies on the facet of v_i exactly when v_i lies on facet j; so
    the dual's hull is stored from P's, transposed, without a scan.
    Applying it twice returns the original vertex set.
    """
    hull = _hull(P)
    if not all(h.offset == 1 for h in hull.halfspaces):
        raise NotReflexive("a facet lies at lattice distance != 1 from the origin")
    delta = FanoPolytope(P.dim, tuple(_neg(h.normal) for h in hull.halfspaces))
    # The order a scan gives: by (offset, normal), and every offset is 1.
    order = sorted(range(len(P.vertices)), key=lambda i: _neg(P.vertices[i]))
    _HULLS[delta] = _Hull(
        tuple(Halfspace(_neg(P.vertices[i]), 1) for i in order),
        tuple(
            frozenset(j for j, inc in enumerate(hull.incidences) if i in inc)
            for i in order
        ),
    )
    return delta


def polar_dual(P: FanoPolytope) -> FanoPolytope:
    """The dual lattice polytope {m : <m, v> >= -1 for all vertices v of P}.

    Requires P reflexive (else NotReflexive) and smooth (else NotSmooth);
    it is then reflexive_dual(P), one vertex per facet of P.
    """
    delta = reflexive_dual(P)
    failure = _smoothness_failure(P)
    if failure:
        raise NotSmooth(failure)
    return delta


def face_lattice(P: FanoPolytope) -> FaceLattice:
    """All nonempty faces of P, from the closure of facet-set intersections.

    Every face of a polytope is an intersection of the facets containing it,
    so intersecting vertex incidence sets until closure enumerates exactly
    the nonempty faces; the polytope itself is the unique top face.
    """
    hull = _hull(P)
    full = frozenset(range(len(P.vertices)))
    found = {full}
    stack = [full]
    while stack:
        face = stack.pop()
        for facet in hull.incidences:
            sub = face & facet
            if sub and sub not in found:
                found.add(sub)
                stack.append(sub)

    by_dim: list[list[Face]] = [[] for _ in range(P.dim + 1)]
    for index_set in found:
        pts = [P.vertices[i] for i in index_set]
        d = _affine_rank(pts)
        by_dim[d].append(Face(d, tuple(sorted(index_set))))
    for level in by_dim:
        level.sort(key=lambda f: f.vertex_indices)
    return FaceLattice(tuple(tuple(level) for level in by_dim))


def edge_interior_points(a: LatticePoint, b: LatticePoint) -> int:
    """Number of lattice points strictly between a and b on the segment [a, b].

    Equals gcd(b - a) - 1; symmetric and translation invariant.
    """
    if len(a) != len(b):
        raise ValueError(f"point lengths differ: {len(a)} != {len(b)}")
    diff = tuple(x - y for x, y in zip(b, a))
    g = _content(diff)
    if g == 0:
        raise DegenerateEdge(f"segment endpoints coincide: {a}")
    return g - 1
