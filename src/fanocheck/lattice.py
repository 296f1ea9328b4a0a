"""Exact integer lattice geometry for Fano polytopes.

Vertices are tuples of Python ints, so every computation here is exact at
arbitrary precision.  Facets are found by integer double description, in
time polynomial in the number of vertices and facets for a fixed dimension.
Each facet's vertices are one int bitmask, bit i for vertex i, throughout;
a listed point is a vertex when the facets through it meet in it alone.

Each polytope is scanned at most once: its hull is a cached property of the
polytope, and so is one fraction-free inverse per simplex facet once
smoothness or the fan is asked for, so both live exactly as long as the
polytope does.  The dual of a reflexive polytope is never scanned: its
facets are the polytope's vertices, with the incidences transposed, so
`reflexive_dual` attaches its hull straight from the polytope's.
"""

from __future__ import annotations

from functools import cached_property, reduce
# Not called here any more; bench/tracer.py rebinds it, and its traced run
# stops when it is missing.
from itertools import combinations  # noqa: F401
from math import gcd
from operator import and_

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
from .value import Value, set_field

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


def _adjugate(rows) -> tuple[int, list[list[int]]]:
    """(det B, adj B) by one fraction-free Gauss-Jordan elimination on [B | I].

    Every division is exact (Bareiss).  The elimination ends at
    [d I | d B^-1], d the determinant of B with its rows swapped into
    pivot order, so adj B = det B * B^-1 is the right block up to the swap
    sign.  A singular B gives (0, []).
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0, []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        for i in range(n):
            lead = m[i][k]
            # a row with lead 0 is only scaled by pivot / prev
            if i != k and (lead or pivot != prev):
                m[i] = [(pivot * a - lead * b) // prev for a, b in zip(m[i], row_k)]
        prev = pivot
    return sign * prev, [[sign * a for a in row[n:]] for row in m]


def _independent(rows) -> list[int]:
    """Indices of a maximal linearly independent subset of the rows, taken
    greedily in order.  Exact: each row is reduced against the ones kept by
    cross-multiplication, then divided by its content, so entries stay
    small."""
    chosen: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for idx, row in enumerate(rows):
        for col, pivot_row in echelon:
            lead = row[col]
            if lead:
                p = pivot_row[col]
                row = [p * a - lead * b for a, b in zip(row, pivot_row)]
        col = next((c for c, a in enumerate(row) if a), None)
        if col is not None:
            g = _content(row)
            echelon.append((col, [a // g for a in row]))
            chosen.append(idx)
    return chosen


def _affine_rank(points) -> int:
    """Dimension of the affine span of the given lattice points."""
    return len(_affine_basis(points)) - 1


def _affine_basis(points) -> list[int]:
    """Indices of a maximal affinely independent subset of the points,
    taken greedily in order (so its size is the affine rank plus one)."""
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return [0] + [i + 1 for i in _independent(diffs)]


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, in increasing order."""
    return tuple(i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1")


def _adjacent(common: int, tights) -> bool:
    """Combinatorial adjacency test of double description: two rays whose
    tight sets meet in `common` are adjacent when no third ray's tight set
    contains `common` (the two rays themselves always do)."""
    count = 0
    for t in tights:
        if t & common == common:
            count += 1
            if count > 2:
                return False
    return True


class Halfspace(Value):
    """Closed halfspace {x : <normal, x> <= offset} with primitive normal."""

    __slots__ = _fields = ("normal", "offset")

    def __init__(self, normal: LatticePoint, offset: int):
        set_field(self, "normal", normal)
        set_field(self, "offset", offset)


class Face(Value):
    """A face given by its dimension and the indices of the polytope
    vertices lying on it."""

    __slots__ = _fields = ("dim", "vertex_indices")

    def __init__(self, dim: int, vertex_indices: tuple[int, ...]):
        set_field(self, "dim", dim)
        set_field(self, "vertex_indices", vertex_indices)


class FaceLattice(Value):
    """All nonempty faces of a polytope, grouped by dimension.

    Level k holds the k-dimensional faces; the top level is the polytope
    itself.  The empty face is not represented.
    """

    __slots__ = _fields = ("faces_by_dim",)

    def __init__(self, faces_by_dim: tuple[tuple[Face, ...], ...]):
        set_field(self, "faces_by_dim", faces_by_dim)

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def faces(self, k: int) -> tuple[Face, ...]:
        return self.faces_by_dim[k]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim)


class FanoPolytope(Value):
    """Full-dimensional lattice polytope with primitive vertices.

    Used both for the polytope spanned by the primitive ray generators in N
    and for its integral dual in M.  The constructor checks only cheap local
    invariants (shape, primitivity, distinctness); spanning, interiority of
    the origin and vertex minimality are established by facet enumeration.
    """

    _fields = ("dim", "vertices")
    # __dict__ holds the cached hull and cones; __weakref__ lets a weak
    # reference see a polytope freed.
    __slots__ = (*_fields, "__dict__", "__weakref__")

    def __init__(self, dim: int, vertices: tuple[LatticePoint, ...]):
        if dim < 1:
            raise InvalidDimension(f"dimension must be >= 1, got {dim}")
        if not vertices:
            raise DegenerateInput("empty vertex list")
        for v in vertices:
            if len(v) != dim:
                raise DegenerateInput(f"vertex {v} has length {len(v)}, expected {dim}")
            if _content(v) != 1:
                raise NonPrimitiveVertex(f"vertex {v} is not primitive")
        if len(set(vertices)) != len(vertices):
            raise DuplicateVertex("vertex list contains repeated points")
        set_field(self, "dim", dim)
        set_field(self, "vertices", vertices)

    @classmethod
    def from_vertices(cls, vertices) -> "FanoPolytope":
        rows = [tuple(int(x) for x in v) for v in vertices]
        if not rows:
            raise DegenerateInput("empty vertex list")
        return cls(len(rows[0]), tuple(rows))

    @cached_property
    def hull(self) -> _Hull:
        """Facet halfspaces and incidences, from one scan on first use;
        raises what facet_enumeration documents."""
        return _scan(self)

    @cached_property
    def cones(self) -> tuple[Cone | None, ...]:
        """Per facet, its Cone, or None when the facet is not a simplex:
        one elimination per facet, on first use."""
        out: list[Cone | None] = []
        for inc in self.hull.incidences:
            if inc.bit_count() != self.dim:
                out.append(None)
                continue
            indices = _bits(inc)
            det, adj = _adjugate([self.vertices[i] for i in indices])
            inverse = None
            if det in (1, -1):
                # B^-1 = adj B / det, and 1 / det = det
                inverse = tuple(tuple(det * a for a in row) for row in adj)
            out.append(Cone(indices, det, inverse))
        return tuple(out)


class Cone(Value):
    """A simplex facet of P seen as a maximal cone of P's fan.

    indices are the facet's vertex indices in increasing order, det is the
    determinant of the matrix B whose rows are those vertices, and inverse
    is B^-1 (as rows) when det is +/-1, else None.
    """

    __slots__ = _fields = ("indices", "det", "inverse")

    def __init__(
        self,
        indices: tuple[int, ...],
        det: int,
        inverse: tuple[tuple[int, ...], ...] | None,
    ):
        set_field(self, "indices", indices)
        set_field(self, "det", det)
        set_field(self, "inverse", inverse)


class _Hull(Value):
    """Facet halfspaces plus, per facet, the mask of its vertices."""

    __slots__ = _fields = ("halfspaces", "incidences")

    def __init__(self, halfspaces: tuple[Halfspace, ...], incidences: tuple[int, ...]):
        set_field(self, "halfspaces", halfspaces)
        set_field(self, "incidences", incidences)


def _scan(P: FanoPolytope) -> _Hull:
    """Facets of P by integer double description (Motzkin et al. 1953;
    Fukuda and Prodon, "Double description method revisited", 1996).

    The facets are the extreme rays of the cone of (u, c) with
    <u, v> - c <= 0 for every vertex v.  It starts as the simplicial cone
    of n + 1 affinely independent vertices, and each further vertex's
    inequality is added in turn: the rays it cuts off are dropped, and
    every adjacent pair on opposite sides is combined into a ray on its
    hyperplane, tight on the pair's shared vertices and the new one.
    Rays are kept primitive, with their tight vertex sets as bitmasks.
    Point i is a vertex iff the masks of the facets through it meet in
    1 << i: any other point lies inside a face with >= 2 listed vertices,
    or inside P, where no facet holds it and the meet is -1, that of none.
    """
    verts = P.vertices
    n = P.dim
    nv = len(verts)
    basis = _affine_basis(verts)
    if len(basis) <= n:
        raise DegenerateInput("vertices do not affinely span the ambient space")

    rows = [v + (-1,) for v in verts]
    det, adj = _adjugate([rows[i] for i in basis])
    in_basis = sum(1 << i for i in basis)
    rays: list[tuple[LatticePoint, int]] = []
    for k, i in enumerate(basis):
        # rows @ (column k of adj) = det e_k, so up to sign that column is
        # the ray tight on every basis vertex but the k-th
        r = [row[k] if det < 0 else -row[k] for row in adj]
        g = _content(r)
        rays.append((tuple(a // g for a in r), in_basis & ~(1 << i)))
    for j in range(nv):
        if in_basis >> j & 1:
            continue
        row = rows[j]
        bit = 1 << j
        kept, cut, inside = [], [], []
        for ray, tight in rays:
            s = _dot(row, ray)
            if s > 0:
                cut.append((ray, tight, s))
            elif s < 0:
                kept.append((ray, tight))
                inside.append((ray, tight, s))
            else:
                kept.append((ray, tight | bit))
        tights = [t for _, t in rays]
        for rp, tp, sp in cut:
            for rq, tq, sq in inside:
                common = tp & tq
                if common.bit_count() < n - 1 or not _adjacent(common, tights):
                    continue
                r = [sp * b - sq * a for a, b in zip(rp, rq)]
                g = _content(r)
                kept.append((tuple(a // g for a in r), common | bit))
        rays = kept

    rays.sort(key=lambda ray: (ray[0][n], ray[0][:n]))
    hull = _Hull(tuple(Halfspace(r[:n], r[n]) for r, _ in rays), tuple(t for _, t in rays))
    if any(h.offset <= 0 for h in hull.halfspaces):
        raise OriginNotInterior(
            "a facet inequality has offset <= 0; the origin is not strictly interior"
        )
    for idx in range(nv):
        if reduce(and_, (t for t in hull.incidences if t >> idx & 1), -1) != 1 << idx:
            raise RedundantVertex(f"point {verts[idx]} is not a vertex of the convex hull")
    return hull


def facet_enumeration(P: FanoPolytope) -> tuple[Halfspace, ...]:
    """All facet halfspaces of P, normalized to primitive outer normals.

    Raises DegenerateInput if the vertices do not span, OriginNotInterior if
    the origin is not strictly inside, RedundantVertex if some listed point
    is not extreme.
    """
    return P.hull.halfspaces


def facet_incidences(P: FanoPolytope) -> tuple[int, ...]:
    """Per facet, aligned with facet_enumeration, the int bitmask of the
    vertices on it: bit i is set when vertex i lies on the facet."""
    return P.hull.incidences


def is_reflexive(P: FanoPolytope) -> bool:
    """True iff every facet lies at lattice distance 1 from the origin."""
    return all(h.offset == 1 for h in P.hull.halfspaces)


def _smoothness_failure(P: FanoPolytope) -> str | None:
    """Why some facet of P is not a unimodular simplex, or None if none."""
    for h, cone in zip(P.hull.halfspaces, P.cones):
        if cone is None:
            return f"facet with normal {h.normal} is not a simplex"
        if cone.det not in (1, -1):
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
    the dual's hull is P's, transposed, without a scan.
    Applying it twice returns the original vertex set.
    """
    if not is_reflexive(P):
        raise NotReflexive("a facet lies at lattice distance != 1 from the origin")
    delta = FanoPolytope(P.dim, tuple(_neg(h.normal) for h in P.hull.halfspaces))
    # The order a scan gives: by (offset, normal), and every offset is 1.
    order = sorted(range(len(P.vertices)), key=lambda i: _neg(P.vertices[i]))
    transposed = _Hull(
        tuple(Halfspace(_neg(P.vertices[i]), 1) for i in order),
        tuple(
            sum(1 << j for j, inc in enumerate(P.hull.incidences) if inc >> i & 1)
            for i in order
        ),
    )
    set_field(delta, "hull", transposed)
    return delta


def facet_cones(P: FanoPolytope) -> tuple[Cone, ...]:
    """The maximal cones of the fan of a smooth P, aligned with
    facet_enumeration; raises NotSmooth if some facet is not a unimodular
    simplex."""
    failure = _smoothness_failure(P)
    if failure:
        raise NotSmooth(failure)
    return P.cones


def polar_dual(P: FanoPolytope) -> FanoPolytope:
    """The dual lattice polytope {m : <m, v> >= -1 for all vertices v of P}.

    Requires P reflexive (else NotReflexive) and smooth (else NotSmooth);
    it is then reflexive_dual(P), one vertex per facet of P.
    """
    delta = reflexive_dual(P)
    facet_cones(P)
    return delta


def face_lattice(P: FanoPolytope) -> FaceLattice:
    """All nonempty faces of P, from the closure of facet-set intersections.

    Every face of a polytope is an intersection of the facets containing it,
    so intersecting facet vertex masks until closure enumerates exactly
    the nonempty faces; the polytope itself is the unique top face.
    """
    incidences = P.hull.incidences
    full = (1 << len(P.vertices)) - 1
    found = {full}
    stack = [full]
    while stack:
        face = stack.pop()
        for facet in incidences:
            sub = face & facet
            if sub and sub not in found:
                found.add(sub)
                stack.append(sub)

    by_dim: list[list[Face]] = [[] for _ in range(P.dim + 1)]
    for mask in found:
        indices = _bits(mask)
        d = _affine_rank([P.vertices[i] for i in indices])
        by_dim[d].append(Face(d, indices))
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
