"""Exact integer lattice geometry for Fano polytopes.

Vertices are tuples of Python ints, so every computation here is exact at
arbitrary precision.  Facets are found by integer double description, in
time polynomial in the number of vertices and facets for a fixed dimension.
Each facet's vertices are one int bitmask, bit i for vertex i, throughout;
a listed point is a vertex when the facets through it meet in it alone.

Each polytope is scanned at most once: its hull is a cached property of the
polytope, and so is one fraction-free inverse per facet once smoothness
or the fan is asked for, so both live exactly as long as the polytope
does.  The dual of a reflexive polytope is never scanned: its facets are
the polytope's vertices, with the incidences transposed, so
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
    return gcd(*u)


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


class FanoPolytope(Value):
    """Full-dimensional lattice polytope with primitive vertices.

    Used both for the polytope spanned by the primitive ray generators in N
    and for its integral dual in M.  The constructor checks only the shape
    and distinctness of the vertices; primitivity, spanning, interiority of
    the origin and vertex minimality are established with the hull, so a
    report can read each of them as failed.
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
        """Facet halfspaces and incidences, from one scan on first use.

        Raises NonPrimitiveVertex, before the scan, if some vertex is not
        primitive, DegenerateInput if the vertices do not span,
        OriginNotInterior if the origin is not strictly inside,
        RedundantVertex if some listed point is not extreme.
        """
        for v in self.vertices:
            if _content(v) != 1:
                raise NonPrimitiveVertex(f"vertex {v} is not primitive")
        return _scan(self)

    @cached_property
    def cones(self) -> tuple[Cone, ...]:
        """Per facet, its Cone, from one elimination per facet on first use;
        raises NotSmooth at the first facet, in hull order, that is not a
        unimodular simplex."""
        out = []
        for h, inc in zip(self.hull.halfspaces, self.hull.incidences):
            if inc.bit_count() != self.dim:
                raise NotSmooth(f"facet with normal {h.normal} is not a simplex")
            indices = _bits(inc)
            det, adj = _adjugate([self.vertices[i] for i in indices])
            if det not in (1, -1):
                raise NotSmooth(
                    f"facet with normal {h.normal} has vertex determinant != +/-1"
                )
            # B^-1 = adj B / det, and 1 / det = det
            out.append(Cone(indices, tuple(tuple(det * a for a in row) for row in adj)))
        return tuple(out)


class Cone(Value):
    """A unimodular simplex facet of P seen as a maximal cone of P's fan.

    indices are the facet's vertex indices in increasing order, and inverse
    is B^-1 (as rows), B the matrix whose rows are those vertices.
    """

    __slots__ = _fields = ("indices", "inverse")


class _Hull(Value):
    """Facet halfspaces plus, per facet, the mask of its vertices."""

    __slots__ = _fields = ("halfspaces", "incidences")


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
    rows = [v + (-1,) for v in verts]
    # Points are affinely independent exactly when their rows (v, -1) are
    # linearly independent.
    basis = _independent(rows)
    if len(basis) <= n:
        raise DegenerateInput("vertices do not affinely span the ambient space")
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


def is_reflexive(P: FanoPolytope) -> bool:
    """True iff every facet lies at lattice distance 1 from the origin."""
    return all(h.offset == 1 for h in P.hull.halfspaces)


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


def polar_dual(P: FanoPolytope) -> FanoPolytope:
    """The dual lattice polytope {m : <m, v> >= -1 for all vertices v of P}.

    Requires P reflexive (else NotReflexive) and smooth (else NotSmooth);
    it is then reflexive_dual(P), one vertex per facet of P.
    """
    delta = reflexive_dual(P)
    P.cones  # raises NotSmooth
    return delta
