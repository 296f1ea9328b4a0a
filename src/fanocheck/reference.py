"""Reference derivations of the invariants, from the face lattice of the dual.

A smooth toric Fano variety is a disjoint union of tori, one per face of
the dual polytope, so its Poincare polynomial is the sum of (t-1)^dim over
those faces; its Chern numbers count the dual's vertices and sum the
lattice lengths of its edges.  Building the face lattice is exponential in
the dimension, so no check runs this module: the checks read the same
invariants from the fan and the dual's edges (`invariants.toric_invariants`),
and the tests compare the two.
"""

from __future__ import annotations

from math import comb

from .errors import DegenerateEdge, NegativeCoefficient
from .invariants import ToricInvariants, _check_betti
from .lattice import FanoPolytope, Halfspace, LatticePoint, _bits, _content, _independent
from .value import Value


class Face(Value):
    """A face given by its dimension and the indices of the polytope
    vertices lying on it."""

    __slots__ = _fields = ("dim", "vertex_indices")


class FaceLattice(Value):
    """All nonempty faces of a polytope, grouped by dimension.

    Level k holds the k-dimensional faces; the top level is the polytope
    itself.  The empty face is not represented.
    """

    __slots__ = _fields = ("faces_by_dim",)

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def faces(self, k: int) -> tuple[Face, ...]:
        return self.faces_by_dim[k]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim)


def facet_enumeration(P: FanoPolytope) -> tuple[Halfspace, ...]:
    """All facet halfspaces of P, normalized to primitive outer normals.

    Raises DegenerateInput if the vertices do not span, OriginNotInterior if
    the origin is not strictly inside, RedundantVertex if some listed point
    is not extreme.
    """
    return P.hull.halfspaces


def _affine_rank(points) -> int:
    """Dimension of the affine span of the given lattice points: the rank
    of their differences from the first."""
    base = points[0]
    return len(_independent([[a - b for a, b in zip(p, base)] for p in points[1:]]))


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


class IntPolynomial(Value):
    """Univariate polynomial with integer coefficients, index = degree."""

    __slots__ = _fields = ("coeffs",)

    @classmethod
    def from_coeffs(cls, seq) -> "IntPolynomial":
        coeffs = [int(c) for c in seq]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial.from_coeffs(
            [self.coefficient(k) + other.coefficient(k) for k in range(size)]
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            if k > 0 and abs(c) != 1:
                term = f"{abs(c)}*{term}"
            elif k == 0:
                term = str(abs(c))
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
        return " ".join(parts)


def poincare_polynomial(faces: FaceLattice) -> IntPolynomial:
    """Sum of (t-1)^dim over all nonempty faces, expanded in t.

    For a smooth reflexive dual polytope the coefficients are the even Betti
    numbers h^{2k} of the associated toric variety.
    """
    return _strata_polynomial(faces.f_vector())


def _strata_polynomial(counts) -> IntPolynomial:
    """sum_k counts[k] * (t-1)^k, expanded in t."""
    out = [0] * len(counts)
    for k, fk in enumerate(counts):
        for j in range(k + 1):
            out[j] += fk * comb(k, j) * (-1) ** (k - j)
    return IntPolynomial.from_coeffs(out)


def betti_numbers(poly: IntPolynomial) -> tuple[int, ...]:
    """Coefficient list of the even Poincare polynomial.

    Raises NegativeCoefficient when a coefficient is negative, which means
    a non-smooth or non-projective input slipped through upstream checks.
    """
    if any(c < 0 for c in poly.coeffs):
        raise NegativeCoefficient(f"polynomial {poly} has a negative coefficient")
    return poly.coeffs


def chern_numbers(delta: FanoPolytope, faces: FaceLattice) -> tuple[int, int]:
    """(c_n, c_1*c_{n-1}) of the toric variety with dual polytope delta.

    c_n counts the vertices of delta; c_1*c_{n-1} sums, over the edges of
    delta, the number of interior lattice points plus one.
    """
    c_top = len(faces.faces(0))
    c1_part = 0
    for edge in faces.faces(1):
        i, j = edge.vertex_indices
        c1_part += edge_interior_points(delta.vertices[i], delta.vertices[j]) + 1
    return c_top, c1_part


def second_derivative_at_one(poly: IntPolynomial) -> int:
    """Exact value of d^2 p / dt^2 at t = 1."""
    return sum(k * (k - 1) * c for k, c in enumerate(poly.coeffs))


def compute_invariants(delta: FanoPolytope, faces: FaceLattice) -> ToricInvariants:
    """Assemble all invariants from the dual polytope's face lattice.

    Malformed or non-palindromic Betti numbers raise ConsistencyError; for
    a smooth reflexive input that is a bug.
    """
    n = delta.dim
    betti = betti_numbers(poincare_polynomial(faces))
    _check_betti(betti, n)
    c_top, c1_part = chern_numbers(delta, faces)
    return ToricInvariants(
        n=n, betti=betti, c_n=c_top, c1_cn1=c1_part, f_vector=faces.f_vector()
    )


def verify_face_count_identity(delta: FanoPolytope, faces: FaceLattice) -> bool:
    """Combinatorial form of the identity on the dual polytope:

    #2-faces = (1/12) * (interior points summed over edges)
             + (n^2/8 - n/6) * #vertices,  exactly,

    tested as 24 * #2-faces = 2 * interior + (3n^2 - 4n) * #vertices, with
    interior = c_1*c_{n-1} - #edges.
    """
    n, fvec = delta.dim, faces.f_vector()
    two_faces = fvec[2] if n >= 2 else 0
    interior = chern_numbers(delta, faces)[1] - fvec[1]
    return 24 * two_faces == 2 * interior + (3 * n * n - 4 * n) * fvec[0]
