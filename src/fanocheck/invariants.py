"""Topological invariants of a smooth toric Fano variety.

The pipeline reads them in time polynomial in the number of facets, in two
ways that can disagree: the Betti numbers and the degree c_1 . C of each
torus-invariant curve from the fan (one integer inverse per maximal cone),
and each such degree again as the lattice length of an edge of the dual
polytope, with the edges and 2-faces counted from the facet incidences.

The face-lattice derivation (the variety is a disjoint union of tori, one
per face of the dual polytope, so the Poincare polynomial is the face sum
of (t-1)^dim) stays as a library function and as the tests' reference; it
is exponential in the dimension.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import ConsistencyError, NegativeCoefficient
from .lattice import (
    FaceLattice,
    FanoPolytope,
    _bits,
    _content,
    _dot,
    edge_interior_points,
)
from .value import Value, set_field


class IntPolynomial(Value):
    """Univariate polynomial with integer coefficients, index = degree."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        set_field(self, "coeffs", coeffs)

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


def _walls(facets) -> list[tuple[int, int, int, int]]:
    """One (a, i, b, j) per wall of a simplicial fan, from the facets'
    vertex masks: facets a and b share every vertex but i, which only a
    holds, and j, which only b holds."""
    walls = []
    half_walls: dict[int, tuple[int, int]] = {}
    for a, inc in enumerate(facets):
        for i in _bits(inc):
            wall = inc & ~(1 << i)
            if wall in half_walls:
                b, j = half_walls.pop(wall)
                walls.append((a, i, b, j))
            else:
                half_walls[wall] = (a, i)
    return walls


def _fan_side(P: FanoPolytope, walls) -> tuple[tuple[int, ...], list[int]]:
    """(betti, degrees) from P's vertices and the inverses B^-1 of its
    maximal cones' bases (the rows of B are the cone's vertices); degrees
    holds c_1 . C for the curve C of each wall, in the order of walls.

    Betti numbers by Bialynicki-Birula index counting (Fulton, Introduction
    to Toric Varieties, section 5.2): write w = (1, M, ..., M^(n-1)) as
    lambda = w B^-1 in each cone's basis; b_{2k} counts the cones with
    exactly k negative lambda_i.  With M one more than every |entry| of
    every inverse, each lambda_i is a nonzero integer polynomial in M with
    coefficients below M, so it is never 0 and w is generic.

    Across the wall between the cones a = t + {i} and b = t + {j},
    x = v_i B_b^-1 writes v_i in b's basis, so x_j = -1 and x_k = -a_k in
    the wall relation v_i + v_j + sum_k a_k v_k = 0, and
    c_1 . C = 2 + sum_k a_k = 2 - sum_{k != j} x_k (Fulton, section 5.1).
    Only two numbers of x are needed: sum_k x_k = <v_i, s_b>, where s_b
    holds the row sums of B_b^-1, and x_j = <v_i, c_j> for j's column c_j.
    """
    n = P.dim
    verts = P.vertices
    cones = P.cones
    columns = [list(zip(*c.inverse)) for c in cones]
    row_sums = [list(map(sum, c.inverse)) for c in cones]
    M = 1 + max(abs(a) for c in cones for row in c.inverse for a in row)
    w = [M**k for k in range(n)]
    betti = [0] * (n + 1)
    for cols in columns:
        betti[sum(1 for col in cols if _dot(w, col) < 0)] += 1

    degrees = []
    for _, i, b, j in walls:
        v = verts[i]
        col = columns[b][cones[b].indices.index(j)]
        degrees.append(2 - _dot(v, row_sums[b]) + _dot(v, col))
    return tuple(betti), degrees


def second_derivative_at_one(poly: IntPolynomial) -> int:
    """Exact value of d^2 p / dt^2 at t = 1."""
    return sum(k * (k - 1) * c for k, c in enumerate(poly.coeffs))


class ToricInvariants(Value):
    """Invariant bundle for one smooth toric Fano variety.

    betti[k] is h^{2k}; f_vector refers to the dual polytope.  All entries
    are exact integers.
    """

    __slots__ = _fields = ("n", "betti", "c_n", "c1_cn1", "f_vector")

    def __init__(
        self,
        n: int,
        betti: tuple[int, ...],
        c_n: int,
        c1_cn1: int,
        f_vector: tuple[int, ...],
    ):
        set_field(self, "n", n)
        set_field(self, "betti", betti)
        set_field(self, "c_n", c_n)
        set_field(self, "c1_cn1", c1_cn1)
        set_field(self, "f_vector", f_vector)


def _check_betti(betti, n: int) -> None:
    """Raise ConsistencyError on Betti numbers no smooth reflexive input
    can have: for such an input that is a bug."""
    if len(betti) != n + 1 or betti[0] != 1:
        raise ConsistencyError(f"Betti list {betti} malformed for dimension {n}")
    if betti != betti[::-1]:
        raise ConsistencyError(f"Betti list {betti} is not palindromic")


def _h_to_f(h) -> tuple[int, ...]:
    """f-vector of a simple polytope from its h-vector:
    f_k = sum_i C(i, k) h_i (Ziegler, Lectures on Polytopes, ch. 8)."""
    return tuple(sum(comb(i, k) * hi for i, hi in enumerate(h)) for k in range(len(h)))


def toric_invariants(P: FanoPolytope, delta: FanoPolytope) -> tuple[ToricInvariants, bool]:
    """All invariants of a smooth Fano polytope P with dual delta, and
    whether their two derivations agree.

    The fan side gives the Betti numbers and, per wall, the degree
    c_1 . C of the wall's curve; the reported f-vector is the h -> f
    transform of the Betti numbers, and c_n the facet count.  The dual side
    reads delta's vertices (the negated facet normals of P) and P's
    incidences only: the wall between facets a and b is the edge
    [u_a, u_b] of delta, whose lattice length gcd(u_a - u_b) is the same
    degree, and c_1*c_{n-1} is their sum; the edges (walls) and 2-faces
    (distinct (n-2)-subsets of facets) are counted directly.  The two
    sides agree when the degrees match wall by wall and the counted f_1
    and f_2 equal the transform's.  f_0 and c_n are the facet count on
    both sides by construction, so they are not compared.
    """
    n = P.dim
    facets = P.hull.incidences
    walls = _walls(facets)
    betti, degrees = _fan_side(P, walls)
    _check_betti(betti, n)
    fvec = _h_to_f(betti)

    u = delta.vertices
    lengths = [_content([x - y for x, y in zip(u[a], u[b])]) for a, _, b, _ in walls]
    two_faces = {inc & ~(1 << i | 1 << j) for inc in facets for i, j in combinations(_bits(inc), 2)}
    counted = (len(walls), len(two_faces))
    consistent = degrees == lengths and counted == (fvec[1], fvec[2] if n >= 2 else 0)
    inv = ToricInvariants(
        n=n, betti=betti, c_n=len(facets), c1_cn1=sum(lengths), f_vector=fvec
    )
    return inv, consistent


def compute_invariants(delta: FanoPolytope, faces: FaceLattice) -> ToricInvariants:
    """Assemble all invariants from the dual polytope's face lattice: the
    reference derivation, exponential in n, that the pipeline no longer runs.

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
