"""Topological invariants of a smooth toric Fano variety, computed twice:
from the face lattice of its dual polytope and from its fan alone.

The variety is a disjoint union of algebraic tori, one per nonempty face of
the dual polytope, which turns the even Poincare polynomial into the face
sum of (t-1)^dim and the two relevant Chern numbers into lattice counts:
c_n is the vertex count and c_1*c_{n-1} sums (interior points + 1) over
edges.  The fan gives the same numbers from its cones and wall relations,
with no dual polytope, so the two routes can disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import ConsistencyError, NegativeCoefficient
from .lattice import FaceLattice, FanoPolytope, _det, edge_interior_points, facet_incidences


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with integer coefficients, index = degree."""

    coeffs: tuple[int, ...]

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


def fan_invariants(P: FanoPolytope) -> tuple[tuple[int, ...], int, int]:
    """(betti, c_n, c_1*c_{n-1}) of a smooth Fano polytope P's toric variety
    from its fan alone: P's vertices and facet incidences, no dual polytope,
    no facet normal, no face lattice (Fulton, Introduction to Toric
    Varieties, sections 4.5 and 5.1).

    The cones are the subsets of the facets; with c_k cones of dimension k
    the Poincare polynomial is sum_k c_k (t-1)^(n-k), and c_n counts the
    maximal cones.  Maximal cones a = w + {i} and b = w + {j} meeting in the
    wall w give v_i + v_j + sum_{k in w} a_k v_k = 0, solved by integer
    Cramer in b's unimodular basis; c_1*c_{n-1} sums 2 + sum a_k over walls.
    """
    n = P.dim
    verts = P.vertices
    facets = facet_incidences(P)
    cones = {c for a in facets for k in range(n + 1) for c in combinations(sorted(a), k)}
    counts = [0] * (n + 1)
    for c in cones:
        counts[n - len(c)] += 1
    betti = _strata_polynomial(counts).coeffs

    c1_cn1 = 0
    half_walls: dict[frozenset[int], tuple[frozenset[int], int]] = {}
    for a in facets:
        for i in a:
            wall = a - {i}
            if wall not in half_walls:
                half_walls[wall] = (a, i)
                continue
            b, j = half_walls.pop(wall)
            order = sorted(b)
            basis = [verts[k] for k in order]
            det_b = _det(basis)
            c1_cn1 += 2
            for pos, k in enumerate(order):
                if k != j:
                    # v_i = sum_l x_l v_l over b, so a_k = -x_k
                    rows = basis.copy()
                    rows[pos] = verts[i]
                    c1_cn1 -= _det(rows) // det_b
    return betti, len(facets), c1_cn1


def second_derivative_at_one(poly: IntPolynomial) -> int:
    """Exact value of d^2 p / dt^2 at t = 1."""
    return sum(k * (k - 1) * c for k, c in enumerate(poly.coeffs))


@dataclass(frozen=True)
class ToricInvariants:
    """Invariant bundle for one smooth toric Fano variety.

    betti[k] is h^{2k}; f_vector and edge_interior_total refer to the dual
    polytope.  All entries are exact integers.
    """

    n: int
    e_poly: IntPolynomial
    betti: tuple[int, ...]
    c_n: int
    c1_cn1: int
    f_vector: tuple[int, ...]
    edge_interior_total: int


def compute_invariants(delta: FanoPolytope, faces: FaceLattice) -> ToricInvariants:
    """Assemble all invariants from the dual polytope's face lattice.

    Malformed or non-palindromic Betti numbers raise ConsistencyError; for
    a smooth reflexive input that is a bug.
    """
    n = delta.dim
    e_poly = poincare_polynomial(faces)
    betti = betti_numbers(e_poly)
    if len(betti) != n + 1 or betti[0] != 1:
        raise ConsistencyError(f"Betti list {betti} malformed for dimension {n}")
    if betti != betti[::-1]:
        raise ConsistencyError(f"Betti list {betti} is not palindromic")
    fvec = faces.f_vector()
    c_top, c1_part = chern_numbers(delta, faces)
    return ToricInvariants(
        n=n,
        e_poly=e_poly,
        betti=betti,
        c_n=c_top,
        c1_cn1=c1_part,
        f_vector=fvec,
        edge_interior_total=c1_part - fvec[1],
    )
