"""Topological invariants of a smooth toric Fano variety.

The pipeline reads them in time polynomial in the number of facets, in two
ways that can disagree: the Betti numbers and the degree c_1 . C of each
torus-invariant curve from the fan (one integer inverse per maximal cone),
and each such degree again as the lattice length of an edge of the dual
polytope, with the edges and 2-faces counted from the facet incidences.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import ConsistencyError
from .lattice import FanoPolytope, _bits, _content, _dot
from .value import Value


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


class ToricInvariants(Value):
    """Invariant bundle for one smooth toric Fano variety.

    betti[k] is h^{2k}; f_vector refers to the dual polytope.  All entries
    are exact integers.
    """

    __slots__ = _fields = ("n", "betti", "c_n", "c1_cn1", "f_vector")


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
