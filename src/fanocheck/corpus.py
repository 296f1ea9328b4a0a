"""Built-in polytope generators and the dimension-2 verification corpus."""

from __future__ import annotations

from .errors import InvalidDimension
from .lattice import FanoPolytope, polar_dual
from .value import Value, set_field


class PinnedValues(Value):
    """Optional regression values for a corpus entry."""

    __slots__ = _fields = ("betti", "c_n", "c1_cn1")

    def __init__(
        self,
        betti: tuple[int, ...] | None = None,
        c_n: int | None = None,
        c1_cn1: int | None = None,
    ):
        set_field(self, "betti", betti)
        set_field(self, "c_n", c_n)
        set_field(self, "c1_cn1", c1_cn1)


class CorpusEntry(Value):
    __slots__ = _fields = ("name", "polytope", "expected")

    def __init__(
        self, name: str, polytope: FanoPolytope, expected: PinnedValues | None = None
    ):
        set_field(self, "name", name)
        set_field(self, "polytope", polytope)
        set_field(self, "expected", expected)


def gen_pn(n: int) -> FanoPolytope:
    """Fano polytope of projective n-space: e_1, ..., e_n and -(e_1+...+e_n)."""
    if n < 1:
        raise InvalidDimension(f"projective space needs n >= 1, got {n}")
    vertices = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    vertices.append(tuple([-1] * n))
    return FanoPolytope(n, tuple(vertices))


def gen_direct_sum(P: FanoPolytope, Q: FanoPolytope) -> FanoPolytope:
    """Fano polytope of the product variety: vertices of P and Q padded with
    zeros into dimension dim(P) + dim(Q).  Its dual is the product of duals.
    Raises what polar_dual raises on the first summand it refuses."""
    for part in (P, Q):
        polar_dual(part)
    zeros_q = (0,) * Q.dim
    zeros_p = (0,) * P.dim
    vertices = [v + zeros_q for v in P.vertices] + [zeros_p + w for w in Q.vertices]
    return FanoPolytope(P.dim + Q.dim, tuple(vertices))


def dim2_corpus() -> list[CorpusEntry]:
    """The five smooth toric del Pezzo surfaces.

    The plane, the quadric, and the blow-ups of the plane in 1, 2, 3
    torus-fixed points; the ray sets grow incrementally by (1,1), (0,-1),
    (-1,0).
    """
    p2_rays = [(1, 0), (0, 1), (-1, -1)]
    entries = [
        CorpusEntry(
            "P2",
            FanoPolytope(2, tuple(p2_rays)),
            PinnedValues(betti=(1, 1, 1), c_n=3, c1_cn1=9),
        ),
        CorpusEntry(
            "P1xP1",
            FanoPolytope(2, ((1, 0), (0, 1), (-1, 0), (0, -1))),
            PinnedValues(betti=(1, 2, 1), c_n=4, c1_cn1=8),
        ),
        CorpusEntry(
            "Bl1P2",
            FanoPolytope(2, tuple(p2_rays + [(1, 1)])),
            PinnedValues(betti=(1, 2, 1), c_n=4, c1_cn1=8),
        ),
        CorpusEntry(
            "Bl2P2",
            FanoPolytope(2, tuple(p2_rays + [(1, 1), (0, -1)])),
            PinnedValues(betti=(1, 3, 1), c_n=5, c1_cn1=7),
        ),
        CorpusEntry(
            "Bl3P2",
            FanoPolytope(2, tuple(p2_rays + [(1, 1), (0, -1), (-1, 0)])),
            PinnedValues(betti=(1, 4, 1), c_n=6, c1_cn1=6),
        ),
    ]
    return entries
