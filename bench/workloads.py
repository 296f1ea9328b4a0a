"""Seeded benchmark inputs, each with the answer an independent oracle expects.

Nothing here imports fanocheck.  Expected values come from closed forms
(projective spaces, del Pezzo surfaces), from product rules for products
of varieties, and from integer arithmetic on the generated Hodge
diamonds, so a wrong answer in the program cannot also hide in the
oracle.  Rationals are handled as integers scaled by 12 (by 48 for the
quarter-normalized form) and rendered the way the report renders them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb, gcd

WORKLOADS = ("ladder", "diamonds", "repeat")

# Diamonds per `diamonds` batch.
DIAMOND_COUNT = 6000
# Each `repeat` polytope appears as this many byte-identical copies plus
# this many GL(n, Z) images.
REPEAT_COPIES = 6
REPEAT_IMAGES = 2


@dataclass(frozen=True)
class Toric:
    """A smooth toric Fano variety: its N-side polytope and known invariants.

    f_vector belongs to the dual polytope, vertices first and the polytope
    itself last; c1_cn1 is c_1 * c_{n-1}.
    """

    name: str
    vertices: tuple[tuple[int, ...], ...]
    betti: tuple[int, ...]
    f_vector: tuple[int, ...]
    c_n: int
    c1_cn1: int

    @property
    def dim(self) -> int:
        return len(self.betti) - 1


@dataclass(frozen=True)
class Entry:
    """One input file and what the report must say about it."""

    filename: str
    data: bytes
    expected: dict


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    entries: tuple[Entry, ...]
    # Inputs of the `fanocheck check` calls that follow each batch.
    checks: tuple[Entry, ...] = ()


class AllTrue:
    """Expect a non-empty mapping whose values are all True."""


class IfPresent:
    """Expect `value` when the key is present; the key may be absent."""

    def __init__(self, value):
        self.value = value


def _convolve(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def projective_space(n: int) -> Toric:
    """P^n: Betti numbers all 1, dual a simplex, c(T) = (1 + h)^(n+1)."""
    verts = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    verts.append((-1,) * n)
    return Toric(
        f"P{n}",
        tuple(verts),
        (1,) * (n + 1),
        tuple(comb(n + 1, k + 1) for k in range(n + 1)),
        n + 1,
        n * (n + 1) ** 2 // 2,
    )


def _del_pezzo(name, rays, b2) -> Toric:
    # A surface with 2 + b2 rays; c_2 = Euler number, c_1^2 = 12 - c_2 (Noether).
    m = len(rays)
    return Toric(name, tuple(rays), (1, b2, 1), (m, m, 1), m, 12 - m)


_P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
DEL_PEZZOS = (
    projective_space(2),
    _del_pezzo("P1xP1", [(1, 0), (0, 1), (-1, 0), (0, -1)], 2),
    _del_pezzo("Bl1P2", _P2_RAYS + [(1, 1)], 2),
    _del_pezzo("Bl2P2", _P2_RAYS + [(1, 1), (0, -1)], 3),
    _del_pezzo("dP6", _P2_RAYS + [(1, 1), (0, -1), (-1, 0)], 4),
)
DP6 = DEL_PEZZOS[-1]


def product(*factors: Toric) -> Toric:
    """X x Y: direct sum of polytopes, product of duals, c(X x Y) = c(X) c(Y).

    Betti numbers and dual f-vectors convolve, c_n multiplies, and
    c1 c_{n+m-1}(X x Y) = c1 c_{n-1}(X) c_m(Y) + c_n(X) c1 c_{m-1}(Y).
    """
    X = factors[0]
    for Y in factors[1:]:
        pad_y, pad_x = (0,) * Y.dim, (0,) * X.dim
        X = Toric(
            f"{X.name}x{Y.name}",
            tuple(v + pad_y for v in X.vertices) + tuple(pad_x + w for w in Y.vertices),
            _convolve(X.betti, Y.betti),
            _convolve(X.f_vector, Y.f_vector),
            X.c_n * Y.c_n,
            X.c1_cn1 * Y.c_n + X.c_n * Y.c1_cn1,
        )
    return X


def frac12(value: int) -> str:
    """value / 12 in lowest terms, as the report prints rationals."""
    g = gcd(value, 12)
    num, den = value // g, 12 // g
    return str(num) if den == 1 else f"{num}/{den}"


def random_unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """A small random GL(n, Z) matrix: row additions, then a row permutation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def image(vertices, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A random GL(n, Z) image of a vertex list, in a random order.

    Every invariant the report prints is unchanged by it.
    """
    n = len(vertices[0])
    m = random_unimodular(n, rng)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    out = [
        tuple(s * sum(a * x for a, x in zip(row, v)) for s, row in zip(signs, m))
        for v in vertices
    ]
    rng.shuffle(out)
    return tuple(out)


def polytope_text(comment: str, vertices) -> bytes:
    n = len(vertices[0])
    lines = [f"# {comment}", f"{n} {len(vertices)}"]
    lines += [" ".join(map(str, v)) for v in vertices]
    return ("\n".join(lines) + "\n").encode()


_VALID_ALL = {"primitive": True, "spanning": True, "reflexive": True, "smooth": True}


def expected_toric(t: Toric) -> dict:
    n = t.dim
    lhs12 = 3 * sum(b * (2 * k - n) ** 2 for k, b in enumerate(t.betti))
    rhs12 = 2 * t.c1_cn1 + n * t.c_n
    # The theorem the program verifies; if it fails, the oracle's own data is wrong.
    if lhs12 != rhs12:
        raise AssertionError(f"oracle data for {t.name} breaks the identity")
    return {
        "mode": "toric",
        "status": "ok",
        "error": None,
        "n": n,
        "vertex_count": len(t.vertices),
        "valid": _VALID_ALL,
        "f_vector": list(t.f_vector),
        "betti": list(t.betti),
        "c_n": t.c_n,
        "c1_cn1": t.c1_cn1,
        "identity": {
            "lhs": frac12(lhs12),
            "rhs": frac12(rhs12),
            "defect": "0",
            "equality": True,
            "inequality_ok": True,
            "chi_identity_ok": IfPresent(True),
            "quarter_form_ok": IfPresent(True),
            "face_count_ok": IfPresent(True),
        },
        "consistency": AllTrue,
    }


def _invalid(n, count, error_type, status="validation_error", valid=None) -> dict:
    out = {"mode": "toric", "status": status, "error_type": error_type}
    if valid is not None:
        out.update(n=n, vertex_count=count, valid=valid)
    return out


def _invalid_inputs(rng):
    """Inputs that stop at validation: (name, file bytes, expected entry)."""
    def valid(spanning, reflexive, smooth):
        return {"primitive": True, "spanning": spanning, "reflexive": reflexive, "smooth": smooth}

    not_reflexive = image(((1, 0), (0, 1), (-1, -3)), rng)
    singular = image(((1, 0), (0, 1), (-1, -2)), rng)
    flat = image(((1, 0), (-1, 0)), rng)
    return [
        ("notreflexive", polytope_text("a facet at lattice distance 3", not_reflexive),
         _invalid(2, 3, "NotReflexive", valid=valid(True, False, None))),
        ("singular", polytope_text("reflexive, one facet of determinant 2", singular),
         _invalid(2, 3, "NotSmooth", valid=valid(True, True, False))),
        ("flat", polytope_text("vertices on a line", flat),
         _invalid(2, 2, "DegenerateInput", valid=valid(False, None, None))),
        ("badheader", b"# header without a vertex count\n2\n1 0\n0 1\n-1 -1\n",
         _invalid(2, 3, "ParseError", status="parse_error")),
    ]


P = projective_space
P1 = P(1)

# dP6^3, P1^5 and P2^3 are left out: each takes from 8 s to over 10 min today.
LADDER = (
    *(P(n) for n in range(2, 9)),
    *DEL_PEZZOS,
    product(P1, P1),
    product(P1, P1, P1),
    product(P1, P1, P1, P1),
    product(DP6, P(2)),
    product(P(2), P(2), P1),
    product(DP6, P1, P1),
    product(P(3), P(3)),
    product(DP6, DP6),
)

REPEAT = (
    product(DP6, P(2)),
    product(P(2), P(2), P1),
    product(DP6, P1, P1),
    product(P(3), P(3)),
)


def ladder(rng: random.Random) -> Workload:
    entries = []
    for i, t in enumerate(LADDER):
        verts = image(t.vertices, rng)
        fname = f"l{i:02d}_{t.name}.poly"
        entries.append(Entry(fname, polytope_text(t.name, verts), expected_toric(t)))
    for name, data, exp in _invalid_inputs(rng):
        entries.append(Entry(f"x_{name}.poly", data, exp))
    return Workload("ladder", 1, tuple(entries))


def repeat(rng: random.Random) -> Workload:
    """Copies and images in a fixed order; the seed picks the images.

    The two copies of each polytope that open the batch start together on
    the two workers, so both miss the cache; later copies are hits.
    """
    copies, images = {}, {}
    for t in REPEAT:
        copies[t] = image(t.vertices, rng)
        images[t] = [image(t.vertices, rng) for _ in range(REPEAT_IMAGES)]
    items = [(t, copies[t]) for t in REPEAT for _ in range(2)]
    items += [(t, copies[t]) for _ in range(REPEAT_COPIES - 2) for t in REPEAT]
    items += [(t, images[t][k]) for k in range(REPEAT_IMAGES) for t in REPEAT]
    entries = [
        Entry(f"r{i:02d}_{t.name}.poly", polytope_text(t.name, v), expected_toric(t))
        for i, (t, v) in enumerate(items)
    ]
    return Workload("repeat", 2, tuple(entries))


def random_diamond(n: int, rng: random.Random, odd: bool) -> list[list[int]]:
    """A Hodge- and Serre-symmetric table with h[0][0] = 1.

    Odd-degree entries vanish unless `odd`, in which case at least one does not.
    """
    h = [[None] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(p, n + 1):
            if h[p][q] is not None:
                continue
            if p == q:
                v = 1 if p in (0, n) else rng.randint(1, 6)
            elif (p + q) % 2:
                v = rng.randint(0, 2) if odd else 0
            else:
                v = 0 if rng.random() < 0.6 else rng.randint(1, 3)
            for a, b in ((p, q), (q, p), (n - p, n - q), (n - q, n - p)):
                h[a][b] = v
    if odd and not any(h[p][q] for p in range(n + 1) for q in range(n + 1) if (p + q) % 2):
        for a, b in ((0, 1), (1, 0), (n, n - 1), (n - 1, n)):
            h[a][b] = 1
    return h


def expected_diamond(n: int, h, c1_cn1=None, c_n=None) -> dict:
    rng_n = range(n + 1)
    betti = [sum(h[p][2 * k - p] for p in rng_n if 0 <= 2 * k - p <= n) for k in rng_n]
    chi = [sum((-1) ** (p + q) * h[p][q] for q in rng_n) for p in rng_n]
    out = {"mode": "diamond", "n": n, "betti": betti, "chi_p": chi}
    if any(h[p][q] for p in rng_n for q in rng_n if (p + q) % 2):
        out.update(status="validation_error", error_type="HypothesisViolated")
        return out
    lhs12 = 3 * sum(b * (2 * k - n) ** 2 for k, b in enumerate(betti))
    defect12 = 3 * sum(h[p][q] * (q - p) ** 2 for p in rng_n for q in rng_n)
    if c_n is None:
        out.update(status="ok", error=None, identity={
            "lhs": frac12(lhs12), "defect": frac12(defect12), "rhs": None,
            "equality": None, "inequality_ok": None,
            "chi_identity_ok": IfPresent(None), "quarter_form_ok": IfPresent(None),
            "face_count_ok": IfPresent(None),
        })
        return out
    rhs12 = 2 * c1_cn1 + n * c_n
    chi12 = 3 * sum(c * (2 * p - n) ** 2 for p, c in enumerate(chi))
    # Original normalization, both sides scaled by 48.
    quarter_lhs = 3 * sum(b * (2 * k - n + 1) * (n + 1 - 2 * k) for k, b in enumerate(betti))
    quarter_rhs = (3 - n) * sum(betti) - 2 * c1_cn1
    out.update(
        status="ok" if lhs12 <= rhs12 else "identity_violation",
        error=None,
        c_n=c_n,
        c1_cn1=c1_cn1,
        identity={
            "lhs": frac12(lhs12),
            "rhs": frac12(rhs12),
            "defect": frac12(defect12),
            "equality": lhs12 == rhs12,
            "inequality_ok": lhs12 <= rhs12,
            "chi_identity_ok": IfPresent(chi12 == rhs12),
            "quarter_form_ok": IfPresent(quarter_lhs == quarter_rhs),
            "face_count_ok": IfPresent(None),
        },
    )
    return out


def diamonds(rng: random.Random) -> Workload:
    entries = []
    for i in range(DIAMOND_COUNT):
        n = rng.randint(1, 8)
        r = rng.random()
        fname = f"d{i:05d}.json"
        h = random_diamond(n, rng, odd=0.03 <= r < 0.10)
        obj = {"n": n, "h": h}
        if r < 0.03:
            text = json.dumps(obj)
            data = text[: len(text) // 2].encode()
            entries.append(Entry(fname, data, {
                "mode": "diamond", "status": "parse_error", "error_type": "ParseError",
            }))
            continue
        if rng.random() < 0.6:
            c_n = sum((-1) ** (p + q) * h[p][q] for p in range(n + 1) for q in range(n + 1))
            chi = [sum((-1) ** (p + q) * h[p][q] for q in range(n + 1)) for p in range(n + 1)]
            # c1 c_{n-1} from the chi_y genus (Libgober-Wood), rounded down when odd.
            twice = 3 * sum(c * (2 * p - n) ** 2 for p, c in enumerate(chi)) - n * c_n
            c1_cn1 = twice // 2
            if rng.random() < 0.1:
                c1_cn1 -= rng.randint(1, 4) * (n + 1)  # lowers rhs, often below lhs
            obj.update(c1_cn1=c1_cn1, c_n=c_n)
            exp = expected_diamond(n, h, c1_cn1, c_n)
        else:
            exp = expected_diamond(n, h)
        entries.append(Entry(fname, json.dumps(obj).encode(), exp))
    non_utf8 = Entry(
        "nonutf8.json",
        b'{"n": 2, "h": [[1, 0, 1], [0, \xff20, 0], [1, 0, 1]]}\n',
        {"mode": "diamond", "status": "parse_error", "error_type": "ParseError"},
    )
    return Workload("diamonds", 1, tuple(entries), checks=(non_utf8,))


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"ladder": ladder, "diamonds": diamonds, "repeat": repeat}[name](rng)
