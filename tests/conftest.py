"""Shared test helpers: independent oracles and random generators.

The oracles deliberately use a different arithmetic route than the library
(Fraction-based Gaussian elimination, bounding-box enumeration) so they can
catch sign and normalization bugs in the integer code paths.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

import pytest

from fanocheck import FanoPolytope, HodgeDiamond
from fanocheck.cli import main

# Diamond files that json.loads rejects with something other than
# JSONDecodeError: a 5000-digit integer (ValueError from int's digit limit)
# and arrays nested far past the recursion limit (RecursionError).
HUGE_INT_DIAMOND = '{"n": 1, "h": [[1, 0], [0, ' + "9" * 5000 + "]]}"
DEEP_DIAMOND = '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"


def corner_diamond(value: int, n: int = 10, **chern) -> str:
    """Diamond file text with h[0][n] = h[n][0] = value, the diagonal ends 1
    and zeros elsewhere.  With value = 10**4299 - 1 the entries parse, but
    the defect, 50 * value, has 4301 digits: past the digit limit of str()."""
    h = [[0] * (n + 1) for _ in range(n + 1)]
    h[0][0] = h[n][n] = 1
    h[0][n] = h[n][0] = value
    return json.dumps({"n": n, "h": h, **chern})


class _Stream(io.StringIO):
    def __init__(self, tty: bool):
        super().__init__()
        self._tty = tty

    def isatty(self) -> bool:
        return self._tty


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    output: str
    stderr: str


def run_cli(args, tty: bool = False) -> CliResult:
    """Run `fanocheck ARGS` in process, with stdout (a terminal if tty)
    and stderr captured, and the exit code of the SystemExit main ends in."""
    out, err = _Stream(tty), _Stream(False)
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([str(a) for a in args])
    return CliResult(exc.value.code, out.getvalue(), err.getvalue())


def oracle_hyperplane(points):
    """(primitive normal, offset) of the hyperplane through n points in Z^n,
    via Fraction Gaussian elimination on [v | -1]; None if degenerate."""
    n = len(points[0])
    m = [[Fraction(x) for x in p] + [Fraction(-1)] for p in points]
    cols = n + 1
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    if r != n:
        return None
    free = next(c for c in range(cols) if c not in pivots)
    z = [Fraction(0)] * cols
    z[free] = Fraction(1)
    for i, c in enumerate(pivots):
        z[c] = -m[i][free]
    den = 1
    for x in z:
        den = lcm(den, x.denominator)
    zi = [int(x * den) for x in z]
    g = 0
    for x in zi:
        g = gcd(g, x)
    zi = [x // g for x in zi]
    return tuple(zi[:n]), zi[n]


def oracle_facets(vertices):
    """Brute-force facet set: every n-subset's hyperplane that has all
    vertices on one side, oriented to <= and deduplicated."""
    n = len(vertices[0])
    out = set()
    for subset in combinations(vertices, n):
        plane = oracle_hyperplane(subset)
        if plane is None:
            continue
        u, c = plane
        values = [sum(a * b for a, b in zip(u, v)) for v in vertices]
        if all(val <= c for val in values):
            out.add((u, c))
        elif all(val >= c for val in values):
            out.add((tuple(-a for a in u), -c))
    return out


def oracle_segment_interior(a, b):
    """Count lattice points strictly between a and b by scanning the
    bounding box; only sensible for small coordinates."""
    diff = [y - x for x, y in zip(a, b)]
    count = 0
    for p in product(*[range(min(x, y), max(x, y) + 1) for x, y in zip(a, b)]):
        if p == tuple(a) or p == tuple(b):
            continue
        step = [y - x for x, y in zip(a, p)]
        if any(
            step[i] * diff[j] != step[j] * diff[i]
            for i in range(len(diff))
            for j in range(len(diff))
        ):
            continue
        k = next(i for i, x in enumerate(diff) if x)
        if 0 < Fraction(step[k], diff[k]) < 1:
            count += 1
    return count


def oracle_det(rows):
    """Permutation-expansion determinant (for small sizes)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def product_f_vector(f_a, f_b):
    """f-vector of a product polytope from the factors' f-vectors."""
    out = [0] * (len(f_a) + len(f_b) - 1)
    for i, fa in enumerate(f_a):
        for j, fb in enumerate(f_b):
            out[i + j] += fa * fb
    return tuple(out)


def random_symmetric_diamond(rng: random.Random, max_n=6, max_entry=50) -> HodgeDiamond:
    """Random Hodge-symmetric, odd-vanishing diamond with h[0][0] = 1.

    No Serre symmetry is imposed, so builders must tolerate the warning.
    """
    n = rng.randint(1, max_n)
    h = [[0] * (n + 1) for _ in range(n + 1)]
    h[0][0] = 1
    for p in range(n + 1):
        for q in range(p, n + 1):
            if (p + q) % 2 or (p, q) == (0, 0):
                continue
            val = rng.randint(0, max_entry)
            h[p][q] = h[q][p] = val
    return HodgeDiamond.from_table(h)


def random_unimodular(n: int, rng: random.Random, steps: int = 8):
    """Random element of GL(n, Z) as a list of rows, via elementary moves."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        move = rng.randrange(3)
        if n == 1:
            break
        i, j = rng.sample(range(n), 2)
        if move == 0:
            k = rng.randint(-2, 2)
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif move == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def apply_matrix(P: FanoPolytope, m) -> FanoPolytope:
    """Image of P under the integer matrix m (rows act on column vectors)."""
    verts = tuple(
        tuple(sum(row[k] * v[k] for k in range(P.dim)) for row in m)
        for v in P.vertices
    )
    return FanoPolytope(P.dim, verts)


@pytest.fixture
def rng():
    return random.Random(20240817)
