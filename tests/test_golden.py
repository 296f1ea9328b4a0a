"""Golden reports: every fixture, corpus entry, ladder polytope and seeded
diamond file must give the same JSON report, byte for byte, as when the
golden file was written.

Each report is `run_check(...).to_dict()` serialised as the CLI does it.
Regenerate the file only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
import sys
import tempfile
from pathlib import Path

from fanocheck import dim2_corpus, dumps_polytope, gen_direct_sum, gen_pn, run_check
from fanocheck.pipeline import dumps_json

from test_acceptance import product_family

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
# Not under fixtures/: batch tests count every *.json there as an input.
GOLDEN = ROOT / "tests" / "golden_reports.json"


def _serialise(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _generated_polytopes():
    yield from ((f"corpus/{e.name}", e.polytope) for e in dim2_corpus())
    yield from ((f"P{n}", gen_pn(n)) for n in range(1, 9))
    yield from (("x".join(f"P{d}" for d in parts), P) for parts, P in product_family())
    dp6 = next(e.polytope for e in dim2_corpus() if e.name == "Bl3P2")
    yield "dP6xdP6", gen_direct_sum(dp6, dp6)


def _diamond_table(n: int, rng: random.Random, top: int, odd: bool) -> list[list[int]]:
    """Hodge- and Serre-symmetric table with h[0][0] = 1 and entries up to
    top; odd-degree entries vanish unless odd, and then one does not."""
    h = [[None] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(p, n + 1):
            if h[p][q] is not None:
                continue
            if (p, q) == (0, 0):
                v = 1
            elif (p + q) % 2 and not odd:
                v = 0
            else:
                v = rng.choice((0, rng.randint(1, top)))
            for a, b in ((p, q), (q, p), (n - p, n - q), (n - q, n - p)):
                h[a][b] = v
    if odd:
        for a, b in ((0, 1), (1, 0), (n, n - 1), (n - 1, n)):
            h[a][b] = h[a][b] or 1
    return h


def _generated_diamonds():
    """Seeded diamond files for n = 1..10: without Chern numbers, with Chern
    numbers that satisfy the chi identity, with random ones (negative
    c1_cn1 and inequality violations included), and with odd cohomology;
    entries reach 10**20."""
    rng = random.Random(31415)
    for i in range(40):
        n = 1 + i % 10
        kind = i // 10
        h = _diamond_table(n, rng, 10 ** rng.choice((1, 3, 20)), odd=kind == 3)
        obj = {"n": n, "h": h}
        if kind == 1:
            chi = [
                sum((-1) ** (p + q) * x for q, x in enumerate(row))
                for p, row in enumerate(h)
            ]
            c_n = sum(chi)
            twice_c1 = 3 * sum(c * (2 * p - n) ** 2 for p, c in enumerate(chi)) - n * c_n
            obj["c1_cn1"] = twice_c1 // 2 if twice_c1 % 2 == 0 else rng.randint(-50, 50)
            obj["c_n"] = c_n
        elif kind == 2:
            scale = 10 ** rng.choice((1, 20, 21))
            obj["c1_cn1"] = rng.randint(-scale, scale)
            obj["c_n"] = rng.randint(0, scale)
        elif kind == 0 and i % 3 == 0:
            obj["c_n"] = rng.randint(0, 100)  # one Chern number alone is not enough
        yield f"diamond/d{i:02d}", obj


def current_reports(workdir: Path) -> dict[str, dict]:
    """Label -> report dict for every golden case; generated polytopes and
    diamonds are written under workdir and named by their label."""
    out = {}
    for path in sorted(p for p in FIXTURES.iterdir() if p.suffix in (".poly", ".json")):
        rel = path.relative_to(ROOT).as_posix()
        for dual, label in ((False, rel), (True, f"{rel} --dual")):
            report = run_check(path, dual=dual).to_dict()
            report["name"] = rel
            out[label] = report
    for label, P in _generated_polytopes():
        path = workdir / (label.replace("/", "_") + ".poly")
        path.write_text(dumps_polytope(P))
        report = run_check(path).to_dict()
        report["name"] = label
        out[label] = report
    for label, obj in _generated_diamonds():
        path = workdir / (label.replace("/", "_") + ".json")
        path.write_text(json.dumps(obj))
        report = run_check(path).to_dict()
        report["name"] = label
        out[label] = report
    return out


def test_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    current = current_reports(tmp_path)
    assert sorted(current) == sorted(golden)
    changed = [k for k in golden if _serialise(current[k]) != _serialise(golden[k])]
    assert not changed, f"reports differ from the golden file: {changed}"



def test_emitter_matches_json_dumps_on_golden():
    """The CLI writes reports with dumps_json; _serialise stays the
    json.dumps reference it must equal."""
    golden = json.loads(GOLDEN.read_text())
    for label, report in golden.items():
        assert dumps_json(report) == _serialise(report), label
    assert dumps_json(golden) == _serialise(golden)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = current_reports(Path(tmp))
    GOLDEN.write_text(_serialise(reports) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
