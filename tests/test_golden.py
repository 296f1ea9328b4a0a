"""Golden reports: every fixture, corpus entry and ladder polytope must give
the same JSON report, byte for byte, as when the golden file was written.

Each report is `run_check(...).to_dict()` serialised as the CLI does it.
Regenerate the file only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

from fanocheck import dim2_corpus, dumps_polytope, gen_direct_sum, gen_pn, run_check

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


def current_reports(workdir: Path) -> dict[str, dict]:
    """Label -> report dict for every golden case; generated polytopes are
    written under workdir and named by their label."""
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
    return out


def test_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    current = current_reports(tmp_path)
    assert sorted(current) == sorted(golden)
    changed = [k for k in golden if _serialise(current[k]) != _serialise(golden[k])]
    assert not changed, f"reports differ from the golden file: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = current_reports(Path(tmp))
    GOLDEN.write_text(_serialise(reports) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
