"""Check a `fanocheck` JSON report against the oracle's expected entries.

An operation is one entry of a batch, or one `check` call.  It fails if
the process crashed, if its entry is missing, or if any checked field
differs from the oracle.  A crash is read from the output, never from the
exit code alone: an uncaught exception exits with 1, the same code as an
identity violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import PurePath

from workloads import AllTrue, Entry, IfPresent

_MISSING = object()


def mismatches(expected, actual, where: str = "") -> list[str]:
    """Differences between an expected entry (or part of one) and the report."""
    if expected is AllTrue:
        if not isinstance(actual, dict) or not actual or not all(v is True for v in actual.values()):
            return [f"{where}: expected all true, got {actual!r}"]
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        out = []
        for key, exp in expected.items():
            if key == "error_type":
                err = actual.get("error")
                if not isinstance(err, str) or not err.startswith(exp + ":"):
                    out.append(f"{where}.error: expected {exp}: ..., got {err!r}")
                continue
            got = actual.get(key, _MISSING)
            if isinstance(exp, IfPresent):
                if got is _MISSING:
                    continue
                exp = exp.value
            if got is _MISSING:
                out.append(f"{where}.{key}: missing")
            else:
                out += mismatches(exp, got, f"{where}.{key}")
        return out
    # bool is an int subclass: compare types too, so True never passes for 1.
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []


def expected_exit(entries: list[Entry]) -> dict:
    statuses = [e.expected["status"] for e in entries]
    ok = statuses.count("ok")
    violations = statuses.count("identity_violation")
    errors = len(statuses) - ok - violations
    exit_status = 2 if errors else 1 if violations else 0
    return {
        "total": len(statuses),
        "ok": ok,
        "identity_violations": violations,
        "errors": errors,
        "exit_status": exit_status,
    }


@dataclass
class Verdict:
    """Outcome of one child process: operations attempted and failed.

    `wrong` is set when the program printed an answer that differs from the
    oracle; a crash fails its operations without making any answer wrong.
    """

    attempted: int
    failed: int = 0
    wrong: bool = False
    notes: list[str] = field(default_factory=list)

    def fail_all(self, note: str, wrong: bool) -> "Verdict":
        self.failed = self.attempted
        self.wrong = self.wrong or wrong
        self.notes.append(note)
        return self


def judge(entries: list[Entry], stdout: str, stderr: str, exit_code: int) -> Verdict:
    """Compare one child's report with the expected entries."""
    v = Verdict(attempted=len(entries))
    if not stdout.strip() or "Traceback (most recent call last)" in stderr:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return v.fail_all(f"crash (exit {exit_code}): {tail[0]}", wrong=False)
    try:
        report = json.loads(stdout)
        rows = report["entries"]
        aggregate = report["aggregate"]
    except (ValueError, KeyError, TypeError):
        return v.fail_all("stdout is not a JSON report", wrong=True)
    if not isinstance(rows, list) or len(rows) != len(entries):
        return v.fail_all(
            f"report has {len(rows) if isinstance(rows, list) else '?'} entries, "
            f"expected {len(entries)}",
            wrong=True,
        )
    want = expected_exit(entries)
    agg_diff = mismatches(want, aggregate, "aggregate")
    if exit_code != want["exit_status"]:
        agg_diff.append(f"exit code {exit_code}, expected {want['exit_status']}")
    if agg_diff:
        return v.fail_all("; ".join(agg_diff[:3]), wrong=True)

    by_name = {}
    for row in rows:
        name = row.get("name") if isinstance(row, dict) else None
        by_name[PurePath(str(name)).name] = row
    for e in entries:
        row = by_name.get(e.filename)
        diff = ["missing"] if row is None else mismatches(e.expected, row, e.filename)
        if diff:
            v.failed += 1
            v.wrong = True
            if len(v.notes) < 5:
                v.notes.append(f"{e.filename}: {diff[0]}")
    return v
