"""Self-test of the benchmark's oracle and crash detection.

    python3 bench/selftest.py

Runs the real CLI once on a few cheap ladder inputs, then shows that each
way an operation can go wrong is counted as failed: a deliberately wrong
oracle value, a crash, a report with the wrong entry count, and the
module invocation that exits 0 without doing anything.  Exits 1 on the
first check that does not hold.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import workloads
from oracle import judge
from run import CLI, TMP, Spawner


def check(label: str, cond: bool) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {label}")
    if not cond:
        sys.exit(1)


def main() -> None:
    wl = workloads.build("ladder", 0)
    cheap = {"P2", "P3", "dP6", "P1xP1"}
    entries = [
        e
        for e in wl.entries
        if e.filename.startswith("x_") or Path(e.filename).stem.split("_", 1)[1] in cheap
    ]
    work = TMP / f"selftest-pid{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    try:
        for e in entries:
            (work / "inputs" / e.filename).write_bytes(e.data)
        deadline = time.monotonic() + 60
        with Spawner() as spawner:
            child = spawner.run(
                [sys.executable, "-c", CLI, "batch", "--format", "json", "inputs"], work, deadline
            )
            module = spawner.run(
                [sys.executable, "-m", "fanocheck.cli", "batch", "--format", "json", "inputs"],
                work,
                deadline,
            )

        v = judge(entries, child.stdout, child.stderr, child.code)
        check(
            f"real report matches the oracle ({v.attempted} entries, {v.failed} failed)",
            v.failed == 0 and not v.wrong,
        )

        bad = dict(entries[0].expected, c_n=entries[0].expected["c_n"] + 1)
        wrong_oracle = [replace(entries[0], expected=bad)] + entries[1:]
        v = judge(wrong_oracle, child.stdout, child.stderr, child.code)
        check(
            f"a wrong oracle value raises fail_frac to {v.failed}/{v.attempted}",
            v.failed == 1 and v.wrong,
        )

        v = judge(entries, "", "Traceback (most recent call last):\nKeyError: 1\n", 1)
        check(
            "a crash fails every entry without calling an answer wrong",
            v.failed == len(entries) and not v.wrong,
        )

        v = judge(entries[1:], child.stdout, child.stderr, child.code)
        check(
            "a report with an unexpected entry count fails every entry",
            v.failed == len(entries) - 1 and v.wrong,
        )

        v = judge(entries, module.stdout, module.stderr, module.code)
        check(
            f"`python -m fanocheck.cli` (exit {module.code}, {len(module.stdout)} bytes out) "
            "counts as all failed, not as fast",
            v.failed == len(entries),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
