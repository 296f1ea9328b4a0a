"""The fanocheck benchmark: one workload, run through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each run writes a fresh copy of the seeded inputs, and each repetition
runs `fanocheck batch --format json` on them in a fresh child process,
measured from outside with os.wait4 (spawner.py).  Every entry of every
report is checked against the oracle in workloads.py.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 the
repetitions alternate a traced child (trace_child.py) and an untraced
one, the per-layer metrics are printed instead, and the spans are written
to .bench_out/.  `--workload all` prints a table of the end-to-end metrics
of every workload.  See README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from oracle import judge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

# Set-up probes before the first repetition; one more follows each one.
SETUP_PROBES = 5
MIN_REPS = 3
# Every child is killed at this many seconds after start, so a run always
# ends well inside three minutes.
HARD_LIMIT_S = 150

# cli.py has no __main__ guard, so `python -m fanocheck.cli` would exit 0
# without doing anything: call the entry point the package declares.
CLI = "from fanocheck.cli import main; main(prog_name='fanocheck')"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "files.parse_s": "s",
    "files.inputs": "count",
    "lattice.hull_s": "s",
    "lattice.hull_subsets": "count",
    "lattice.dual_s": "s",
    "lattice.face_lattice_s": "s",
    "lattice.dual_hull_subsets": "count",
    "lattice.face_lattice_p_s": "s",
    "lattice.faces": "count",
    "invariants.s": "s",
    "invariants.edges": "count",
    "identity.s": "s",
    "diamond.s": "s",
    "pipeline.self_s": "s",
    "pipeline.report_s": "s",
    "pipeline.analyze_hit_ratio": "ratio",
    "pipeline.wasted_misses": "count",
    "cli.import_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Spawner:
    """The small process that starts every child; see spawner.py."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path, deadline: float) -> Child:
        """Run argv in cwd to completion, killing it at the deadline."""
        request = {
            "argv": argv,
            "cwd": str(cwd),
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "timeout": deadline - time.monotonic(),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner exited")
        r = json.loads(reply)
        return Child(
            wall_s=r["wall_s"],
            cpu_s=r["cpu_s"],
            rss_mb=r["rss_mb"],
            code=r["code"],
            stdout=(cwd / "stdout").read_text(errors="replace"),
            stderr=(cwd / "stderr").read_text(errors="replace"),
        )


@dataclass
class Run:
    """Operations of one benchmark run and what the oracle made of them."""

    wl: workloads.Workload
    workdir: Path
    deadline: float
    spawner: Spawner
    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    notes: list[str] = field(default_factory=list)
    _children: int = 0

    def __post_init__(self):
        self.write_inputs()

    def write_inputs(self) -> None:
        """A fresh copy of the inputs, shared by the run's children.

        Batch inputs go to inputs/ and `check` inputs to checks/, because a
        batch scans its whole directory.
        """
        for name, entries in (("inputs", self.wl.entries), ("checks", self.wl.checks)):
            d = self.workdir / name
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
            for e in entries:
                (d / e.filename).write_bytes(e.data)

    def inputs_intact(self) -> bool:
        """True when inputs/ holds exactly the files the run wrote."""
        names = sorted(os.listdir(self.workdir / "inputs"))
        return names == sorted(e.filename for e in self.wl.entries)

    def child_dir(self) -> Path:
        """A new, empty working directory for one child."""
        self._children += 1
        d = self.workdir / f"child{self._children:03d}"
        d.mkdir()
        return d

    def record(self, entries, child: Child) -> None:
        v = judge(list(entries), child.stdout, child.stderr, child.code)
        self.attempted += v.attempted
        self.failed += v.failed
        self.wrong = self.wrong or v.wrong
        self.notes += [n for n in v.notes if n not in self.notes][: max(0, 5 - len(self.notes))]

    def batch(self, argv_head: list[str]) -> tuple[Child, Path]:
        d = self.child_dir()
        argv = argv_head + ["batch", "--format", "json", "--jobs", str(self.wl.jobs), "../inputs"]
        child = self.spawner.run(argv, d, self.deadline)
        self.record(self.wl.entries, child)
        # A file the program left among its inputs must not reach the next child.
        if not self.inputs_intact():
            self.write_inputs()
        return child, d

    def checks(self) -> None:
        """The workload's single-file `check` calls, one operation each."""
        for e in self.wl.checks:
            d = self.child_dir()
            child = self.spawner.run(
                [sys.executable, "-c", CLI, "check", "--format", "json", f"../checks/{e.filename}"],
                d,
                self.deadline,
            )
            self.record([e], child)
            shutil.rmtree(d)

    @property
    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def setup_probe(run: Run) -> float:
    """Wall time of a fresh `batch --format json` on an empty directory."""
    d = run.child_dir()
    (d / "empty").mkdir()
    child = run.spawner.run(
        [sys.executable, "-c", CLI, "batch", "--format", "json", "empty"], d, run.deadline
    )
    try:
        entries = json.loads(child.stdout)["entries"]
    except (ValueError, KeyError, TypeError):
        entries = None
    if entries != [] or child.code != 0:
        raise BenchError(
            f"set-up probe failed (exit {child.code}): "
            f"{(child.stderr.strip().splitlines() or ['no output'])[-1]}"
        )
    shutil.rmtree(d)
    return child.wall_s


def more_reps(reps: list[float], end: float) -> bool:
    """Whether to start another repetition of a run that measures until `end`.

    A repetition starts only if at least half of it, at the median length
    so far, falls before `end`, so a run measures about `seconds` and
    does not overrun by a whole repetition.
    """
    if len(reps) < MIN_REPS:
        return True
    return time.monotonic() + statistics.median(reps) / 2 < end


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics: untraced batch children until `seconds` have passed."""
    setup_probe(run)  # warm-up: the first start in a checkout compiles bytecode
    setup = [setup_probe(run) for _ in range(SETUP_PROBES)]
    walls, cpus, rss, reps = [], [], [], []
    end = time.monotonic() + seconds
    while more_reps(reps, end) and not run.out_of_time:
        start = time.monotonic()
        child, d = run.batch([sys.executable, "-c", CLI])
        shutil.rmtree(d)
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.rss_mb)
        if run.out_of_time:
            break
        run.checks()
        setup.append(setup_probe(run))
        reps.append(time.monotonic() - start)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "_reps": len(walls),
    }


def trace(run: Run, seconds: float, seed: int) -> dict:
    """Per-layer metrics: traced and untraced children, alternating."""
    traced, plain_walls, traced_walls = [], [], []
    spans = []
    setup_probe(run)  # warm-up: the first start in a checkout compiles bytecode
    reps = []
    end = time.monotonic() + seconds
    while more_reps(reps, end) and not run.out_of_time:
        start = time.monotonic()
        head = [sys.executable, str(BENCH / "trace_child.py"), str(SRC), "trace.json"]
        child, d = run.batch(head)
        traced_walls.append(child.wall_s)
        try:
            data = json.loads((d / "trace.json").read_text())
        except (OSError, ValueError):
            raise BenchError("the traced child wrote no trace") from None
        traced.append(data["metrics"])
        spans = data["spans"]
        shutil.rmtree(d)
        child, d = run.batch([sys.executable, "-c", CLI])
        plain_walls.append(child.wall_s)
        shutil.rmtree(d)
        if run.out_of_time:
            break
        run.checks()
        reps.append(time.monotonic() - start)
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
        plain_walls
    )
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{run.wl.name}-seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": run.wl.name,
                "seed": seed,
                "metrics": metrics,
                "reps": traced,
                "span_fields": ["id", "parent", "layer", "thread", "start_ns", "end_ns"],
                "spans": spans,
            }
        )
    )
    metrics["_reps"] = len(traced)
    metrics["_file"] = str(trace_file.relative_to(ROOT))
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    if not (SRC / "fanocheck" / "cli.py").is_file():
        raise BenchError(f"no fanocheck sources under {SRC}")
    wl = workloads.build(name, seed)
    workdir = TMP / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with Spawner() as spawner:
            run = Run(wl, workdir, time.monotonic() + HARD_LIMIT_S, spawner)
            raw = trace(run, seconds, seed) if traced else measure(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    units = PER_LAYER if traced else END_TO_END
    metrics = {k: {"value": raw[k], "unit": u} for k, u in units.items()}
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    lines = [
        f"workload {name}: seed {seed}, {len(wl.entries)} entries + {len(wl.checks)} "
        f"check call(s) per repetition, --jobs {wl.jobs}, {raw['_reps']} repetitions"
        + (f", spans in {raw['_file']}" if traced else "")
    ]
    lines += [f"  {k:28s} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(
        f"  {'fail_frac':28s} {run.failed / run.attempted:.6g} ratio "
        f"({run.failed} of {run.attempted} operations)"
    )
    lines += [f"  failure: {note}" for note in run.notes]
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        rows = []
        for name in workloads.WORKLOADS:
            result, lines = run_workload(name, args.seed, args.seconds, False)
            print("\n".join(lines), flush=True)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            rows.append((name, m, result["failed"] / result["attempted"]))
        print(f"\n{'workload':10s} {'wall_s':>9s} {'cpu_s':>9s} {'peak_rss_mb':>12s} "
              f"{'setup_s':>9s} {'fail_frac':>10s}")
        print(f"{'':10s} {'s':>9s} {'s':>9s} {'MB':>12s} {'s':>9s} {'ratio':>10s}")
        for name, m, fail in rows:
            print(f"{name:10s} {m['wall_s']:9.4f} {m['cpu_s']:9.4f} {m['peak_rss_mb']:12.2f} "
                  f"{m['setup_s']:9.4f} {fail:10.6f}")
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
