"""Run one `fanocheck` command in this process, with a span around each layer.

Usage: python3 trace_child.py SRC_DIR TRACE_OUT COMMAND ARGS...

The report goes to stdout as usual.  When the command ends, the per-layer
metrics and the raw spans are written to TRACE_OUT as JSON.
"""

import sys
import time


def main() -> None:
    src, trace_out, *cli_args = sys.argv[1:]
    sys.path.insert(0, src)
    # Timed before anything else is imported, so it is the cost of the
    # import on top of a bare interpreter.
    t0 = time.perf_counter_ns()
    import fanocheck.cli as cli

    import_ns = time.perf_counter_ns() - t0

    import json

    from fanocheck import diamond, identity, lattice, pipeline
    from tracer import Tracer, install

    tr = Tracer()
    metrics = install(tr, cli, diamond, identity, lattice, pipeline)
    start = time.perf_counter_ns()
    code = 0
    try:
        cli.main(args=cli_args, prog_name="fanocheck")
    except SystemExit as exc:
        code = exc.code
    finally:
        total_ns = time.perf_counter_ns() - start
        out = metrics()
        out["cli.import_s"] = import_ns / 1e9
        out["trace.total_s"] = total_ns / 1e9
        with open(trace_out, "w") as fh:
            json.dump({"metrics": out, "spans": tr.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
