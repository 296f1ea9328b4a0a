"""Start benchmark children from a small process and report their resource use.

Reads one JSON request per line on stdin:
    {"argv": [...], "cwd": "...", "env": {...}, "timeout": seconds}
runs it with stdout and stderr going to files of those names in cwd, and
writes one JSON reply per line: {"wall_s", "cpu_s", "rss_mb", "code"}.
It exits when stdin closes.

A child's ru_maxrss also covers the memory of the process that started
it: exec keeps the starting address space's high-water mark.  The
benchmark holds every input and parses every report, so children are
started from here, where that mark stays below any fanocheck child's.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv, cwd, env, timeout) -> dict:
    with open(os.path.join(cwd, "stdout"), "wb") as out, open(
        os.path.join(cwd, "stderr"), "wb"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "code": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["cwd"], req["env"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
