"""Starts the benchmark's child processes from a small process of its own.

A child's peak resident memory (`ru_maxrss`) also counts the memory of the
process it was forked from, up to the moment it calls exec. Forking from
the benchmark process, which holds inputs and results, would add that to
every child's figure; this process holds next to nothing.

Protocol: one JSON request per line on stdin,
`{"cmd": [...], "env": {...}, "cwd": "...", "stderr": "path"}`, answered by
one JSON line on stdout, `{"seconds": s, "maxrss_kb": k, "code": c}`. The
time runs from just before the child is started until it has been reaped.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                request["cmd"], env=request["env"], cwd=request["cwd"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "maxrss_kb": usage.ru_maxrss, "code": code}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
