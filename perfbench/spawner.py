"""Runs benchmark processes on request and reports their wall time and rusage.

Linux carries a child's max-RSS over from the process it was forked from,
so ops forked from ``run.py`` (which holds numpy, the package and the
reference outputs) would report its peak as their own.
This small process forks them instead.  Protocol: one JSON line on stdin,
``{"cmd": [...], "stderr": path}``, per process to run; one JSON line back,
``{"code", "wall_s", "cpu_s", "maxrss_kb"}``, once it has exited.  The
processes inherit this one's working directory and environment.
"""
import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }), flush=True)


if __name__ == "__main__":
    main()
