"""Spawns the benchmark's maxconf children from a process that stays small.

A child's ``ru_maxrss`` also counts the peak of the address space it was
exec'ed from, so children spawned straight from the benchmark (which holds
generated inputs and parsed reports) would report the benchmark's memory.
This launcher imports nothing heavy and runs one child at a time.

Protocol: one JSON request per stdin line, ``{"argv", "stdout", "stderr",
"cwd"}``; one JSON reply per stdout line, ``{"seconds", "status",
"maxrss_kb"}``, where ``seconds`` runs from spawn to exit.  The child gets
this process's environment.  End of input ends the launcher.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": elapsed, "status": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
