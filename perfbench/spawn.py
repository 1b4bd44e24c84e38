"""Start the benchmark's child processes from a small process.

A child's peak RSS (ru_maxrss) starts from its parent's peak RSS at exec, so
children of the benchmark process, which holds numpy and a calibration
table, would all report at least that size. This process stays small, so the
peak RSS of each child it starts is the child's own.

Protocol: one JSON request per stdin line, ``{"cmd", "cwd", "log",
"timeout"}``; one JSON reply per stdout line, ``{"code", "maxrss_kb"}``. The
child's stderr is appended to ``log``. It ends when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading


def run(cmd: list[str], cwd: str, log: str, timeout: float) -> dict:
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["cwd"], request["log"], request["timeout"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
