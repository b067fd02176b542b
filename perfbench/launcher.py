"""Spawn the benchmark's children from a small process and report each one's
own wall time and rusage.

Linux folds the RSS high-water mark of the address space a process leaves at
exec into that process's rusage; for a child spawned with vfork that address
space is its parent's.  A child spawned by the benchmark's main process,
which holds phantom volumes during set-up, would report that process's peak
as its own.  This launcher imports nothing heavy, so ``ru_maxrss`` from
``os.wait4`` is the child's own peak.

Protocol: one JSON request per stdin line, ``{"argv": [...], "log": path}``;
one JSON reply per stdout line with ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and
``exit_code``.  The launcher exits when stdin closes.  ``Launcher`` is the
client the benchmark uses.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

TIMEOUT_S = 150.0


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Launcher:
    """Client side: starts the launcher process and sends it spawn requests."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(root), cwd=root, text=True)

    def spawn(self, argv: list[str], log: Path) -> SimpleNamespace:
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return SimpleNamespace(**json.loads(reply))

    def close(self, ok: bool) -> None:
        """Ends the launcher; without ``ok`` it also kills a running child."""
        if not ok:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def spawn(argv: list[str], log: str) -> dict:
    start = time.perf_counter()
    with open(log, "ab") as out:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 returns this child's own rusage; RUSAGE_CHILDREN would be
            # a running maximum over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "exit_code": proc.returncode,
    }


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(spawn(req["argv"], req["log"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
