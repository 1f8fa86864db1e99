"""Start one child process, wait for it, and read its own resource use.

`os.wait4` returns the rusage of the one child it reaped, so CPU time
and peak RSS belong to that process alone (RUSAGE_CHILDREN would give
the maximum over every child ever waited for).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")


def child_env():
    """The library from this checkout, with a fixed hash seed so that
    counts and set iteration orders repeat across processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argv(args):
    """The command line tool, untraced."""
    return [sys.executable, "-m", "maxitive.cli", *args]


def child_argv(*args):
    """A mode of the benchmark's own child runner (child.py)."""
    return [sys.executable, CHILD, *args]


@dataclass
class Finished:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run(argv, stdout_path, timeout_s):
    """Run argv with stdout sent to stdout_path and stderr discarded.
    A child still running after timeout_s is killed; its exit code is
    then negative."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)
