"""Run one CLI job in a forked child of an interpreter that imported the
library, with a wall-clock limit.

Forking after the import gives every job the library state a fresh
``rrbgroups`` process has: the parent never runs a job, so no cache a job
fills is visible to the next one.  This keeps holding whatever caches the
library grows, because it does not rely on clearing them by name.
"""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import sys
import time
import traceback
from typing import Callable, List, NamedTuple, Optional

# A job that dies with an unexpected Python exception exits with this code.
EXIT_CRASH = 70
# Address-space cap of a job process; no job of the benchmark comes near it.
MEMORY_CAP_BYTES = 2 << 30


class JobResult(NamedTuple):
    exit_code: Optional[int]  # None when the job was killed
    killed: bool
    latency_s: float          # the job's own time; the time limit if killed
    peak_rss_mb: float


def run_job(argv: List[str], out_path: str, limit_s: float,
            child_hook: Optional[Callable[[], Callable[[], None]]] = None) -> JobResult:
    """Run ``rrbgroups.cli.main(argv)`` in a child; stdout goes to out_path.

    The latency is the time ``cli.main`` takes in the child, written to
    ``out_path + ".time"``: fork, exit and the wait are the harness's cost,
    not the job's, and they vary most with load on the machine.  The import
    a real CLI call pays is measured on its own as setup time.

    ``child_hook`` runs in the child before the job; the function it returns
    runs after the job, before the child exits (the tracer uses this pair).
    A job still running after ``limit_s`` seconds is killed.
    """
    from rrbgroups import cli

    time_path = out_path + ".time"
    with contextlib.suppress(FileNotFoundError):
        os.remove(time_path)  # a stale time must not stand in for this job's
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = EXIT_CRASH
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)  # SIGALRM kills
            resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
            out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            err_fd = os.open(out_path + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(out_fd, 1)
            os.dup2(err_fd, 2)
            start = time.perf_counter()  # a hook's own set-up counts as job time
            finish = child_hook() if child_hook else None
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
            took = time.perf_counter() - start
            sys.stdout.flush()
            if finish:
                finish()
            with open(time_path, "w", encoding="utf-8") as fh:
                fh.write(repr(took))
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if os.WIFSIGNALED(status):
        return JobResult(None, True, limit_s, peak_mb)
    try:
        with open(time_path, encoding="utf-8") as fh:
            latency = float(fh.read())
    except (OSError, ValueError):
        latency = limit_s  # the job died before it could report
    return JobResult(os.WEXITSTATUS(status), False, latency, peak_mb)
