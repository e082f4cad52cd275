"""Shared plumbing: exact order statistics, child processes of the
program under test, leak checks and the host stamp."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: /dev/shm name prefixes of the program's shared segments (exchange
#: slabs and compiled tables); any left behind by a run is a leak.
SHM_PREFIXES = ("repro_fx_", "repro_tbl_")


class CheckFailed(Exception):
    """An output, accounting or leak check failed."""


def check(condition: bool, message: str, failures: List[str]) -> bool:
    if not condition:
        failures.append(message)
    return bool(condition)


# ----------------------------------------------------------------------
# Exact order statistics
# ----------------------------------------------------------------------


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q <= 1``) of the raw samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    return float(ordered[mid] if n % 2 else
                 (ordered[mid - 1] + ordered[mid]) / 2.0)


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Mean and p50/p90/p99 with the sample count and how many lie
    beyond p99."""
    p99 = quantile(samples, 0.99)
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": quantile(samples, 0.50),
        "p90": quantile(samples, 0.90),
        "p99": p99,
        "beyond_p99": sum(1 for x in samples if x > p99),
        "max": max(samples),
    }


# ----------------------------------------------------------------------
# Children of the program under test
# ----------------------------------------------------------------------


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment for the program under test: the checkout's sources,
    temp files inside the run's scratch dir, no inherited caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_FLIGHT_DIR", None)
    return env


class Child:
    """One child process in its own session; stderr is drained by a
    thread so the child never blocks on a full pipe, and its lines are
    searchable while it runs."""

    def __init__(self, argv: List[str], tmp: Path,
                 stdin: Optional[bytes] = None):
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=child_env(tmp),
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.stderr_lines: List[str] = []
        self._cond = threading.Condition()
        self._out: List[bytes] = []
        self._threads = [
            threading.Thread(target=self._pump_err, daemon=True),
            threading.Thread(target=self._pump_out, daemon=True),
        ]
        for t in self._threads:
            t.start()
        if stdin is not None:
            try:
                self.proc.stdin.write(stdin)
                self.proc.stdin.close()
            except BrokenPipeError:
                pass

    def _pump_err(self) -> None:
        for raw in self.proc.stderr:
            with self._cond:
                self.stderr_lines.append(raw.decode(errors="replace"))
                self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def _pump_out(self) -> None:
        self._out.append(self.proc.stdout.read())

    def wait_for_line(self, needle: str, timeout: float) -> str:
        """The first stderr line containing ``needle``."""
        deadline = time.monotonic() + timeout
        seen = 0
        with self._cond:
            while True:
                for line in self.stderr_lines[seen:]:
                    if needle in line:
                        return line
                seen = len(self.stderr_lines)
                left = deadline - time.monotonic()
                if left <= 0 or self.proc.poll() is not None:
                    raise CheckFailed(
                        f"child never printed {needle!r}; stderr tail: "
                        + "".join(self.stderr_lines[-10:])
                    )
                self._cond.wait(min(left, 0.1))

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL the whole session if
        it overstays; returns the child's exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def wait(self, timeout: float) -> int:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_group(self.pgid)
            code = self.proc.wait(timeout=10)
        for t in self._threads:
            t.join(timeout=10)
        return code

    @property
    def stdout(self) -> str:
        return b"".join(self._out).decode(errors="replace")


def kill_group(pgid: int) -> bool:
    """SIGKILL every process left in a session; True if any was."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        return True
    except ProcessLookupError:
        return False


def run_child_json(argv: List[str], tmp: Path, payload: dict,
                   timeout: float, pgids: List[int]) -> dict:
    """Run a child to completion, feeding ``payload`` as JSON on stdin;
    returns the JSON object on its last stdout line.  The child's
    session id goes into ``pgids`` for the leak check."""
    child = Child(argv, tmp, stdin=json.dumps(payload).encode())
    pgids.append(child.pgid)
    code = child.wait(timeout)
    lines = child.stdout.strip().splitlines()
    if code != 0 or not lines:
        raise CheckFailed(
            f"{' '.join(argv[-2:])} exited {code}: "
            + "".join(child.stderr_lines[-15:])
        )
    out = json.loads(lines[-1])
    out["_spawned"] = child.started
    return out


def children_peak_rss_mib() -> float:
    """Highest RSS of any waited-for descendant (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Leak checks
# ----------------------------------------------------------------------


def shm_segments() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith(SHM_PREFIXES)}


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def leak_check(pgids: Iterable[int], tmp: Path, shm_before: set,
               failures: List[str]) -> None:
    """Fail on any surviving child process, leftover file in the run's
    scratch dir (spill dirs included) or new /dev/shm segment."""
    for pgid in set(pgids):
        # a group that is still draining gets a moment before it counts
        deadline = time.monotonic() + 5.0
        while group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if group_alive(pgid):
            kill_group(pgid)
            failures.append(f"leak: process group {pgid} outlived the run")
    leftovers = sorted(
        str(p.relative_to(tmp)) for p in tmp.rglob("*")
    ) if tmp.exists() else []
    check(not leftovers, f"leak: files left in scratch dir: {leftovers[:5]}",
          failures)
    leaked = sorted(shm_segments() - shm_before)
    check(not leaked, f"leak: /dev/shm segments left: {leaked[:5]}",
          failures)


# ----------------------------------------------------------------------
# Host and commit stamp
# ----------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the program's sources, which identifies the code
    under test in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_stamp() -> Dict[str, object]:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def prepare_import_path() -> None:
    """Let the benchmark process import the checkout's package for its
    in-process checks and replays."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
