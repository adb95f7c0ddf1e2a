"""The processes the benchmark starts: import probes, the work process, servers.

Every process is reaped with ``os.wait4``, which also returns its peak
resident set (on Linux, the largest of the process and the children it
reaped, such as a sweep's pool workers).  Nothing outlives the benchmark.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

PERFBENCH = Path(__file__).resolve().parent

PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import repro.cli\n"
    "from repro.experiments.registry import all_scenarios\n"
    "all_scenarios()\n"
    "print(time.perf_counter() - start, len(sys.modules), flush=True)\n"
)
"""Import ``repro.cli`` and the registry, then report the import time and
how many modules the interpreter holds."""


class BenchmarkError(Exception):
    """A process misbehaved; the run cannot produce a result."""


def reap(proc: subprocess.Popen, timeout: float = 60.0) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); ``(exit code, peak RSS MB)``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
        time.sleep(0.005)


def probe_imports(env: dict, root: Path, starts: int) -> List[Tuple[float, float, int]]:
    """Fresh interpreters that import the CLI and the registry.

    Returns ``(seconds from spawn to ready, in-process import seconds,
    modules loaded)`` per start.  One extra start runs first and is
    discarded: it may compile bytecode that every later start reuses.
    """
    samples = []
    for index in range(starts + 1):
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=root,
            text=True,
        )
        line = proc.stdout.readline()
        ready = time.perf_counter() - began
        proc.stdout.close()
        code, _ = reap(proc)
        if code != 0 or not line:
            raise BenchmarkError("the import probe failed")
        import_seconds, modules = line.split()
        if index:
            samples.append((ready, float(import_seconds), int(modules)))
    return samples


def run_worker(task: dict, env: dict, root: Path, log: Path, timeout: float = 170.0) -> Tuple[dict, float]:
    """Run one ``worker.py`` task; returns its result and its peak RSS in MB."""
    with open(log, "ab") as errors:
        proc = subprocess.Popen(
            [sys.executable, str(PERFBENCH / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=errors,
            env=env,
            cwd=root,
        )
        try:
            proc.stdin.write(json.dumps(task).encode())
            proc.stdin.close()
            output = proc.stdout.read()
        finally:
            proc.stdout.close()
            code, rss = reap(proc, timeout)
    if code != 0:
        raise BenchmarkError(f"the work process exited with {code}; see {log}")
    return json.loads(output.decode().strip().splitlines()[-1]), rss


class Server:
    """A ``repro serve --port 0`` subprocess with its own fresh store."""

    def __init__(self, env: dict, root: Path, store: Path, workers: int, log: Path) -> None:
        self._errors = open(log, "ab")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store", str(store), "--workers", str(workers),
            ],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            stderr=self._errors,
            env=env,
            cwd=root,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_seconds = time.perf_counter() - began
        if "listening" not in line:
            self.stop()
            raise BenchmarkError(f"repro serve did not start; see {log}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.peak_rss_mb: Optional[float] = None

    def stop(self) -> None:
        """Graceful stop (SIGTERM), then reap; records the peak RSS."""
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGTERM)
            _, self.peak_rss_mb = reap(self.proc, timeout=30.0)
        self.proc.stdout.close()
        self._errors.close()


def start_servers(env: dict, root: Path, work: Path, starts: int, workers: int) -> Tuple[Server, List[float]]:
    """Start ``starts + 1`` servers one after another and keep the last.

    The first start is discarded (it may compile bytecode); the setup
    samples are the others' times from spawn to the "listening" line.
    """
    samples = []
    for index in range(starts + 1):
        server = Server(env, root, work / f"store-{index}.sqlite", workers, work / "server.log")
        if index:
            samples.append(server.setup_seconds)
        if index < starts:
            server.stop()
    return server, samples
