"""Running the program: CPU placement, the yardstick that times the
program's CPU, timed child processes, the serve process and its
closed-loop client."""

from __future__ import annotations

import os
import statistics
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from perfbench.workloads import Batch

#: Longest any single program process may run before it is killed.
PROCESS_TIMEOUT_S = 120.0
ANNOUNCE = re.compile(rb"listening on [^:\s]+:(\d+)")


def reference_kernel() -> int:
    """A fixed slice of ordinary interpreter work (dict, str and list
    traffic).  Its CPU time, taken on the program's CPU while the program
    runs, is the unit ("ref") in which the benchmark reports time."""
    table: dict = {}
    total = 0
    for value in range(2500):
        key = "k%d" % (value % 97)
        table[key] = table.get(key, 0) + value
        total += len(str(value))
    return total + len(sorted(table))


class Placement:
    """The program runs on one CPU; the benchmark and its clients on the
    others (on a single CPU, both share it)."""

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.program = cpus[-1]
        self.bench = set(cpus[:-1]) or {cpus[-1]}


class Yardstick:
    """Measures how fast the program's CPU is while the program runs.

    On a shared machine the same work takes up to twice as long from one
    moment to the next, in spells from a tenth of a second to minutes
    (other tenants on the host), which no amount of repetition inside one
    run averages away.  A thread pinned to the program's CPU times
    :func:`reference_kernel` every :data:`PERIOD_S` seconds in thread CPU
    time (so the program's time slices do not count).  A time taken on
    that CPU divided by the kernel's mean time over the same interval is
    a cost in kernel units, in which a host that slows both alike cancels
    out.
    """

    PERIOD_S = 0.05
    #: Samples averaged at least, widening the interval when it holds fewer.
    MIN_SAMPLES = 8

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.times: List[float] = []
        self.costs: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Yardstick":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(self.PERIOD_S):
            started = time.thread_time()
            reference_kernel()
            cost = time.thread_time() - started
            self.times.append(time.perf_counter())
            self.costs.append(cost)

    def ref_s(self, start: float, end: float) -> float:
        """Mean kernel CPU time over [start, end], or over the
        :data:`MIN_SAMPLES` samples nearest to it."""
        times = self.times[:len(self.costs)]
        lo, hi = bisect_left(times, start), bisect_right(times, end)
        if hi - lo < self.MIN_SAMPLES:
            middle = (lo + hi) // 2
            lo = max(0, min(middle - self.MIN_SAMPLES // 2, len(times) - self.MIN_SAMPLES))
            hi = min(len(times), lo + self.MIN_SAMPLES)
        if lo == hi:
            raise RuntimeError("the yardstick took no samples")
        return statistics.fmean(self.costs[lo:hi])


def _spawn(args: List[str], root: Path, cpu: int,
           **kwargs: object) -> Tuple[subprocess.Popen, float]:
    """Start ``python <args>`` from ``root`` on ``cpu``; (process, start time)."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # the child inherits this thread's CPU set
    try:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=root,
                                env=program_env(root), **kwargs)  # type: ignore[call-overload]
    finally:
        os.sched_setaffinity(0, previous)
    return proc, started


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Finished:
    """A child process that ran to completion."""

    code: int
    started: float  # time.perf_counter() at spawn
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def ended(self) -> float:
        return self.started + self.wall_s


def _reap(proc: subprocess.Popen, started: float) -> Finished:
    """Wait for ``proc`` and read its own CPU time and peak RSS (not its
    siblings')."""
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return Finished(proc.returncode, started, wall_s,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_python(root: Path, args: List[str], stdout: Path, cpu: int) -> Finished:
    """Run ``python <args>`` from ``root`` on ``cpu``, stdout to ``stdout``."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        proc, started = _spawn(args, root, cpu, stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            return _reap(proc, started)
        finally:
            timer.cancel()


def import_probe(root: Path, scratch: Path, cpu: int) -> Finished:
    """Spawn-to-imported time of the CLI and the command modules."""
    return run_python(root, ["-c", "import repro.cli, repro.runner.runall, "
                          "repro.analysis.recommend"], scratch / "probe.out", cpu)


class ServeProcess:
    """``repro serve`` (optionally under the traced launcher) on a free
    port, on ``cpu``."""

    def __init__(self, root: Path, cpu: int, launcher: Optional[List[str]] = None) -> None:
        prefix = launcher if launcher is not None else ["-m", "repro"]
        self.proc, self.started = _spawn(
            prefix + ["serve", "--port", "0"], root, cpu,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.port, self.setup_s = self._await_announce()

    def _await_announce(self) -> Tuple[int, float]:
        stream = self.proc.stdout
        assert stream is not None
        seen = b""
        deadline = self.started + 60.0
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break
            seen += chunk
            match = ANNOUNCE.search(seen)
            if match:
                return int(match.group(1)), time.perf_counter() - self.started
        self.proc.kill()
        _reap(self.proc, self.started)
        raise RuntimeError(f"repro serve did not announce its port: {seen!r}")

    def stop(self) -> Finished:
        """SIGTERM, let it drain, and reap it."""
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            assert self.proc.stdout is not None
            self.proc.stdout.read()
            self.proc.stdout.close()
            return _reap(self.proc, self.started)
        finally:
            timer.cancel()


def http_exchange(port: int, request: bytes, timeout: float = 30.0) -> Tuple[int, bytes]:
    """One request on a fresh connection; (status, body) of the reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(request)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def scrape(port: int) -> str:
    request = b"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
    status, body = http_exchange(port, request)
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return body.decode("utf-8")


@dataclass
class Sent:
    batch: Batch
    status: Optional[int]  # None: connection error
    body: bytes
    sent_at: float  # time.perf_counter()
    latency_s: float


@dataclass
class LoadResult:
    started: float  # time.perf_counter()
    sent: List[Sent] = field(default_factory=list)
    wall_s: float = 0.0


def closed_loop(port: int, batches: Iterator[Batch], seconds: float, cpu: int,
                connections: int = 2) -> LoadResult:
    """``connections`` client threads on ``cpu``, each sending its next
    batch only after the previous reply, until ``seconds`` have passed."""
    lock = threading.Lock()
    started = time.perf_counter()
    result = LoadResult(started)
    stop_at = started + seconds

    def client() -> None:
        os.sched_setaffinity(0, {cpu})
        while True:
            with lock:
                if time.perf_counter() >= stop_at:
                    return
                batch = next(batches)
            request = batch.request
            sent_at = time.perf_counter()
            try:
                status: Optional[int]
                status, body = http_exchange(port, request)
            except (OSError, ValueError, IndexError) as exc:
                status, body = None, repr(exc).encode()
            latency = time.perf_counter() - sent_at
            with lock:
                result.sent.append(Sent(batch, status, body, sent_at, latency))

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - started
    return result
