"""The measuring side of BENCH_e2e: server lifecycle, raw client, /proc.

Load shape (why, in ``README.md``): closed loop, ONE keep-alive connection,
a single-threaded raw-socket client sending pre-encoded bytes — no
``http.client``, no threads, no JSON decode between the two clock reads.
Client and server main process share one CPU; pool workers are moved to the
others after warm-up.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
_TICKS = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# CPU placement
# ---------------------------------------------------------------------------

def pick_cpus() -> "tuple[int, list[int]]":
    """``(shared cpu, the rest)``: the highest-numbered allowed CPU hosts the
    client and the server's main process; workers get what remains."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[:-1]


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants, by scanning /proc for ppids."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # "pid (comm) state ppid ..." — comm may contain spaces.
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def repin(pids: Sequence[int], cpus: Sequence[int]) -> None:
    """Move every thread of ``pids`` onto ``cpus`` (no-op without spare CPUs)."""
    if not cpus:
        return
    for pid in pids:
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(tid), cpus)
        except OSError:
            continue  # the process ended between the scan and the call


def cpu_seconds(pids: Sequence[int]) -> float:
    """utime + stime summed over ``pids`` (clock ticks -> seconds)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def pss_mb(pids: Sequence[int]) -> float:
    """Sum of Pss over ``pids``: shared-memory pages (the page segments every
    worker maps) are split between their mappers instead of counted once per
    worker.  Falls back to VmRSS where ``smaps_rollup`` is unreadable."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
                for line in handle:
                    if line.startswith(b"Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            try:
                with open(f"/proc/{pid}/status", "rb") as handle:
                    for line in handle:
                        if line.startswith(b"VmRSS:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
    return total_kb / 1024.0


def live_segments(publisher_pid: int) -> int:
    """Page segments ``publisher_pid`` has linked in /dev/shm right now."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return 0
    return sum(name.startswith(f"repro-pg-{publisher_pid}-") for name in names)


# ---------------------------------------------------------------------------
# The raw client
# ---------------------------------------------------------------------------

class Client:
    """One keep-alive connection; ``exchange`` is the timed primitive."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def exchange(self, raw: bytes) -> "tuple[bool, bytes]":
        """Send one request, read one reply: ``(status is 200, body)``."""
        sock, buffer = self.sock, self._buffer
        sock.sendall(raw)
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(262144)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head = bytes(buffer[:end])
        at = head.find(b"Content-Length: ")
        length = int(head[at + 16:head.find(b"\r\n", at)]) if at >= 0 else 0
        total = end + 4 + length
        while len(buffer) < total:
            chunk = sock.recv(262144)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        body = bytes(buffer[end + 4:total])
        del buffer[:total]
        return head.startswith(b"HTTP/1.1 200"), body

    def get_json(self, path: str) -> Any:
        ok, body = self.exchange(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1"))
        if not ok:
            raise RuntimeError(f"GET {path} failed: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The measured configuration, pinned: a fixed hash seed, and the plan
    verifier off as in production (the test suite's conftest exports it)."""
    return dict(os.environ, PYTHONHASHSEED="0", REPRO_VERIFY_PLANS="0")


class ServerProcess:
    """Spawn ``serve.py``, wait for READY; ``close`` SIGTERMs and reaps it."""

    def __init__(self, workload: str, cpu: int, data_scale: float) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.stderr_path = OUT_DIR / f"server-{workload}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--workload", workload,
             "--cpu", str(cpu), "--data-scale", repr(data_scale)],
            stdout=subprocess.PIPE, stderr=self._stderr, env=child_env(),
            cwd=str(HERE))
        try:
            line = self.proc.stdout.readline()
            if not line.startswith(b"READY "):
                raise RuntimeError(
                    f"server did not come up (exit {self.proc.poll()}): "
                    + self.stderr_path.read_text(errors="replace")[-2000:])
            ready = json.loads(line[6:])
        except BaseException:
            self.close()
            raise
        self.pid: int = ready["pid"]
        self.port: int = ready["port"]
        self.datagen_s: float = ready["datagen_s"]

    def stderr_lines(self) -> int:
        with open(self.stderr_path, "rb") as handle:
            return sum(1 for _ in handle)

    def close(self) -> int:
        """Stop the server and wait for it; returns its exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode


# ---------------------------------------------------------------------------
# The machine-speed probe
# ---------------------------------------------------------------------------
#
# This sandbox's vCPUs drift by +-25% over tens of seconds (neighbours on
# the host), which no run length a driver can afford averages out: ten
# identical hot-read runs spread 14% (IQR/median) in raw requests/s.  The
# drift is a common factor on everything the CPU does, so the harness
# measures it — a fixed slice of stdlib-only work, run on the shared CPU
# between requests — and reports every time-based metric *at reference
# speed*: time x PROBE_REF_S / probe time.  The probe touches no repository
# code, so no change to the program can move it; only the machine can.
# ``harness.probe_us`` and the ``client.raw_*`` metrics keep the uncalibrated
# story visible.

PROBE_EVERY_S = 0.02
#: What one probe takes on this sandbox in its fast phase; calibrated
#: metrics read as if the whole run had happened at that speed.
PROBE_REF_S = 70e-6
_PROBE_ROWS = [[i, f"name{i}", i * 0.5] for i in range(64)]


def _probe_body() -> None:
    acc = 0
    for i in range(600):
        acc += i * i % 7
    json.loads(json.dumps(_PROBE_ROWS))


def probe() -> float:
    """Seconds for a bytecode loop plus a JSON round trip, on warm caches:
    an untimed pass runs first, so the reading does not depend on what ran
    on the CPU just before (a 30 ms query evicts more than a 20 us hit)."""
    _probe_body()
    start = time.perf_counter()
    _probe_body()
    return time.perf_counter() - start


def speed_factor(probes: Sequence[float]) -> float:
    """Multiply a measured time by this to read it at reference speed."""
    return PROBE_REF_S / statistics.median(probes) if probes else 1.0


# ---------------------------------------------------------------------------
# The measured window
# ---------------------------------------------------------------------------

@dataclass
class Window:
    """What one closed-loop pass over a request sequence observed."""

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    warned: int = 0                   # replies carrying engine-fallback warnings
    kept: dict[int, bytes] = field(default_factory=dict)
    peak_pss_mb: float = 0.0
    #: slice boundaries, about 1 s apart, each at a request boundary:
    #: (time, cumulative server-tree CPU seconds, requests completed)
    marks: list[tuple[float, float, int]] = field(default_factory=list)
    #: (time, seconds one speed probe took), about every PROBE_EVERY_S
    probes: list[tuple[float, float]] = field(default_factory=list)


#: How a reply with no engine-fallback warning ends (``to_payload`` puts
#: ``warnings`` last): a suffix test instead of a JSON decode on the clock.
_NO_WARNINGS = b'"warnings": []}'


def run_window(client: Client, encoded: Sequence[bytes], order: Sequence[int],
               is_read: Sequence[bool], keep: "set[int]", tree: Sequence[int],
               deadline_s: float) -> Window:
    """Send ``order`` back to back.  *Between* requests (the client is the
    only thread there is): a speed probe every 20 ms, and once a second a
    slice mark — the server tree's CPU time and Pss from /proc.

    ``keep`` names the positions whose reply bodies are retained for the
    off-clock correctness checks.  Past ``deadline_s`` the pass stops early
    (a guard for the driver's wall limit, not a normal exit).
    """
    window = Window()
    starts, ends, oks = window.starts, window.ends, window.ok
    exchange, clock = client.exchange, time.perf_counter
    window.peak_pss_mb = pss_mb(tree)
    begin = clock()
    window.marks.append((begin, cpu_seconds(tree), 0))
    next_mark = begin + 1.0
    next_probe = begin
    for position, index in enumerate(order):
        start = clock()
        ok, body = exchange(encoded[index])
        end = clock()
        starts.append(start)
        ends.append(end)
        oks.append(ok)
        if is_read[index] and not body.endswith(_NO_WARNINGS):
            window.warned += 1
        if position in keep:
            window.kept[position] = body
        if end >= next_probe:
            window.probes.append((end, probe()))
            next_probe = clock() + PROBE_EVERY_S
        if end >= next_mark:
            window.peak_pss_mb = max(window.peak_pss_mb, pss_mb(tree))
            now = clock()
            window.marks.append((now, cpu_seconds(tree), position + 1))
            next_mark = now + 1.0
            if now - begin > deadline_s:
                print(f"# window cut at {position + 1}/{len(order)} requests: "
                      f"{deadline_s:.0f} s deadline", file=sys.stderr)
                break
    window.marks.append((clock(), cpu_seconds(tree), len(ends)))
    window.peak_pss_mb = max(window.peak_pss_mb, pss_mb(tree))
    return window


@dataclass
class Slice:
    """One ~1 s stretch of the window, read at reference speed."""

    factor: float          # reference-speed factor from this slice's probes
    first: int             # positions [first, last) completed in the slice
    last: int
    throughput: float      # requests/s, calibrated
    cpu_ms_per_req: float  # server-tree CPU per request, calibrated


def slices_of(window: Window) -> list[Slice]:
    """The window's whole slices (a final stub under 0.5 s is folded into
    its predecessor), each with its own probe-derived speed factor."""
    marks = list(window.marks)
    if len(marks) > 2 and marks[-1][0] - marks[-2][0] < 0.5:
        del marks[-2]
    run_factor = speed_factor([took for _at, took in window.probes])
    result = []
    at = 0
    probes = window.probes
    for (t0, cpu0, n0), (t1, cpu1, n1) in zip(marks, marks[1:]):
        took = []
        while at < len(probes) and probes[at][0] < t1:
            took.append(probes[at][1])
            at += 1
        factor = speed_factor(took) if len(took) >= 5 else run_factor
        done = n1 - n0
        if done == 0:
            continue
        result.append(Slice(
            factor=factor, first=n0, last=n1,
            throughput=done / ((t1 - t0) * factor),
            cpu_ms_per_req=(cpu1 - cpu0) * factor * 1e3 / done))
    return result


def calibrated_ms(window: Window, slices: Sequence[Slice]) -> list[float]:
    """Per-position latency in ms at reference speed; a failed reply misses
    every latency figure, so it reads +inf."""
    out = [float("inf")] * len(window.ends)
    for piece in slices:
        for p in range(piece.first, piece.last):
            if window.ok[p]:
                out[p] = ((window.ends[p] - window.starts[p])
                          * piece.factor * 1e3)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartile_spread(values: Sequence[float]) -> float:
    """p75 / p25 of ``values`` (1.0 = perfectly steady)."""
    if len(values) < 4:
        return 1.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 / q1 if q1 > 0 else 0.0
