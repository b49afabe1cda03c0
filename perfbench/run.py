"""Wire-level benchmark: a real ``repro serve`` driven closed loop.

One run (the form the benchmark record uses)::

    python3 perfbench/run.py --workload drag --seed 1 --seconds 30 --trace 0

prints a human summary on stderr, one ``perfbench-detail {...}`` line and,
as the last line of stdout, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Exit status is 0 only when
every reply, fingerprint and recovery matched the in-process reference.

Steadiness (run each workload N times, one seed per run, in ``--sets``
sets of the same seeds; ``--same-seed`` repeats one seed and asserts that
every exact count repeats bit for bit)::

    python3 perfbench/run.py --repeat 10 --sets 2 --workload drag,explore

See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Timed ops per second of ``--seconds``.  A run executes a fixed op
#: count, so parent and change end in identical states (same journal
#: bytes, same recovery work); the rate only sizes that count.
OPS_PER_SECOND = {"drag": 1000, "restructure": 900, "explore": 450}
#: A run is this many episodes, one after the other: each plans its own
#: sessions, builds them, runs its share of the timed ops, is killed -9
#: and is recovered by the next server.  The host's speed drifts over
#: tens of seconds, so spreading every measurement over the whole run
#: steadies a run's figures more than one long timed phase would.
EPISODES = 6
SETUP_BUILDS = 2      # design builds per episode (the first is timed on)
RECOVER_OPENS = 2     # post-crash opens per session and episode, at
RECOVER_SECONDS = 0.4  # least, and until they took this long (cheap
RECOVER_CAP = 16       # opens get more samples, up to this many)

#: Commands ``SessionClient`` stamps with a request id; the benchmark
#: does the same, so the server's retry-dedup path runs as for users.
MUTATING = frozenset({
    "assign", "assign-many", "what-if-commit", "make-var", "retract",
    "add-constraint", "remove-constraint", "undo", "redo", "checkpoint",
    "close", "define-cell", "define-signal", "declare-delay",
    "add-parameter", "instantiate", "add-net", "connect",
})

#: Units whose values must repeat bit for bit across runs of one seed.
EXACT_UNITS = frozenset({"count", "ratio", "B"})


class BenchError(RuntimeError):
    """The benchmark could not drive the server."""


# ---------------------------------------------------------------------------
# Server process and closed-loop connections
# ---------------------------------------------------------------------------

class Server:
    """One ``repro serve`` subprocess with the defaults users get: file
    store, ``fsync=always``, no ``--island-workers``, no round budget."""

    def __init__(self, root: str, traced: bool, log: Any) -> None:
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py")]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        argv += ["serve", "--root", root, "--port", "0"]
        env = dict(os.environ, PYTHONPATH=SRC)
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=log, env=env, cwd=ROOT,
                                     text=True)
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        #: Interpreter start to the ``listening on`` line.
        self.spawn_s = time.perf_counter() - started
        match = re.search(r"listening on [^\s:]+:(\d+)", line)
        if match is None:
            self.kill()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL (no flush, no atexit) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def shutdown(self, conn: "Conn") -> None:
        try:
            conn.call({"cmd": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            pass
        self.kill()


class Conn:
    """One TCP connection; every request waits for its reply."""

    def __init__(self, port: int, client_id: str) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")
        self.client_id = client_id
        self.next_id = 0

    def encode(self, frame: Dict[str, Any],
               session: Optional[str] = None) -> bytes:
        self.next_id += 1
        message = dict(frame, id=self.next_id)
        if session is not None:
            message["session"] = session
        if frame["cmd"] in MUTATING:
            message["rid"] = f"{self.client_id}:{self.next_id}"
        return json.dumps(message, separators=(",", ":")).encode() + b"\n"

    def loop(self, payloads: List[bytes]
             ) -> Tuple[List[float], List[float], List[bytes]]:
        """Send each pre-encoded request after the previous reply; return
        per-request latencies (s), completion times and raw replies."""
        latencies = [0.0] * len(payloads)
        ends = [0.0] * len(payloads)
        lines: List[bytes] = [b""] * len(payloads)
        write, flush = self.file.write, self.file.flush
        readline, clock = self.file.readline, time.perf_counter
        for index, data in enumerate(payloads):
            started = clock()
            write(data)
            flush()
            lines[index] = readline()
            ends[index] = end = clock()
            latencies[index] = end - started
        return latencies, ends, lines

    def call(self, frame: Dict[str, Any],
             session: Optional[str] = None) -> Dict[str, Any]:
        line = self.loop([self.encode(frame, session)])[2][0]
        if not line:
            raise BenchError("server closed the connection")
        return json.loads(line)

    def result(self, frame: Dict[str, Any],
               session: Optional[str] = None) -> Any:
        reply = self.call(frame, session)
        if not reply.get("ok"):
            raise BenchError(f"{frame['cmd']} failed: {reply.get('error')}")
        return reply["result"]

    def close(self) -> None:
        self.file.close()
        self.sock.close()


# ---------------------------------------------------------------------------
# One server life: set-up, timed phase, kill -9, recovery
# ---------------------------------------------------------------------------

class Tally:
    """Ops compared against the reference, and the ones that disagreed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(f"{label}: {detail}")

    def replies(self, label: str, frames: List[Dict[str, Any]],
                expected: List[Tuple], lines: List[bytes]) -> None:
        from workloads import wire_outcome
        for frame, want, line in zip(frames, expected, lines):
            got = (wire_outcome(frame, json.loads(line)) if line
                   else ("error", "no reply"))
            self.check(label, got == want,
                       f"{frame['cmd']} expected {want} got {got}")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _dirs, names in os.walk(path) for name in names)


def _stats(conn: Conn, plans: List[Any]) -> Counter:
    total: Counter = Counter()
    for plan in plans:
        total.update(conn.result({"cmd": "stats"}, plan.name)["stats"])
    return total


def _check_recovered(conn: Conn, plan: Any, fingerprints: Dict[str, Any],
                     tally: Tally) -> None:
    recovered = conn.result({"cmd": "fingerprint"}, plan.name)
    tally.check(f"recovered {plan.name}",
                recovered == fingerprints[plan.name],
                "differs from the pre-kill fingerprint")


def _set_up(ctl: Conn, plans: List[Any], build: int, tally: Tally,
            out: Dict[str, Any]) -> None:
    """Build every session's design plus warm-up, timed into
    ``out["setup_s"]``.  Build 0 makes the sessions the timed phase uses;
    later builds make fresh ones and close them again."""
    names = [plan.name if build == 0 else f"{plan.name}-r{build}"
             for plan in plans]
    payloads = [[ctl.encode(frame, name) for frame in plan.setup]
                for plan, name in zip(plans, names)]
    started = time.perf_counter()
    replies = [ctl.loop(batch)[2] for batch in payloads]
    out["setup_s"].append(time.perf_counter() - started)
    for plan, lines in zip(plans, replies):
        tally.replies(f"setup {plan.name}", plan.setup,
                      plan.setup_expected, lines)
    if build:
        for name in names:
            ctl.result({"cmd": "close"}, name)


def _more_opens(rounds: List[float]) -> bool:
    """Whether recovery needs another round of opens, given the seconds
    each earlier round took."""
    return len(rounds) < RECOVER_OPENS or (
        sum(rounds) < RECOVER_SECONDS and len(rounds) < RECOVER_CAP)


def _recover(ctl: Conn, plans: List[Any], fingerprints: Dict[str, Any],
             opened: bool, tally: Tally, out: Dict[str, Any]) -> float:
    """One timed ``open`` per session on its final journal (after a
    ``close`` when the session is open already); the first open's
    state must equal the pre-kill fingerprint.  Return the seconds the
    opens took."""
    took = 0.0
    for plan in plans:
        if opened:
            ctl.result({"cmd": "close"}, plan.name)
        started = time.perf_counter()
        reply = ctl.call({"cmd": "open"}, plan.name)
        out["recover_s"].append(time.perf_counter() - started)
        took += out["recover_s"][-1]
        tally.check(f"open {plan.name}", bool(reply.get("ok")),
                    str(reply.get("error")))
        if not opened:
            _check_recovered(ctl, plan, fingerprints, tally)
    return took


def _drive(conns: List[Conn], payloads: List[List[bytes]]
           ) -> List[Tuple[List[float], List[float], List[bytes]]]:
    """Closed loop on every connection at once, from this one thread:
    a connection sends its next request when its last reply is in.  Per
    connection, return the latencies (s), completion times and replies.
    One thread rather than one per connection keeps the interpreter's
    thread switching out of the latencies."""
    clock = time.perf_counter
    runs = [([0.0] * len(batch), [0.0] * len(batch), [b""] * len(batch))
            for batch in payloads]
    done = [0] * len(conns)
    sent = [0.0] * len(conns)
    pending = [b""] * len(conns)
    selector = selectors.DefaultSelector()

    def send(index: int) -> None:
        sent[index] = clock()
        conns[index].sock.sendall(payloads[index][done[index]])

    try:
        for index, conn in enumerate(conns):
            if payloads[index]:
                selector.register(conn.sock, selectors.EVENT_READ, index)
                send(index)
        while selector.get_map():
            for key, _events in selector.select():
                index = key.data
                chunk = conns[index].sock.recv(1 << 16)
                end = clock()
                if not chunk:
                    raise BenchError("server closed a timed connection")
                pending[index] += chunk
                while b"\n" in pending[index]:
                    line, pending[index] = pending[index].split(b"\n", 1)
                    latencies, ends, lines = runs[index]
                    op = done[index]
                    latencies[op], ends[op], lines[op] = (end - sent[index],
                                                          end, line)
                    done[index] = op = op + 1
                    if op < len(payloads[index]):
                        send(index)
                    else:
                        selector.unregister(key.fileobj)
    finally:
        selector.close()
    return runs


def _timed(server: "Server", ctl: Conn, plans: List[Any], tally: Tally,
           traced: bool) -> Dict[str, Any]:
    """One episode's timed ops, one closed-loop connection per session;
    return its latencies, completion times, CPU and ``stats`` deltas."""
    conns = [Conn(server.port, f"c{index}") for index in range(len(plans))]
    payloads = [[conn.encode(frame, plan.name) for frame in plan.timed]
                for conn, plan in zip(conns, plans)]
    stats_before = _stats(ctl, plans)
    if traced:
        ctl.result({"cmd": "bench-trace", "phase": "timed"})
    gc.disable()
    try:
        cpu_before = server.cpu_s()
        runs = _drive(conns, payloads)
        cpu_s = server.cpu_s() - cpu_before
    finally:
        gc.enable()
    if traced:
        ctl.result({"cmd": "bench-trace", "phase": "after"})
    stats = _stats(ctl, plans) - stats_before
    for conn in conns:
        conn.close()
    for plan, run in zip(plans, runs):
        tally.replies(f"timed {plan.name}", plan.timed, plan.timed_expected,
                      run[2])
    start = min(run[1][0] - run[0][0] for run in runs)
    return {"latencies": [run[0] for run in runs],
            "ends": [run[1] for run in runs], "start": start,
            "wall_s": max(run[1][-1] for run in runs) - start,
            "cpu_s": cpu_s, "stats": stats}


def serve_run(workload: str, seed: int, ops: int, episodes: int,
              rundir: str, tally: Tally, *, traced: bool,
              trace_path: Optional[str] = None) -> Dict[str, Any]:
    """Drive ``episodes`` episodes of ``workload`` with ``ops`` timed ops
    in all; return raw measurements.

    Episode ``e`` plans its sessions (in-process reference), builds
    them on the current server, runs its timed ops, checks the end state
    and kills the server (-9).  The next server first recovers episode
    ``e``'s sessions (opens timed, interleaved with the next episode's
    builds), so set-up, timed ops and recovery all sample the host over
    the whole run.  Spawns are excluded from every end-to-end figure.
    """
    from workloads import op_class, plan_workload
    os.makedirs(rundir)
    root = os.path.join(rundir, "root")
    out: Dict[str, Any] = {"spawn_s": [], "setup_s": [], "recover_s": [],
                           "episodes": [], "rss_mb": [], "store_bytes": 0,
                           "mix": Counter()}
    servers: List[Server] = []
    builds = 1 if traced else SETUP_BUILDS
    cpus = sorted(os.sched_getaffinity(0))
    with open(os.path.join(rundir, "server.log"), "ab") as log:

        def spawn() -> Server:
            # Client and server of one episode share one CPU (the server
            # inherits the mask): a request then wakes the server on a
            # CPU that is already running instead of a halted vCPU, whose
            # wake-up cost swings with the load other tenants put on the
            # host.  Episodes take the CPUs in turn, because each vCPU's
            # speed drifts on its own; a run then samples all of them.
            os.sched_setaffinity(0, {cpus[len(servers) % len(cpus)]})
            server = Server(root, traced, log)
            servers.append(server)
            out["spawn_s"].append(server.spawn_s)
            return server

        try:
            server = spawn()
            previous: Optional[Tuple[List[Any], Dict[str, Any]]] = None
            for episode in range(episodes):
                share = ops // episodes + (episode < ops % episodes)
                plans = plan_workload(workload, seed, share, episode)
                out["connections"] = len(plans)
                out["mix"].update(
                    op_class(frame, outcome) for plan in plans
                    for frame, outcome in zip(plan.timed,
                                              plan.timed_expected))
                ctl = Conn(server.port, f"setup{episode}")
                opens: List[float] = []
                step = 0
                while step < builds or (previous and _more_opens(opens)):
                    if previous and _more_opens(opens):
                        opens.append(_recover(ctl, previous[0], previous[1],
                                              bool(opens), tally, out))
                    if step < builds:
                        _set_up(ctl, plans, step, tally, out)
                    step += 1
                if previous:
                    for plan in previous[0]:
                        _check_recovered(ctl, plan, previous[1], tally)
                        ctl.result({"cmd": "close"}, plan.name)

                out["episodes"].append(_timed(server, ctl, plans, tally,
                                              traced))
                fingerprints = {}
                for plan in plans:
                    fingerprint = ctl.result({"cmd": "fingerprint"},
                                             plan.name)
                    fingerprints[plan.name] = fingerprint
                    tally.check(f"fingerprint {plan.name}",
                                fingerprint == plan.fingerprint,
                                "differs from the reference")
                    seen = len(fingerprint["violations"])
                    tally.check(f"violations {plan.name}",
                                seen == plan.violations,
                                f"{seen} != {plan.violations}")
                    out["store_bytes"] += _dir_bytes(
                        os.path.join(root, plan.name))
                out["rss_mb"].append(server.peak_rss_mb())
                if traced:
                    out["trace"] = ctl.result({"cmd": "bench-trace",
                                               "dump": trace_path})
                ctl.close()
                server.kill()
                server = spawn()
                previous = (plans, fingerprints)

            # The last episode's recovery has a server of its own.
            ctl = Conn(server.port, "recover")
            if traced:
                ctl.result({"cmd": "bench-trace", "phase": "recover"})
            opens = []
            while _more_opens(opens):
                opens.append(_recover(ctl, previous[0], previous[1],
                                      bool(opens), tally, out))
            for plan in previous[0]:
                _check_recovered(ctl, plan, previous[1], tally)
            if traced:
                out["recover_trace"] = ctl.result({"cmd": "bench-trace",
                                                   "dump": None})
            server.shutdown(ctl)
        finally:
            for server in servers:
                server.kill()

    timed = out["episodes"]
    out["latencies"] = [lat for ep in timed for lat in ep["latencies"]]
    out["wall_s"] = sum(ep["wall_s"] for ep in timed)
    out["cpu_s"] = sum(ep["cpu_s"] for ep in timed)
    out["stats"] = sum((ep["stats"] for ep in timed), Counter())
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _halves(raw: Dict[str, Any]) -> List[float]:
    """Throughput of the first and of the second half of every episode's
    timed ops (completion order, connections merged), episodes pooled."""
    ops, seconds = [0, 0], [0.0, 0.0]
    for episode in raw["episodes"]:
        ends = sorted(end for run in episode["ends"] for end in run)
        mid = len(ends) // 2
        if mid == 0:
            continue
        ops[0] += mid
        ops[1] += len(ends) - mid
        seconds[0] += ends[mid - 1] - episode["start"]
        seconds[1] += ends[-1] - ends[mid - 1]
    return [n / t if t else 0.0 for n, t in zip(ops, seconds)]


def _mean_latency_ms(raw: Dict[str, Any], ops: int) -> float:
    return sum(sum(samples) for samples in raw["latencies"]) * 1e3 / ops


def end_to_end(raw: Dict[str, Any], ops: int) -> Dict[str, Tuple[float, str]]:
    """All timed ops of the run: ops over the timed seconds, latency
    percentiles per episode and averaged over the episodes; set-up and
    peak RSS as medians over the run's builds and servers, recovery as
    the mean of its opens (they fall in two clusters, whose mix a median
    follows in jumps)."""
    def percentile_ms(q: float) -> float:
        """Mean over the episodes of each one's percentile ``q``."""
        return statistics.fmean(
            _percentile(sorted(latency for run in episode["latencies"]
                               for latency in run), q)
            for episode in raw["episodes"]) * 1e3

    return {
        "throughput_ops_s": (ops / raw["wall_s"], "1/s"),
        "latency_p50_ms": (percentile_ms(0.50), "ms"),
        "latency_p99_ms": (percentile_ms(0.99), "ms"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "recover_s": (statistics.fmean(raw["recover_s"]), "s"),
        "server_cpu_ms_per_op": (raw["cpu_s"] / ops * 1e3, "ms"),
        "store_bytes_per_op": (raw["store_bytes"] / ops, "B"),
        "server_rss_mb": (statistics.median(raw["rss_mb"]), "MB"),
    }


def per_layer(raw: Dict[str, Any], plain: Dict[str, Any],
              ops: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run (definitions in README.md)."""
    layers = raw["trace"]["layers"]
    counters = raw["trace"]["counters"]
    timed = layers.get("timed", {})
    recover = raw["recover_trace"]["layers"].get("recover", {})
    empty = [0, 0, 0]

    def per_call(layer: str) -> float:
        """Mean self ms per call over set-up and timed phase."""
        rows = [layers.get(phase, {}).get(layer, empty)
                for phase in ("setup", "timed")]
        calls = sum(row[2] for row in rows)
        return sum(row[0] for row in rows) / calls / 1e6 if calls else 0.0

    def count(phase: str, name: str) -> int:
        return counters.get(phase, {}).get(name, 0)

    def ratio(name: str, phases: Tuple[str, ...]) -> float:
        calls = sum(count(phase, name + ".calls") for phase in phases)
        hits = sum(count(phase, name + ".true") for phase in phases)
        return hits / calls if calls else 0.0

    handler_ms = timed.get("server.handler", empty)[1] / ops / 1e6
    opens = recover.get("session.open", empty)
    replay_ns = recover.get("store.replay", empty)[0]
    stats = raw["stats"]
    journal_bytes = count("timed", "journal.bytes")
    metrics = {
        "server.handler_ms": (handler_ms, "ms"),
        "server.wire_ms": (_mean_latency_ms(raw, ops) - handler_ms, "ms"),
        "server.spawn_s": (statistics.median(raw["spawn_s"]
                                             + plain["spawn_s"]), "s"),
        "session.open_ms": (opens[1] / opens[2] / 1e6 if opens[2] else 0.0,
                            "ms"),
        "engine.propagated_per_op": (
            stats["propagated_assignments"] / ops, "count"),
        "engine.inference_runs_per_op": (
            stats["inference_runs"] / ops, "count"),
        "engine.satisfaction_checks_per_op": (
            stats["satisfaction_checks"] / ops, "count"),
        "engine.violation_ratio": (
            1.0 - ratio("engine.accepted", ("timed",)), "ratio"),
        "islands.merges_per_op": (stats["island_merges"] / ops, "count"),
        "islands.splits_per_op": (stats["island_splits"] / ops, "count"),
        "spaces.accept_ratio": (
            ratio("spaces.accepted", ("setup", "timed")), "ratio"),
        "journal.bytes_per_op": (journal_bytes / ops, "B"),
        "store.fsyncs_per_op": (timed.get("store.fsync", empty)[2] / ops,
                                "count"),
        "store.bytes_written_per_op": (
            (journal_bytes + count("timed", "store.checkpoint_bytes")) / ops,
            "B"),
        "store.replay_ms": (replay_ns / opens[2] / 1e6 if opens[2] else 0.0,
                            "ms"),
    }
    for layer in ("session.undo", "session.redo", "session.checkpoint",
                  "engine.round", "islands.link", "spaces.assign",
                  "spaces.discard", "spaces.commit", "journal.append",
                  "store.fsync", "store.publish"):
        metrics[layer + "_ms"] = (per_call(layer), "ms")
    return metrics


def self_time_table(raw: Dict[str, Any], ops: int) -> List[str]:
    """Timed-phase self time per op by layer; the rows add up to the mean
    client latency, with the wire remainder on its own line."""
    timed = raw["trace"]["layers"].get("timed", {})
    client = _mean_latency_ms(raw, ops)
    rows = sorted(((row[0] / ops / 1e6, row[2] / ops, layer)
                   for layer, row in timed.items()), reverse=True)
    attributed = sum(row[0] for row in rows)
    lines = [f"  {'layer':<24}{'self ms/op':>12}{'calls/op':>10}"]
    lines += [f"  {layer:<24}{ms:>12.4f}{calls:>10.3f}"
              for ms, calls, layer in rows]
    lines.append(f"  {'wire (remainder)':<24}{client - attributed:>12.4f}")
    lines.append(f"  {'= mean client latency':<24}{client:>12.4f}")
    return lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    ops = max(1, round(OPS_PER_SECOND[workload] * seconds))
    rundir = os.path.join(OUT, f"run-{os.getpid()}")
    tally = Tally()
    try:
        if trace:
            # One episode (the first of an untraced run), once plain and
            # once traced: the recorder's spans stay in one server.
            ops = max(1, ops // EPISODES)
            plain = serve_run(workload, seed, ops, 1,
                              os.path.join(rundir, "plain"), tally,
                              traced=False)
            trace_path = os.path.join(OUT, f"{workload}-{seed}.trace.json")
            raw = serve_run(workload, seed, ops, 1,
                            os.path.join(rundir, "traced"), tally,
                            traced=True, trace_path=trace_path)
            tally.check("stats under tracing", raw["stats"] == plain["stats"],
                        "traced stats deltas differ from untraced")
            metrics = per_layer(raw, plain, ops)
        else:
            raw = serve_run(workload, seed, ops, EPISODES, rundir, tally,
                            traced=False)
            metrics = end_to_end(raw, ops)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    mix = raw["mix"]
    throughput = ops / raw["wall_s"]
    detail = {
        "workload": workload, "seed": seed, "ops": ops,
        "connections": raw["connections"], "wall_s": raw["wall_s"],
        "throughput_ops_s": throughput,
        "episode_ops_s": [sum(map(len, episode["latencies"]))
                          / episode["wall_s"]
                          for episode in raw["episodes"]],
        "episode_p50_ms": [
            statistics.median(lat for run in episode["latencies"]
                              for lat in run) * 1e3
            for episode in raw["episodes"]],
        "halves_ops_s": _halves(raw),
        "setup_samples_s": raw["setup_s"],
        "recover_samples_s": raw["recover_s"],
        "plan_hits_per_op": raw["stats"]["plan_hits"] / ops,
        "failed_op_ratio": tally.failed / max(1, tally.attempted),
        "mix": {name: n / ops for name, n in sorted(mix.items())},
        "server": "repro serve --store file (fsync=always, no "
                  "--island-workers, no round budget)",
        "cpus": cpus,
    }
    err = sys.stderr
    print(f"perfbench {workload} seed={seed} ops={ops} "
          f"connections={raw['connections']} trace={int(trace)}", file=err)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36}{value:>14.4f} {unit}", file=err)
    print(f"  failed_op_ratio {detail['failed_op_ratio']:.6f} "
          f"({tally.failed}/{tally.attempted})", file=err)
    for note in tally.notes:
        print(f"  MISMATCH {note}", file=err)
    if trace:
        untraced = ops / plain["wall_s"]
        detail["trace_overhead"] = untraced / throughput - 1.0
        print(f"  throughput traced {throughput:.1f} vs untraced "
              f"{untraced:.1f} ops/s (tracing overhead "
              f"{detail['trace_overhead']:+.1%})", file=err)
        print("  self time per op, timed phase:", file=err)
        for line in self_time_table(raw, ops):
            print(line, file=err)
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if tally.failed == 0 else 1


def _collect(workload: str, seeds: List[int], seconds: int, trace: bool,
             drift_bound: float) -> Tuple[Dict[str, List[float]],
                                          Dict[str, str], bool]:
    """Run ``workload`` once per seed in a fresh process; return every
    metric's values, its unit and whether any run failed or drifted."""
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    flagged = False
    for run_seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(run_seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            flagged = True
            print(f"{workload} seed={run_seed}: FAILED "
                  f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
            continue
        detail = json.loads(next(
            line for line in lines
            if line.startswith("perfbench-detail ")).split(" ", 1)[1])
        first, second = detail["halves_ops_s"]
        drift = abs(first - second) / ((first + second) / 2)
        if drift > drift_bound:
            flagged = True
            print(f"{workload} seed={run_seed}: FLAG halves {first:.1f} vs "
                  f"{second:.1f} ops/s ({drift:.1%} > {drift_bound:.0%})")
        for name, metric in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return values, units, flagged


def steadiness(workloads: List[str], repeat: int, sets: int, seed: int,
               seconds: int, trace: bool, same_seed: bool) -> int:
    """Run each workload ``repeat`` times, ``sets`` times over; print per
    metric the median, the quartiles and the spreads, and exit 1 when a
    run failed or drifted, a spread exceeds its bound, an exact count
    changed under ``same_seed``, or a later set's median is worse than
    the first set's by more than the bound."""
    specs: Dict[str, Dict[str, Any]] = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as handle:
            spec = json.load(handle)
        specs = {metric["name"]: metric
                 for metric in spec["end_to_end"] + spec["per_layer"]}
    drift_bound = specs.get("throughput_ops_s", {}).get("bound", 0.1)
    flagged = False
    for workload in workloads:
        seeds = [seed if same_seed else seed + index
                 for index in range(repeat)]
        medians: List[Dict[str, float]] = []
        for set_index in range(sets):
            values, units, failed = _collect(workload, seeds, seconds,
                                             trace, drift_bound)
            flagged |= failed
            print(f"\n{workload} set {set_index + 1}: {repeat} runs, "
                  f"seeds {seeds}")
            print(f"  {'metric':<36}{'median':>12}{'q1':>12}{'q3':>12}"
                  f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
            medians.append({})
            for name, samples in values.items():
                median = statistics.median(samples)
                medians[-1][name] = median
                q1, _, q3 = (statistics.quantiles(samples, n=4)
                             if len(samples) > 1 else (median,) * 3)
                scale = abs(median) or 1.0
                spread = (q3 - q1) / scale
                bound = specs.get(name, {}).get("bound")
                mark = ""
                if same_seed and units[name] in EXACT_UNITS \
                        and len(set(samples)) > 1:
                    mark = "  NOT EXACT"
                    flagged = True
                elif bound is not None and spread > bound:
                    mark = "  > BOUND"
                    flagged = True
                elif bound is not None and spread > bound / 3:
                    mark = "  > bound/3"
                full_range = (max(samples) - min(samples)) / scale
                print(f"  {name:<36}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                      f"{spread:>9.1%}{full_range:>10.1%}"
                      f"{'' if bound is None else f'{bound:.0%}':>7}{mark}")
        for set_index, later in enumerate(medians[1:], start=2):
            print(f"  set {set_index} vs set 1 (median change, worse > 0):")
            for name, median in later.items():
                first = medians[0].get(name)
                metric = specs.get(name, {})
                if not first or "bound" not in metric:
                    continue
                change = (median - first) / abs(first)
                worse = change if metric["better"] == "lower" else -change
                mark = ""
                if worse > metric["bound"]:
                    mark = "  > BOUND"
                    flagged = True
                print(f"    {name:<34}{worse:>+9.1%}"
                      f"{metric['bound']:>7.0%}{mark}")
    return 1 if flagged else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="wire-level benchmark of repro serve")
    parser.add_argument("--workload", required=True,
                        help="drag, restructure or explore (a comma list "
                             "with --repeat)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --repeat: sets of the same seeds, each "
                             "compared with the first")
    parser.add_argument("--same-seed", action="store_true",
                        help="with --repeat: one seed for every run, and "
                             "exact counts must repeat bit for bit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated benchmark still unwinds, so its servers are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from workloads import WORKLOADS
    names = args.workload.split(",")
    if any(name not in WORKLOADS for name in names) \
            or (len(names) > 1 and not args.repeat):
        parser.error(f"--workload takes one of {', '.join(WORKLOADS)} "
                     f"(a comma list only with --repeat)")
    if args.repeat:
        return steadiness(names, args.repeat, args.sets, args.seed,
                          args.seconds, bool(args.trace), args.same_seed)
    try:
        return run(names[0], args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
