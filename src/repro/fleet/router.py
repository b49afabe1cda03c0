"""The fleet router — one address, many workers, no lost acks.

The router speaks the exact JSON-line session protocol a
:class:`~repro.session.client.SessionClient` already speaks, so clients
need zero changes: they connect to the router instead of a worker and
every frame behaves identically.  Behind it:

* **Sharding** — session names map onto workers through a consistent
  :class:`~repro.fleet.hashring.HashRing`; different sessions proceed
  in parallel on different workers.
* **Replication** — in ``sync`` mode (the default) every mutating
  response carries the freshly journaled WAL lines piggybacked by the
  worker; the router lands them on the session's *follower* (the next
  distinct worker on the ring) **before** acknowledging the client, so
  an acknowledged mutation survives the primary's death.  A periodic
  pass ships checkpoints and closes any gaps; in ``async`` mode it is
  the only channel.
* **Failover** — a dead worker (connection refused after paced
  retries) is removed from the ring, which re-routes each of its
  sessions exactly onto the worker already holding its replica; the
  replica directory is the live layout, so the next command recovers
  it like any crash restart.  Retried frames carry the client's ``rid``
  and the rid rides *inside* journal entries, so a mutation that was
  applied-but-unacknowledged replays as a reconstructed response —
  exactly once, end to end.
* **Migration** — ``migrate`` moves a live session to a chosen worker:
  catch-up replication, a ``handover`` flush+close on the source, a
  final tail ship, a ring pin, and a verified re-open on the target.
  Concurrent clients wait on the session's router lock and observe at
  most a retryable frame.

Requests for one session serialize on a router-side lock (the worker
serializes them anyway) — this keeps shipped WAL lines in sequence
order.  Requests for different sessions interleave freely.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..obs.metrics import MetricsRegistry
from ..session.retry import RetryPolicy
from ..session.server import (
    _FRAME_ENCODER,
    _MAX_LINE,
    _RequestError,
    _encode_frame,
    _too_long_frame,
    _JOURNALED_COMMANDS,
)

from .hashring import HashRing

__all__ = ["FleetError", "Router", "WorkerGone", "WorkerLink"]

#: Worker-side replication plumbing a client must never reach through
#: the router — these frames can rewrite replica state.
_FLEET_INTERNAL = frozenset({"repl-export", "repl-apply", "repl-position",
                             "repl-config", "handover",
                             "store-scrub", "store-repair"})

_DEFAULT_REPL_INTERVAL = 0.25
_READ_CHUNK = 1 << 16


class FleetError(RuntimeError):
    """A fleet-level invariant failed (replication mismatch, no route)."""


class WorkerGone(FleetError):
    """A worker is unreachable after paced reconnect attempts."""


class _LinkProtocol(asyncio.Protocol):
    """The worker connection of one :class:`WorkerLink`: resolve each
    response line's future as the line arrives, in ``data_received``."""

    def __init__(self, link: "WorkerLink") -> None:
        self.link = link
        self.transport: Any = None
        self.buffer = bytearray()
        #: Clear while the write buffer is over its high-water mark.
        self.writable = asyncio.Event()
        self.writable.set()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        start = 0
        while True:
            newline = buffer.find(b"\n", start)
            if newline < 0:
                break
            self.link._resolve(bytes(buffer[start:newline + 1]))
            start = newline + 1
        del buffer[:start]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.link._protocol is self:
            self.link._drop()
        self.writable.set()  # writers go on to their failed futures

    def pause_writing(self) -> None:
        self.writable.clear()

    def resume_writing(self) -> None:
        self.writable.set()


def _time_out(future: asyncio.Future) -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class WorkerLink:
    """One multiplexed JSON-line connection to a worker.

    Frames from many client connections share the link, so requests are
    re-keyed onto link-local ids and demultiplexed back through futures,
    which the connection's protocol resolves as response lines arrive.
    A request times out through a timer on its future.  Reconnects are
    paced by a :class:`~repro.session.retry.RetryPolicy`; when it is
    exhausted the link raises :class:`WorkerGone` and fails every
    in-flight future, letting the router fail the session over.
    """

    def __init__(self, worker_id: str, host: str, port: int, *,
                 retry: Optional[RetryPolicy] = None,
                 request_timeout: float = 30.0,
                 setup: Optional[List[Dict[str, Any]]] = None) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy(
            retries=3, backoff=0.05, backoff_max=0.5, seed=0)
        self.request_timeout = request_timeout
        #: Frames sent on every (re)connect before regular traffic —
        #: e.g. ``repl-config`` turning response piggyback off.
        self.setup = list(setup or [])
        self._protocol: Optional[_LinkProtocol] = None
        self._futures: Dict[str, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._connect_lock: Optional[asyncio.Lock] = None
        self._closed = False

    async def _ensure(self) -> None:
        if self._closed:
            raise WorkerGone(f"worker {self.worker_id!r} is closed")
        if self._protocol is not None:
            return
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
        async with self._connect_lock:
            if self._protocol is not None:
                return
            loop = asyncio.get_running_loop()
            attempt = 0
            while True:
                try:
                    _transport, self._protocol = \
                        await loop.create_connection(
                            lambda: _LinkProtocol(self),
                            self.host, self.port)
                    # The first setup frame is written before anything
                    # yields, and a worker answers frames in order.
                    for frame in self.setup:
                        link_id = f"x{next(self._ids)}"
                        await self._exchange(
                            _encode_frame({**frame, "id": link_id}),
                            link_id)
                    return
                except OSError:
                    if self.retry.exhausted(attempt):
                        raise WorkerGone(
                            f"worker {self.worker_id!r} unreachable at "
                            f"{self.host}:{self.port}") from None
                    attempt += 1
                    await asyncio.sleep(self.retry.delay(attempt))

    def _resolve(self, line: bytes) -> None:
        # Demultiplex on the textual id prefix — every worker response
        # to this link starts {"id":"x<n>", and the full parse is
        # deferred until someone needs it.
        key: Any = None
        if line.startswith(b'{"id":"x'):
            end = line.find(b'"', 8)
            if end > 0:
                key = line[7:end].decode("ascii")
        if key is None:
            try:
                frame = json.loads(line)
            except ValueError:
                return
            if not isinstance(frame, dict):
                return
            key = frame.get("id")
        future = self._futures.pop(key, None)
        if future is not None and not future.done():
            future.set_result(line)

    def _drop(self) -> None:
        """Fail every in-flight request and forget the connection."""
        protocol, self._protocol = self._protocol, None
        if protocol is not None:
            protocol.transport.close()
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(WorkerGone(
                    f"connection to worker {self.worker_id!r} lost "
                    f"mid-request"))

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and await its (parsed) response.

        Raises :class:`WorkerGone` if the worker cannot be reached or
        dies mid-request, and :class:`asyncio.TimeoutError` if it stays
        silent past ``request_timeout``.
        """
        frame, _raw = await self.forward(message)
        assert frame is not None
        return frame

    async def forward(self, message: Dict[str, Any],
                      raw: Optional[bytes] = None
                      ) -> Tuple[Optional[Dict[str, Any]], Optional[bytes]]:
        """Send one frame, returning ``(parsed_or_None, raw_or_None)``.

        ``raw`` is the client's original line for this ``message``;
        when given, the link forwards those bytes with only the frame
        id spliced (no re-encode), and — when the worker's response is
        a plain success with no piggybacked ``"_wal"`` — returns the
        raw response bytes with the client id restored, ready to write
        to the client verbatim, skipping the response parse entirely
        (``parsed`` is None unless the payload needed inspection).
        Every splice verifies an exact ``{"id":<id>`` prefix and falls
        back to a full re-encode/parse on any mismatch.
        """
        await self._ensure()
        link_id = f"x{next(self._ids)}"
        link_key = json.dumps(link_id).encode("utf-8")
        orig_key = _FRAME_ENCODER.encode(message.get("id")).encode("utf-8")
        payload: Optional[bytes] = None
        if raw is not None:
            prefix = b'{"id":' + orig_key
            if raw.startswith(prefix) \
                    and raw[len(prefix):len(prefix) + 1] in (b",", b"}"):
                payload = b'{"id":' + link_key + raw[len(prefix):] + b"\n"
        if payload is None:
            forwarded = dict(message)
            forwarded["id"] = link_id
            payload = _encode_frame(forwarded)
        line = await self._exchange(payload, link_id)
        if raw is not None and line.endswith(b"\n") \
                and line.startswith(b'{"id":' + link_key + b',"ok":true') \
                and b'"_wal"' not in line:
            raw_out = b'{"id":' + orig_key + line[len(link_key) + 6:]
            if b'"replayed"' not in line:
                return None, raw_out
            return json.loads(line), raw_out
        return json.loads(line), None

    async def _exchange(self, payload: bytes, link_id: str) -> bytes:
        protocol = self._protocol
        if protocol is None:
            raise WorkerGone(
                f"lost connection to worker {self.worker_id!r}")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._futures[link_id] = future
        try:
            protocol.transport.write(payload)
            await protocol.writable.wait()
            timer = loop.call_later(self.request_timeout, _time_out, future)
            try:
                return await future
            finally:
                timer.cancel()
        finally:
            self._futures.pop(link_id, None)

    async def close(self) -> None:
        self._closed = True
        self._drop()


class Router:
    """Serve the session protocol over a sharded, replicated fleet.

    ``workers`` maps worker id → ``(host, port)``.  ``replication`` is
    ``"sync"`` (ship piggybacked WAL lines before acknowledging) or
    ``"async"`` (periodic shipping only).
    """

    def __init__(self, workers: Dict[str, Tuple[str, int]], *,
                 host: str = "127.0.0.1", port: int = 0,
                 replication: str = "sync",
                 repl_interval: float = _DEFAULT_REPL_INTERVAL,
                 request_timeout: float = 30.0,
                 max_frame_bytes: int = _MAX_LINE,
                 vnodes: int = 64) -> None:
        if replication not in ("sync", "async"):
            raise ValueError("replication must be 'sync' or 'async'")
        self.host = host
        self.port = port
        self.replication = replication
        self.repl_interval = repl_interval
        self.request_timeout = request_timeout
        self.max_frame_bytes = max_frame_bytes
        self.ring = HashRing(workers, vnodes=vnodes)
        self.metrics = MetricsRegistry()
        # Timer-driven replication has no use for per-response WAL
        # payloads: turn them off at the worker so responses can be
        # forwarded to clients byte-for-byte.
        setup = [] if replication == "sync" else \
            [{"cmd": "repl-config", "piggyback": False}]
        self._links: Dict[str, WorkerLink] = {
            worker_id: WorkerLink(worker_id, addr[0], addr[1],
                                  request_timeout=request_timeout,
                                  setup=setup)
            for worker_id, addr in workers.items()}
        self._addresses = dict(workers)
        self._down: Set[str] = set()
        self._locks: Dict[str, asyncio.Lock] = {}
        self._known: Set[str] = set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._repl_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port, limit=_MAX_LINE)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.repl_interval > 0:
            self._repl_task = asyncio.ensure_future(self._repl_loop())

    async def run(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()
        await self.stop()

    def request_stop(self) -> None:
        if self._stopped is not None:
            self._stopped.set()

    async def stop(self) -> None:
        if self._repl_task is not None:
            self._repl_task.cancel()
            try:
                await self._repl_task
            except (asyncio.CancelledError, Exception):
                pass
            self._repl_task = None
        if self._server is not None:
            self._server.close()
        # Close the clients first: since CPython 3.12.1 wait_closed()
        # waits for every connection the server accepted.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        for link in self._links.values():
            await link.close()

    # -- connection handling (same framing as SessionServer) ----------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            self._connections.add(writer)
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        buffer = bytearray()
        discarding = False
        limit = self.max_frame_bytes
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                if len(buffer) > limit:
                    if not discarding:
                        discarding = True
                        writer.write(_encode_frame(_too_long_frame(limit)))
                        await writer.drain()
                    del buffer[:]
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return
                buffer += chunk
                continue
            line = bytes(buffer[:newline])
            del buffer[:newline + 1]
            if discarding:
                discarding = False
                continue
            if len(line) > limit:
                writer.write(_encode_frame(_too_long_frame(limit)))
                await writer.drain()
                continue
            response = await self._handle_line(line)
            writer.write(response if isinstance(response, bytes)
                         else _encode_frame(response))
            await writer.drain()

    async def _handle_line(self, line: bytes) -> Any:
        """Returns a response frame dict — or raw bytes ready to write
        when the worker's response passed through unmodified."""
        request_id: Any = None
        try:
            try:
                message = json.loads(line)
            except ValueError:
                raise _RequestError("bad-request", "request is not JSON")
            if not isinstance(message, dict):
                raise _RequestError("bad-request",
                                    "request must be a JSON object")
            request_id = message.get("id")
            cmd = message.get("cmd")
            if cmd in _FLEET_INTERNAL:
                raise _RequestError(
                    "bad-request",
                    f"cmd {cmd!r} is fleet-internal replication plumbing")
            handler = self.LOCAL_COMMANDS.get(cmd)
            if handler is not None:
                result = await handler(self, message)
                return {"id": request_id, "ok": True, "result": result}
            frame, raw = await self._route(message, line)
            if raw is not None:
                return raw
            frame["id"] = request_id
            return frame
        except _RequestError as error:
            return {"id": request_id, "ok": False, "error": error.frame()}
        except (FleetError, asyncio.TimeoutError) as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "overloaded",
                              "message": f"fleet is failing over "
                                         f"({error}); retry"}}
        except Exception as error:  # pragma: no cover - defensive
            return {"id": request_id, "ok": False,
                    "error": {"type": "internal", "message": str(error)}}

    # -- routing ------------------------------------------------------------

    def _session_lock(self, name: str) -> asyncio.Lock:
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = asyncio.Lock()
        return lock

    @staticmethod
    def _retry_safe(message: Dict[str, Any]) -> bool:
        """A frame that may be replayed against the follower.

        Mutations carrying a ``rid`` dedup durably at the worker (the
        rid rides in the journal entry), and commands that never
        journal are free to re-run.  A rid-less mutation is the only
        case the router must bounce back as a retryable error.
        """
        if message.get("rid") is not None:
            return True
        return message.get("cmd") not in _JOURNALED_COMMANDS

    async def _route(self, message: Dict[str, Any],
                     line: Optional[bytes] = None
                     ) -> Tuple[Dict[str, Any], Optional[bytes]]:
        name = message.get("session")
        if not isinstance(name, str) or not name:
            raise _RequestError(
                "bad-request",
                f"cmd {message.get('cmd')!r} requires a session name")
        self._known.add(name)
        self.metrics.counter("fleet.requests").inc()
        async with self._session_lock(name):
            for attempt in (0, 1):
                worker = self.ring.lookup(name)
                if worker is None:
                    raise _RequestError("overloaded", "no live workers")
                self.metrics.counter(
                    f"fleet.worker.{worker}.requests").inc()
                link = self._links[worker]
                try:
                    frame, raw = await link.forward(message, line)
                    if frame is None:
                        # verified plain success, forwarded verbatim
                        return {}, raw
                except WorkerGone:
                    await self._worker_down(worker)
                    if attempt == 0 and self._retry_safe(message):
                        continue
                    raise _RequestError(
                        "busy",
                        f"worker {worker!r} died mid-request; retry")
                except asyncio.TimeoutError:
                    raise _RequestError(
                        "timeout",
                        f"worker {worker!r} exceeded "
                        f"{self.request_timeout}s") from None
                error = frame.get("error") or {}
                if not frame.get("ok") and error.get("type") == "degraded":
                    # The worker's disk is failing this session; move it
                    # onto its follower and retry there once.
                    if attempt == 0 and await self._evacuate(name, worker):
                        continue
                    return frame, raw
                result = frame.get("result")
                if frame.get("ok") and isinstance(result, dict):
                    if result.get("replayed"):
                        self.metrics.counter("fleet.rid_replays").inc()
                    wal = result.pop("_wal", None)
                    if wal is not None:
                        raw = None  # response mutated: re-encode
                        if self.replication == "sync":
                            await self._ship(name, worker, wal)
                return frame, raw
        raise FleetError("unreachable")  # pragma: no cover

    # -- replication --------------------------------------------------------

    async def _ship(self, name: str, worker: str,
                    wal: Dict[str, Any]) -> None:
        """Land piggybacked WAL lines on the session's follower."""
        follower = self.ring.lookup(name, skip=(worker,))
        if follower is None:
            return
        if wal.get("full"):
            await self._try_full_sync(name, worker, follower)
            return
        link = self._links[follower]
        try:
            frame = await link.request({
                "cmd": "repl-apply", "session": name,
                "lines": wal.get("lines", [])})
        except (WorkerGone, asyncio.TimeoutError):
            await self._worker_down(follower)
            return
        error = frame.get("error") or {}
        if frame.get("ok"):
            self.metrics.counter("fleet.repl.ships").inc()
            self.metrics.counter("fleet.repl.lines").inc(
                len(wal.get("lines", [])))
        elif error.get("type") == "repl-gap":
            await self._try_full_sync(name, worker, follower)

    async def _try_full_sync(self, name: str, source: str,
                             target: str) -> Optional[int]:
        self.metrics.counter("fleet.full_syncs").inc()
        try:
            return await self._full_sync(name, source, target)
        except (WorkerGone, asyncio.TimeoutError, FleetError):
            return None

    async def _full_sync(self, name: str, source: str,
                         target: str) -> int:
        """Replicate ``name`` from ``source`` until ``target`` holds
        everything durable at the source; returns the target position."""
        src, tgt = self._links[source], self._links[target]
        frame = await tgt.request({"cmd": "repl-position", "session": name})
        if not frame.get("ok"):
            raise FleetError(
                f"follower {target!r} refuses replication of {name!r}: "
                f"{(frame.get('error') or {}).get('message')}")
        position = frame["result"]["position"]
        after_ckpt = frame["result"].get("checkpoint_seq", 0)
        while True:
            frame = await src.request({
                "cmd": "repl-export", "session": name,
                "after_seq": position, "after_ckpt": after_ckpt})
            if not frame.get("ok"):
                raise FleetError(
                    f"cannot export {name!r} from {source!r}: "
                    f"{(frame.get('error') or {}).get('message')}")
            export = frame["result"]
            lines = export.get("lines", [])
            payload: Dict[str, Any] = {
                "cmd": "repl-apply", "session": name, "lines": lines}
            if "checkpoint" in export:
                payload["checkpoint"] = export["checkpoint"]
            elif not lines:
                return position  # caught up
            frame = await tgt.request(payload)
            if not frame.get("ok"):
                raise FleetError(
                    f"cannot apply {name!r} onto {target!r}: "
                    f"{(frame.get('error') or {}).get('message')}")
            position = frame["result"]["position"]
            after_ckpt = max(after_ckpt,
                             export.get("checkpoint_seq", after_ckpt))
            self.metrics.counter("fleet.repl.lines").inc(len(lines))
            self.metrics.counter("fleet.repl.ships").inc()

    async def _repl_loop(self) -> None:
        """Background pass shipping checkpoints and closing any gaps
        the synchronous piggyback path could not cover (and, in
        ``async`` mode, all replication)."""
        while True:
            await asyncio.sleep(self.repl_interval)
            for name in sorted(self._known):
                try:
                    async with self._session_lock(name):
                        await self._sync_session(name)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    continue

    async def _sync_session(self, name: str) -> Optional[Dict[str, Any]]:
        """One replication pass for ``name`` (caller holds its lock)."""
        primary, follower = self.ring.lookup_pair(name)
        if primary is None or follower is None:
            return None
        position = await self._try_full_sync(name, primary, follower)
        return {"primary": primary, "follower": follower,
                "position": position}

    # -- failure handling ---------------------------------------------------

    async def _worker_down(self, worker: str) -> None:
        """Remove a dead worker; its sessions re-route to their
        replicas by ring arithmetic alone."""
        if worker not in self.ring:
            return
        self.ring.remove(worker)
        self._down.add(worker)
        self.metrics.counter("fleet.failovers").inc()
        link = self._links.get(worker)
        if link is not None:
            await link.close()

    async def _evacuate(self, name: str, worker: str) -> bool:
        """Move one degraded session off ``worker`` onto its follower
        (full sync, source close, pin).  The worker itself stays in the
        ring — only this session's disk is failing."""
        follower = self.ring.lookup(name, skip=(worker,))
        if follower is None:
            return False
        if await self._try_full_sync(name, worker, follower) is None:
            return False
        try:
            frame = await self._links[worker].request(
                {"cmd": "handover", "session": name})
        except (WorkerGone, asyncio.TimeoutError):
            await self._worker_down(worker)
            return True  # ring removal re-routes the session anyway
        if not frame.get("ok"):
            return False
        final = frame["result"]["position"]
        position = await self._try_full_sync(name, worker, follower)
        if position is not None and position < final:
            return False
        self.ring.pin(name, follower)
        self.metrics.counter("fleet.evacuations").inc()
        return True

    # -- router-local commands ----------------------------------------------

    async def _cmd_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "router": True}

    async def _cmd_sessions(self,
                            message: Dict[str, Any]) -> Dict[str, Any]:
        names: Set[str] = set()
        for frame in (await self._broadcast({"cmd": "sessions"})).values():
            if frame.get("ok"):
                names.update(frame["result"].get("sessions", []))
        return {"sessions": sorted(names)}

    async def _cmd_health(self, message: Dict[str, Any]) -> Dict[str, Any]:
        frames = await self._broadcast({"cmd": "health"})
        workers: Dict[str, Any] = {}
        degraded: List[str] = []
        for worker_id in sorted(self._addresses):
            if worker_id in self._down:
                workers[worker_id] = {"status": "down"}
                continue
            frame = frames.get(worker_id)
            if frame is None or not frame.get("ok"):
                workers[worker_id] = {"status": "unreachable"}
                continue
            health = frame["result"]
            workers[worker_id] = health
            degraded.extend(health.get("degraded", []))
            self.metrics.gauge(
                f"fleet.worker.{worker_id}.open_sessions").set(
                    health.get("sessions", 0))
            self.metrics.gauge(
                f"fleet.worker.{worker_id}.connections").set(
                    health.get("connections", 0))
        status = "ok"
        if self._down or any(w.get("status") in ("down", "unreachable")
                             for w in workers.values()):
            status = "degraded"
        elif degraded:
            status = "degraded"
        return {"status": status, "role": "router",
                "replication": self.replication,
                "workers": workers,
                "ring": self.ring.workers,
                "pins": self.ring.pins,
                "down": sorted(self._down),
                "degraded": sorted(set(degraded)),
                "connections": len(self._connections),
                "metrics": self.metrics.snapshot()}

    async def _cmd_fleet_sync(self,
                              message: Dict[str, Any]) -> Dict[str, Any]:
        if "session" in message:
            names: Iterable[str] = [message["session"]]
        else:
            names = sorted(self._known
                           | set((await self._cmd_sessions({}))["sessions"]))
        synced: Dict[str, Any] = {}
        for name in names:
            self._known.add(name)
            async with self._session_lock(name):
                synced[name] = await self._sync_session(name)
        return {"synced": synced}

    async def _cmd_migrate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        name = message.get("session")
        target = message.get("target")
        if not isinstance(name, str) or not name:
            raise _RequestError("bad-request",
                                "migrate requires a session name")
        if target not in self.ring:
            raise _RequestError("bad-request",
                                f"unknown or dead worker {target!r}")
        self._known.add(name)
        self.metrics.counter("fleet.requests").inc()
        async with self._session_lock(name):
            source = self.ring.lookup(name)
            if source is None:
                raise _RequestError("overloaded", "no live workers")
            if source == target:
                return {"migrated": False, "session": name,
                        "worker": target}
            # 1. catch the target up while the session stays live
            await self._full_sync(name, source, target)
            # 2. freeze the source: flush, close, read final position
            frame = await self._links[source].request(
                {"cmd": "handover", "session": name})
            if not frame.get("ok"):
                raise _RequestError(
                    "internal", f"handover of {name!r} on {source!r} "
                    f"failed: {(frame.get('error') or {}).get('message')}")
            final = frame["result"]["position"]
            # 3. land the tail written between (1) and the freeze
            position = await self._full_sync(name, source, target)
            if position != final:
                raise FleetError(
                    f"migration of {name!r} stalled: source froze at "
                    f"{final}, target reached {position}")
            # 4. re-route, then prove the target recovers to the exact
            #    frozen position before any client frame lands there
            self.ring.pin(name, target)
            frame = await self._links[target].request(
                {"cmd": "open", "session": name})
            if not frame.get("ok") \
                    or frame["result"].get("position") != final:
                raise FleetError(
                    f"target {target!r} recovered {name!r} at "
                    f"{(frame.get('result') or {}).get('position')}, "
                    f"expected {final}")
            self.metrics.counter("fleet.migrations").inc()
            return {"migrated": True, "session": name, "from": source,
                    "to": target, "position": final}

    # -- anti-entropy scrub --------------------------------------------------

    async def _fetch_range(self, follower: str, name: str, after: int,
                           until: Optional[int]) -> Optional[List[str]]:
        """Export the exact raw lines ``(after, until]`` from a
        follower's replica, or ``None`` when it cannot serve them."""
        lines: List[str] = []
        position = after
        while True:
            try:
                frame = await self._links[follower].request({
                    "cmd": "repl-export", "session": name,
                    "after_seq": position, "after_ckpt": 1 << 60})
            except (WorkerGone, asyncio.TimeoutError):
                return None
            if not frame.get("ok"):
                return None
            export = frame["result"]
            if "checkpoint" in export \
                    or export.get("from", position) != position:
                return None  # the replica pruned past the range
            batch = export.get("lines", [])
            if not batch:
                break
            lines.extend(batch)
            position = export.get("end", position)
            if until is not None and position >= until:
                break
        return lines or None

    async def _cmd_scrub(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Anti-entropy pass for one session: scrub the primary's
        durable state and re-ship damaged/missing ranges from the
        follower's replica."""
        name = message.get("session")
        if not isinstance(name, str) or not name:
            raise _RequestError("bad-request",
                                "scrub requires a session name")
        self._known.add(name)
        self.metrics.counter("fleet.requests").inc()
        repair = bool(message.get("repair", True))
        async with self._session_lock(name):
            primary = self.ring.lookup(name)
            if primary is None:
                raise _RequestError("overloaded", "no live workers")
            follower = self.ring.lookup(name, skip=(primary,))
            frame = await self._links[primary].request(
                {"cmd": "store-scrub", "session": name, "repair": repair})
            if not frame.get("ok"):
                raise _RequestError(
                    "internal",
                    f"scrub of {name!r} on {primary!r} failed: "
                    f"{(frame.get('error') or {}).get('message')}")
            report = frame["result"]
            needs = report.get("needs", [])
            if not (repair and needs and follower is not None
                    and not report.get("open")):
                report.update({"worker": primary, "follower": follower})
                return report
            shipped = 0
            for need in needs:
                after = int(need["after"])
                until = need.get("until")
                until = int(until) if until is not None else None
                lines = await self._fetch_range(follower, name, after,
                                                until)
                if lines is None:
                    continue
                try:
                    frame = await self._links[primary].request({
                        "cmd": "store-repair", "session": name,
                        "after": after, "until": until, "lines": lines})
                except (WorkerGone, asyncio.TimeoutError):
                    break
                if frame.get("ok"):
                    shipped += 1
                    report = frame["result"]  # includes the re-scrub
            self.metrics.counter("fleet.scrub_repairs").inc(shipped)
            report.update({"worker": primary, "follower": follower,
                           "shipped_ranges": shipped})
            return report

    async def _cmd_shutdown(self,
                            message: Dict[str, Any]) -> Dict[str, Any]:
        await self._broadcast({"cmd": "shutdown"})
        self.request_stop()
        return {"stopping": True}

    async def _broadcast(
            self, message: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        """Send one frame to every live worker; unreachable workers are
        simply absent from the result."""
        out: Dict[str, Dict[str, Any]] = {}

        async def one(worker_id: str, link: WorkerLink) -> None:
            try:
                out[worker_id] = await link.request(dict(message))
            except (WorkerGone, asyncio.TimeoutError):
                pass

        await asyncio.gather(*(one(worker_id, link)
                               for worker_id, link in self._links.items()
                               if worker_id in self.ring))
        return out


Router.LOCAL_COMMANDS = {
    "ping": Router._cmd_ping,
    "sessions": Router._cmd_sessions,
    "health": Router._cmd_health,
    "fleet-health": Router._cmd_health,
    "fleet-sync": Router._cmd_fleet_sync,
    "scrub": Router._cmd_scrub,
    "migrate": Router._cmd_migrate,
    "shutdown": Router._cmd_shutdown,
}
