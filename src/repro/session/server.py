"""Concurrent multi-session server — newline-delimited JSON over TCP.

``repro serve --root DIR`` exposes a :class:`SessionManager` to N
concurrent clients.  The protocol is one JSON object per line in each
direction::

    -> {"id": 1, "cmd": "assign", "session": "alice", "var": "v:x",
        "value": 5}
    <- {"id": 1, "ok": true, "result": {"accepted": true, ...}}
    <- {"id": 2, "ok": false, "error": {"type": "violation",
        "message": "...", "detail": {...}}}

Isolation and flow control:

* every session has its own :class:`~repro.session.session.Session`
  (own context, library, journal) — no shared mutable state between
  sessions, so cross-session leakage is impossible by construction;
* each connection is an :class:`asyncio.Protocol` that answers every
  complete line, in order, inside ``data_received``; every handler is
  synchronous, so requests on one session apply in arrival order;
* a connection whose write buffer passes its high-water mark stops
  answering and reading until it drains;
* request frames are bounded by ``max_frame_bytes`` — an oversized frame
  answers with a ``bad-request`` frame and is discarded up to its
  newline, leaving the connection usable;
* at most ``max_connections`` clients may be connected — excess accepts
  receive a graceful ``overloaded`` frame and are closed;
* constraint violations are not errors of the protocol but of the
  design: they come back as graceful ``violation`` frames carrying the
  violation record, with the network already restored.

Retry safety: a request may carry a client-generated ``rid`` string.
The response to each ``rid`` is remembered (per session, bounded LRU)
and replayed verbatim when the same ``rid`` arrives again, so a client
that lost a response to a network fault can retry the mutation and have
it apply **exactly once**.  The check, the mutation and the record
happen with no yield in between, so a duplicate can never race the
original.

Disk-fault surfacing: a session whose journal degraded (persistent disk
error) answers mutations with ``degraded`` frames; other I/O errors
surface as ``io-error`` frames.  ``health`` reports both, plus load.

The server process is crash-safe by delegation: every acknowledged
mutation was journaled write-ahead by the session, so ``kill -9`` at any
point loses nothing that was acknowledged (see docs/sessions.md).
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set

from ..core.islands import bfs_partition, island_stats
from .codec import (
    EncodingError,
    UnknownAddress,
    decode_justification_name,
    decode_value,
    encode_value,
)
from .journal import JournalCorrupt, JournalDegraded
from .manager import SessionManager
from .session import Session, SessionError

__all__ = ["SessionServer"]

_MAX_LINE = 1 << 20
_RID_CACHE_SIZE = 256  # remembered responses per session, for retries


class _RequestError(Exception):
    """A request that must answer with an error frame."""

    def __init__(self, kind: str, message: str,
                 detail: Any = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.detail = detail

    def frame(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {"type": self.kind, "message": str(self)}
        if self.detail is not None:
            error["detail"] = self.detail
        return error


class _Connection(asyncio.Protocol):
    """One client connection: cut complete lines, answer each in order.

    Framing is kept by hand so an oversized line is survivable: it
    answers ``bad-request`` once and is discarded up to its newline.
    Between ``pause_writing`` and ``resume_writing`` cut lines wait in
    the buffer and reading pauses.
    """

    def __init__(self, server: "SessionServer") -> None:
        self.server = server
        self.transport: Any = None
        self.buffer = bytearray()
        self.discarding = False
        self.paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        server = self.server
        if server._draining or len(server._connections) >= \
                server.max_connections:
            transport.write(_encode_frame({
                "id": None, "ok": False,
                "error": {"type": "overloaded",
                          "message": "server at its connection limit "
                                     f"({server.max_connections})"}}))
            transport.close()
            return
        self.transport = transport
        server._connections.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        server = self.server
        server._connections.discard(self.transport)
        idle = server._idle
        if not server._connections and idle is not None and not idle.done():
            idle.set_result(None)  # the last connection of a stop() went

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._answer()

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.transport.resume_reading()
        self._answer()

    def _answer(self) -> None:
        buffer = self.buffer
        limit = self.server.max_frame_bytes
        transport = self.transport
        write = transport.write
        # Requests still buffered on a lost connection are not applied.
        while not self.paused and not transport.is_closing():
            newline = buffer.find(b"\n")
            if newline < 0:
                if len(buffer) > limit:
                    if not self.discarding:
                        self.discarding = True
                        write(_encode_frame(_too_long_frame(limit)))
                    del buffer[:]  # drop the prefix, keep seeking newline
                return
            line = bytes(buffer[:newline])
            del buffer[:newline + 1]
            if self.discarding:
                self.discarding = False  # tail of the oversized frame
            elif len(line) > limit:
                write(_encode_frame(_too_long_frame(limit)))
            else:
                write(_encode_frame(self.server._handle_line(line)))


class SessionServer:
    """Serve a session root to concurrent JSON-line clients."""

    def __init__(self, root: str, *, host: str = "127.0.0.1", port: int = 0,
                 fsync: str = "always", max_sessions: int = 64,
                 max_frame_bytes: int = _MAX_LINE,
                 max_connections: int = 64,
                 drain_timeout: float = 5.0,
                 round_budget: Any = None,
                 store: Any = None) -> None:
        self.manager = SessionManager(root, fsync=fsync,
                                      max_sessions=max_sessions,
                                      round_budget=round_budget,
                                      store=store)
        self.host = host
        self.port = port
        #: Extra identity fields merged into every ``health`` frame —
        #: a fleet worker stamps its worker id and role here.
        self.info: Dict[str, Any] = {}
        self.max_frame_bytes = max_frame_bytes
        self.max_connections = max_connections
        self.drain_timeout = drain_timeout
        self._rid_cache: Dict[str, "OrderedDict[str, Any]"] = {}
        self._connections: Set[asyncio.Transport] = set()
        self._in_flight = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Future] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Start, serve until :meth:`request_stop` / ``shutdown``, stop."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting and close every connection (a closing
        transport flushes its replies first); wait at most
        ``drain_timeout`` for them to go, then close the sessions."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            self._server = None
        for transport in list(self._connections):
            transport.close()
        if self._connections:
            self._idle = asyncio.get_running_loop().create_future()
            await asyncio.wait([self._idle], timeout=self.drain_timeout)
            self._idle = None
            for transport in list(self._connections):
                transport.abort()  # a client that stopped reading
        self.manager.close_all()
        self._draining = False

    def request_stop(self) -> None:
        if self._stopped is not None:
            self._stopped.set()

    # -- request handling ---------------------------------------------------

    def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        self._in_flight += 1
        try:
            try:
                message = json.loads(line)
            except ValueError:
                raise _RequestError("bad-request", "request is not JSON")
            if not isinstance(message, dict):
                raise _RequestError("bad-request",
                                    "request must be a JSON object")
            request_id = message.get("id")
            result = self._dispatch(message)
            return {"id": request_id, "ok": True, "result": result}
        except _RequestError as error:
            return {"id": request_id, "ok": False, "error": error.frame()}
        except (SessionError, EncodingError, UnknownAddress,
                KeyError, TypeError, ValueError) as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "bad-request", "message": str(error)}}
        except JournalCorrupt as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "internal", "message": str(error)}}
        except JournalDegraded as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "degraded", "message": str(error)}}
        except OSError as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "io-error", "message": str(error)}}
        finally:
            self._in_flight -= 1

    def _dispatch(self, message: Dict[str, Any]) -> Any:
        cmd = message.get("cmd")
        handler = self.COMMANDS.get(cmd)
        if handler is None:
            raise _RequestError("bad-request", f"unknown cmd {cmd!r}")
        if cmd in self.GLOBAL_COMMANDS:
            return handler(self, message)
        name = message.get("session")
        if not isinstance(name, str) or not name:
            raise _RequestError("bad-request",
                                f"cmd {cmd!r} requires a session name")
        rid = message.get("rid")
        if rid is not None and not isinstance(rid, str):
            raise _RequestError("bad-request", "rid must be a string")
        # Handlers are synchronous: nothing runs between the rid check,
        # the mutation and the record, so a duplicate never races the
        # original and one session's requests apply in arrival order.
        cache = self._rid_cache.setdefault(name, OrderedDict())
        if rid is not None and rid in cache:
            cache.move_to_end(rid)
            hit = cache[rid]
            if isinstance(hit, _RequestError):
                raise hit
            return hit
        session: Optional[Session] = None
        if rid is not None and cmd in _JOURNALED_COMMANDS:
            session = self.manager.get(name)
            entry = session.rid_entry(rid)
            if entry is not None:
                # The mutation already reached the journal — possibly in
                # a previous process life (the rid cache above dies with
                # the process, the journal does not).  Rebuild a response
                # from current state instead of applying twice.
                result = _RECONSTRUCT[cmd](self, message, session, entry)
                result["replayed"] = True
                _remember(cache, rid, result)
                return result
            # Stamp the rid into whatever this command journals, so the
            # dedup above survives a worker kill.
            session.pending_rid = rid
        before_seq = self._session_seq(name)
        try:
            result = handler(self, message)
        except _RequestError as error:
            # Deterministic rejections (violation, bad address…) replay
            # as-is.
            if rid is not None:
                _remember(cache, rid, error)
            raise
        finally:
            if session is not None:
                session.pending_rid = None
        result = self._post_command(name, message, result, before_seq)
        if rid is not None:
            _remember(cache, rid, result)
        return result

    # -- helpers ------------------------------------------------------------

    def _session(self, message: Dict[str, Any]) -> Session:
        return self.manager.get(message["session"])

    def _session_seq(self, name: str) -> Optional[int]:
        """Journal position of ``name`` if it is open, else ``None``."""
        session = self.manager.sessions.get(name)
        return session.position if session is not None else None

    def _post_command(self, name: str, message: Dict[str, Any],
                      result: Dict[str, Any],
                      before_seq: Optional[int]) -> Dict[str, Any]:
        """Hook called right after a handler succeeds, before its reply.

        ``before_seq`` is the session's journal position before the
        handler ran (``None`` if the session was not open yet).  The
        fleet worker overrides this to piggyback freshly-appended WAL
        lines onto the response for synchronous replication; the base
        server does nothing.
        """
        return result

    @staticmethod
    def _violation_frame(session: Session, what: str) -> _RequestError:
        detail = session.violations[-1] if session.violations else None
        return _RequestError("violation", f"{what} rejected by a "
                             f"constraint violation", detail=detail)

    # -- global commands ----------------------------------------------------

    def _cmd_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    def _cmd_sessions(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"sessions": self.manager.names()}

    def _cmd_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.request_stop()
        return {"stopping": True}

    def _cmd_health(self, message: Dict[str, Any]) -> Dict[str, Any]:
        degraded_detail = self.manager.degraded_info()
        frame = {"status": "degraded" if degraded_detail else "ok",
                 "store": self.manager.store_backend,
                 "sessions": len(self.manager.sessions),
                 "open_sessions": sorted(self.manager.sessions),
                 "connections": len(self._connections),
                 "in_flight": self._in_flight,
                 "draining": self._draining,
                 "degraded": sorted(degraded_detail),
                 "degraded_detail": degraded_detail}
        frame.update(self.info)
        return frame

    # -- session commands ---------------------------------------------------

    def _cmd_open(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return {"name": session.name, "position": session.position,
                "recovered_entries": session.replayed_entries,
                "vars": len(session.vars),
                "constraints": len(session.constraints)}

    def _cmd_close(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._rid_cache.pop(message["session"], None)
        return {"closed": self.manager.close(message["session"])}

    def _cmd_assign(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        justification = decode_justification_name(
            message.get("just", "USER"))
        ok = session.assign(message["var"],
                            decode_value(message.get("value")),
                            justification)
        if not ok:
            raise self._violation_frame(session, "assignment")
        value, just = session.get(message["var"])
        return {"accepted": True, "value": encode_value(value),
                "just": session._fingerprint_justification(just)}

    def _cmd_assign_many(self, message: Dict[str, Any]) -> Dict[str, Any]:
        entries = message.get("entries")
        if not isinstance(entries, list):
            raise _RequestError("bad-request",
                                "assign-many requires an entries list")
        session = self._session(message)
        default_just = message.get("just", "USER")
        assignments = []
        for spec in entries:
            if not isinstance(spec, dict) or "var" not in spec:
                raise _RequestError("bad-request",
                                    "each entry needs a var field")
            assignments.append((
                spec["var"], decode_value(spec.get("value")),
                decode_justification_name(spec.get("just", default_just))))
        before = session.context.stats.coalesced_assignments
        ok = session.assign_many(assignments)
        if not ok:
            raise self._violation_frame(session, "batched assignment")
        results = []
        for spec in entries:
            value, just = session.get(spec["var"])
            results.append({"var": spec["var"],
                            "value": encode_value(value),
                            "just": session._fingerprint_justification(just)})
        return {"accepted": True, "entries": results,
                "coalesced":
                    session.context.stats.coalesced_assignments - before}

    def _what_if_entries(self, message: Dict[str, Any]) -> List[tuple]:
        entries = message.get("entries")
        if not isinstance(entries, list):
            raise _RequestError("bad-request",
                                "what-if requires an entries list")
        default_just = message.get("just", "USER")
        specs = []
        for spec in entries:
            if not isinstance(spec, dict) or "var" not in spec:
                raise _RequestError("bad-request",
                                    "each entry needs a var field")
            specs.append((
                spec["var"], decode_value(spec.get("value")),
                decode_justification_name(spec.get("just", default_just))))
        return specs

    def _cmd_what_if(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Preview a batch inside a computation space: per-entry
        acceptance and resulting values, then discard — the session's
        journal, fingerprint and position are untouched."""
        session = self._session(message)
        specs = self._what_if_entries(message)
        results = []
        with session.space() as space:
            for var, value, just in specs:
                accepted = space.assign(var, value, just)
                value_now, just_now = space.get(var)
                results.append({
                    "var": var, "accepted": accepted,
                    "value": encode_value(value_now),
                    "just": session._fingerprint_justification(just_now)})
            violations = len(space.violations)
        return {"entries": results, "violations": violations,
                "position": session.position}

    def _cmd_what_if_commit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a batch through a computation space and commit the
        accepted entries as one journaled batch frame; rejected entries
        are dropped instead of aborting the whole batch."""
        session = self._session(message)
        specs = self._what_if_entries(message)
        before = session.context.stats.coalesced_assignments
        accepted_flags = []
        space = session.space().open()
        try:
            for var, value, just in specs:
                accepted_flags.append(space.assign(var, value, just))
            committed = len(space.log)
            ok = space.commit()
        finally:
            if not space.closed:
                space.discard()
        if not ok:
            raise self._violation_frame(session, "what-if commit")
        results = []
        for (var, _value, _just), accepted in zip(specs, accepted_flags):
            value, just = session.get(var)
            results.append({
                "var": var, "accepted": accepted,
                "value": encode_value(value),
                "just": session._fingerprint_justification(just)})
        return {"accepted": True, "entries": results,
                "committed": committed,
                "position": session.position,
                "coalesced":
                    session.context.stats.coalesced_assignments - before}

    def _cmd_get(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        value, just = session.get(message["var"])
        return {"value": encode_value(value),
                "just": session._fingerprint_justification(just)}

    def _cmd_make_var(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.make_variable(message["name"],
                              decode_value(message.get("value")),
                              decode_justification_name(message["just"])
                              if message.get("just") else None)
        return {"var": f"v:{message['name']}"}

    def _cmd_retract(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.retract(message["var"])
        return {"retracted": message["var"]}

    def _cmd_add_constraint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        cid = session.add_constraint(
            message["type"], list(message.get("args", [])),
            params={key: decode_value(val)
                    for key, val in message.get("params", {}).items()},
            cid=message.get("cid"))
        return {"cid": cid}

    def _cmd_remove_constraint(self,
                               message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.remove_constraint(message["cid"])
        return {"removed": message["cid"]}

    def _cmd_undo(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return {"undone": session.undo(), "position": session.position}

    def _cmd_redo(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return {"redone": session.redo(), "position": session.position}

    def _cmd_checkpoint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        path = session.checkpoint()
        return {"path": path, "position": session.position}

    def _cmd_fingerprint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return session.fingerprint(
            include_stats=bool(message.get("stats", True)))

    def _cmd_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        stats = session.context.stats.snapshot()
        stats.update(island_stats(bfs_partition(
            variable for _address, variable in session.addressed_variables())))
        return {"stats": {key: stats[key] for key in sorted(stats)},
                "position": session.position,
                "store": self.manager.store_backend,
                "violations": len(session.violations),
                "unjournaled_assigns": session.unjournaled_assigns}

    def _cmd_violations(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"violations": list(self._session(message).violations)}

    def _cmd_define_cell(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.define_cell(message["name"], message.get("super"),
                            bool(message.get("generic")))
        return {"cell": message["name"]}

    def _cmd_define_signal(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.define_signal(message["cell"], message["name"],
                              message.get("direction", "in"))
        return {"signal": message["name"]}

    def _cmd_declare_delay(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.declare_delay(message["cell"], message["source"],
                              message["dest"],
                              estimate=message.get("estimate"))
        return {"delay": f"delay({message['source']}->{message['dest']})"}

    def _cmd_add_parameter(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.add_parameter(message["cell"], message["name"],
                              low=decode_value(message.get("low")),
                              high=decode_value(message.get("high")),
                              choices=decode_value(message.get("choices")),
                              default=decode_value(message.get("default")))
        return {"parameter": message["name"]}

    def _cmd_instantiate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        offset = message.get("offset", [0, 0])
        session.instantiate(message["parent"], message["child"],
                            message["name"],
                            orientation=message.get("orientation", "R0"),
                            offset=(offset[0], offset[1]))
        return {"instance": message["name"]}

    def _cmd_add_net(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.add_net(message["cell"], message["name"])
        return {"net": message["name"]}

    def _cmd_connect(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        ok = session.connect(message["cell"], message["net"],
                             message["signal"], message.get("instance"))
        if not ok:
            raise self._violation_frame(session, "connection")
        return {"connected": True}


# ``json.dumps`` with non-default separators builds a new encoder per
# call; this one is built once and writes the same bytes.
_FRAME_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode_frame(frame: Dict[str, Any]) -> bytes:
    return (_FRAME_ENCODER.encode(frame) + "\n").encode("utf-8")


def _too_long_frame(limit: int) -> Dict[str, Any]:
    return {"id": None, "ok": False,
            "error": {"type": "bad-request",
                      "message": f"request frame exceeds {limit} bytes"}}


def _remember(cache: "OrderedDict[str, Any]", rid: str,
              outcome: Any) -> None:
    cache[rid] = outcome
    if len(cache) > _RID_CACHE_SIZE:
        cache.popitem(last=False)


# -- durable rid replay ------------------------------------------------------
#
# The per-session rid cache above lives in process memory; the journal
# does not.  Commands listed here journal (at most) one entry per
# request, stamped with the request's rid, so a retry that arrives after
# a worker kill — when the in-memory cache is gone but the journal was
# replayed — is recognized via Session.rid_entry and answered from
# current state instead of applying twice.  Reconstructed responses
# carry ``"replayed": true``; value fields reflect the state *now*,
# which equals the original response unless later mutations intervened
# (clients retry promptly, so in practice they match).

_JOURNALED_COMMANDS = frozenset({
    "assign", "assign-many", "what-if-commit", "make-var", "retract",
    "add-constraint", "remove-constraint", "undo", "redo", "checkpoint",
    "define-cell", "define-signal", "declare-delay", "add-parameter",
    "instantiate", "add-net", "connect",
})


def _reread_entries(session: Session,
                    specs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    results = []
    for spec in specs:
        value, just = session.get(spec["var"])
        results.append({"var": spec["var"],
                        "value": encode_value(value),
                        "just": session._fingerprint_justification(just)})
    return results


def _rc_assign(server: "SessionServer", message: Dict[str, Any],
               session: Session, entry: Dict[str, Any]) -> Dict[str, Any]:
    value, just = session.get(message["var"])
    return {"accepted": True, "value": encode_value(value),
            "just": session._fingerprint_justification(just)}


def _rc_assign_many(server: "SessionServer", message: Dict[str, Any],
                    session: Session,
                    entry: Dict[str, Any]) -> Dict[str, Any]:
    return {"accepted": True,
            "entries": _reread_entries(session, message.get("entries", [])),
            "coalesced": 0}


def _rc_what_if_commit(server: "SessionServer", message: Dict[str, Any],
                       session: Session,
                       entry: Dict[str, Any]) -> Dict[str, Any]:
    journaled = {spec.get("var") for spec in entry.get("entries", [])}
    results = []
    for spec in message.get("entries", []):
        value, just = session.get(spec["var"])
        results.append({
            "var": spec["var"], "accepted": spec["var"] in journaled,
            "value": encode_value(value),
            "just": session._fingerprint_justification(just)})
    return {"accepted": True, "entries": results,
            "committed": len(entry.get("entries", [])),
            "position": session.position, "coalesced": 0}


_RECONSTRUCT: Dict[str, Callable[..., Dict[str, Any]]] = {
    "assign": _rc_assign,
    "assign-many": _rc_assign_many,
    "what-if-commit": _rc_what_if_commit,
    "make-var": lambda server, message, session, entry:
        {"var": f"v:{message['name']}"},
    "retract": lambda server, message, session, entry:
        {"retracted": message["var"]},
    "add-constraint": lambda server, message, session, entry:
        {"cid": entry.get("cid", message.get("cid"))},
    "remove-constraint": lambda server, message, session, entry:
        {"removed": message["cid"]},
    "undo": lambda server, message, session, entry:
        {"undone": True, "position": session.position},
    "redo": lambda server, message, session, entry:
        {"redone": True, "position": session.position},
    "checkpoint": lambda server, message, session, entry:
        {"path": None, "position": session.position},
    "define-cell": lambda server, message, session, entry:
        {"cell": message["name"]},
    "define-signal": lambda server, message, session, entry:
        {"signal": message["name"]},
    "declare-delay": lambda server, message, session, entry:
        {"delay": f"delay({message['source']}->{message['dest']})"},
    "add-parameter": lambda server, message, session, entry:
        {"parameter": message["name"]},
    "instantiate": lambda server, message, session, entry:
        {"instance": message["name"]},
    "add-net": lambda server, message, session, entry:
        {"net": message["name"]},
    "connect": lambda server, message, session, entry:
        {"connected": True},
}

_GLOBAL_COMMANDS = {"ping", "sessions", "shutdown", "health"}

_COMMANDS: Dict[str, Callable[..., Any]] = {
    "ping": SessionServer._cmd_ping,
    "sessions": SessionServer._cmd_sessions,
    "shutdown": SessionServer._cmd_shutdown,
    "health": SessionServer._cmd_health,
    "open": SessionServer._cmd_open,
    "close": SessionServer._cmd_close,
    "assign": SessionServer._cmd_assign,
    "assign-many": SessionServer._cmd_assign_many,
    "what-if": SessionServer._cmd_what_if,
    "what-if-commit": SessionServer._cmd_what_if_commit,
    "get": SessionServer._cmd_get,
    "make-var": SessionServer._cmd_make_var,
    "retract": SessionServer._cmd_retract,
    "add-constraint": SessionServer._cmd_add_constraint,
    "remove-constraint": SessionServer._cmd_remove_constraint,
    "undo": SessionServer._cmd_undo,
    "redo": SessionServer._cmd_redo,
    "checkpoint": SessionServer._cmd_checkpoint,
    "fingerprint": SessionServer._cmd_fingerprint,
    "stats": SessionServer._cmd_stats,
    "violations": SessionServer._cmd_violations,
    "define-cell": SessionServer._cmd_define_cell,
    "define-signal": SessionServer._cmd_define_signal,
    "declare-delay": SessionServer._cmd_declare_delay,
    "add-parameter": SessionServer._cmd_add_parameter,
    "instantiate": SessionServer._cmd_instantiate,
    "add-net": SessionServer._cmd_add_net,
    "connect": SessionServer._cmd_connect,
}

# Dispatch tables live on the class so subclasses (the fleet worker) can
# extend the protocol without touching the base maps.
SessionServer.COMMANDS = _COMMANDS
SessionServer.GLOBAL_COMMANDS = _GLOBAL_COMMANDS
