"""``repro serve`` with per-layer spans, wrapped from outside the program.

Run as ``python3 perfbench/traced_serve.py serve --root DIR --port 0``
(the arguments go to ``repro.cli`` unchanged).  Before serving it wraps
the public entry point of every layer on the edit path — no source file
of ``repro`` is edited — and records one span per call:

=====================  =================================================
span                   wrapped
=====================  =================================================
``server.handler``     every ``SessionServer.COMMANDS`` entry (the root
                       span; its request id tags every span beneath it)
``session.open``       ``Session.__init__``
``session.undo``,      the ``Session`` methods of the same names
``.redo``,
``.checkpoint``
``engine.round``       ``PropagationContext.assign`` / ``assign_many``
``islands.link``       ``note_structure_link`` / ``note_structure_unlink``
``spaces.assign``,     the ``Space`` methods of the same names
``.discard``,
``.commit``
``journal.append``     ``JournalWriter.append`` / ``append_assign`` /
                       ``append_batch``
``store.fsync``        ``SegmentAppender.sync`` of the file backend
``store.publish``      ``publish_checkpoint`` of the file backend
``store.replay``       every step of ``read_store_entries`` and
                       ``load_latest_checkpoint``
=====================  =================================================

Handlers run synchronously on the server's one event-loop thread, so a
single span stack is enough.  Spans stay in memory.  The benchmark
client drives the recorder with one extra global command,
``bench-trace``: ``{"phase": NAME}`` labels every later span with a
phase, and ``{"dump": PATH}`` writes all spans once as a Chrome-trace
JSON file and answers with the per-phase aggregates (self time,
inclusive time and calls per layer, plus outcome and byte counters).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """Span stack plus per-(phase, layer) aggregates."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.rid: Any = None
        self.stack: List[List[Any]] = []   # open spans: [layer, start, child]
        self.spans: List[tuple] = []       # (layer, start, dur, rid, phase)
        # phase -> layer -> [self_ns, inclusive_ns, calls]
        self.layers: Dict[str, Dict[str, List[int]]] = {}
        # phase -> counter -> value
        self.counters: Dict[str, Dict[str, int]] = {}

    def count(self, name: str, amount: int = 1) -> None:
        counters = self.counters.setdefault(self.phase, {})
        counters[name] = counters.get(name, 0) + amount

    def begin(self, layer: str) -> None:
        self.stack.append([layer, perf_counter_ns(), 0])

    def end(self) -> None:
        layer, start, child = self.stack.pop()
        duration = perf_counter_ns() - start
        if self.stack:
            self.stack[-1][2] += duration
        row = self.layers.setdefault(self.phase, {}).setdefault(
            layer, [0, 0, 0])
        row[0] += duration - child
        row[1] += duration
        row[2] += 1
        self.spans.append((layer, start, duration, self.rid, self.phase))

    def wrap(self, layer: str, function: Callable[..., Any],
             outcome: Optional[str] = None) -> Callable[..., Any]:
        """``function`` inside a ``layer`` span.  With ``outcome``, count
        every call as ``<outcome>.calls`` and truthy results as
        ``<outcome>.true``."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder.begin(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end()
            if outcome is not None:
                recorder.count(outcome + ".calls")
                if result:
                    recorder.count(outcome + ".true")
            return result
        return wrapper

    def wrap_generator(self, layer: str,
                       function: Callable[..., Any]) -> Callable[..., Any]:
        """A generator function whose every step is one ``layer`` span;
        the consumer's work between steps stays the consumer's."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = function(*args, **kwargs)
            while True:
                recorder.begin(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.end()
                yield item
        return wrapper

    def dump(self, path: Optional[str]) -> Dict[str, Any]:
        if path:
            pid = os.getpid()
            events = [{"name": layer, "cat": layer.split(".")[0], "ph": "X",
                       "ts": start / 1000.0, "dur": duration / 1000.0,
                       "pid": pid, "tid": 1,
                       "args": {"rid": rid, "phase": phase}}
                      for layer, start, duration, rid, phase in self.spans]
            with open(path, "w") as handle:
                json.dump({"traceEvents": events,
                           "displayTimeUnit": "ms"}, handle)
        return {"layers": self.layers, "counters": self.counters,
                "spans": len(self.spans)}


def _patch(owner: Any, name: str, make: Callable[[Any], Any]) -> None:
    original = getattr(owner, name, None)
    if original is None:
        print(f"traced_serve: {owner.__name__}.{name} not found; "
              f"its layer reads 0", file=sys.stderr)
        return
    setattr(owner, name, make(original))


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points (see the module docstring)."""
    from repro.core.engine import PropagationContext
    from repro.session import journal
    from repro.session.server import SessionServer
    from repro.session.session import Session
    from repro.spaces.space import Space
    from repro.store import base, filestore

    def handler(function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def wrapper(server: Any, message: Dict[str, Any]) -> Any:
            recorder.rid = message.get("id")
            recorder.begin("server.handler")
            try:
                return function(server, message)
            finally:
                recorder.end()
        return wrapper

    commands = SessionServer.COMMANDS
    for cmd in list(commands):
        commands[cmd] = handler(commands[cmd])

    def bench_trace(server: Any, message: Dict[str, Any]) -> Dict[str, Any]:
        if "phase" in message:
            recorder.phase = str(message["phase"])
        if "dump" in message:
            return recorder.dump(message["dump"])
        return {"phase": recorder.phase}

    commands["bench-trace"] = bench_trace
    SessionServer.GLOBAL_COMMANDS.add("bench-trace")

    wrap = recorder.wrap
    _patch(Session, "__init__", lambda f: wrap("session.open", f))
    for name in ("undo", "redo", "checkpoint"):
        _patch(Session, name, lambda f, n=name: wrap(f"session.{n}", f))
    for name in ("assign", "assign_many"):
        _patch(PropagationContext, name,
               lambda f: wrap("engine.round", f, outcome="engine.accepted"))
    for name in ("note_structure_link", "note_structure_unlink"):
        _patch(PropagationContext, name, lambda f: wrap("islands.link", f))
    _patch(Space, "assign",
           lambda f: wrap("spaces.assign", f, outcome="spaces.accepted"))
    _patch(Space, "discard", lambda f: wrap("spaces.discard", f))
    _patch(Space, "commit", lambda f: wrap("spaces.commit", f))
    for name in ("append", "append_assign", "append_batch"):
        _patch(journal.JournalWriter, name,
               lambda f: wrap("journal.append", f))

    def counted(counter: str, function: Callable[..., Any]
                ) -> Callable[..., Any]:
        """Add the byte length of the call's last argument to counter."""
        @functools.wraps(function)
        def wrapper(*args: Any) -> Any:
            recorder.count(counter, len(args[-1]))
            return function(*args)
        return wrapper

    appender = filestore._FileAppender
    _patch(appender, "write", lambda f: counted("journal.bytes", f))
    _patch(appender, "sync", lambda f: wrap("store.fsync", f))
    _patch(filestore.FileSessionStore, "publish_checkpoint",
           lambda f: counted("store.checkpoint_bytes",
                             wrap("store.publish", f)))
    _patch(base, "read_store_entries",
           lambda f: recorder.wrap_generator("store.replay", f))
    _patch(base, "load_latest_checkpoint", lambda f: wrap("store.replay", f))


def main(argv: List[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    install(Recorder())
    from repro.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
