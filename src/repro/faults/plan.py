"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a list of :class:`FaultRule` objects consulted at
named fault points (``"write"``, ``"fsync"``, ``"replace"``, ``"c2s"``,
...).  Each rule matches an operation name plus a target path glob and
fires either at a precise point — the *nth* matching call, or once a
cumulative byte count crosses *after_bytes* — or stochastically with
*probability* drawn from the plan's own seeded ``random.Random``.  The
same seed and the same call sequence therefore produce exactly the same
injected faults, which is what makes crash-matrix tests reproducible and
CI chaos runs debuggable.

The plan only *decides*; the injection sites (every storage backend's
:class:`~repro.store.base.StoreGate` for journal and checkpoint I/O,
:mod:`repro.faults.netproxy` for the server stream proxy) interpret the
returned :class:`Action`:

``error``
    raise ``OSError(errno, ...)`` at the fault point (``ENOSPC``,
    ``EIO``, ...).
``torn``
    write only the first ``keep`` bytes of the payload, then follow with
    ``then`` (``"crash"`` or ``"error"``) — a torn write.
``crash``
    simulate instant process death via :class:`CrashPoint`; the gate
    stays dead (every later I/O call raises) until a fresh store is
    built, exactly as a killed process never touches the file again.
``drop`` / ``delay`` / ``truncate`` / ``reset``
    stream-proxy actions: swallow a frame, stall it, forward a prefix,
    or hard-close the connection.

``decide`` is thread-safe (the proxy pumps frames from several threads);
every fired fault is appended to :attr:`FaultPlan.history` for
assertions and post-mortem logs.
"""

from __future__ import annotations

import errno as _errno
import random
import threading
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Action", "CrashPoint", "FaultPlan", "FaultRule"]


class CrashPoint(BaseException):
    """Simulated instant process death at a fault point.

    Deliberately a ``BaseException``: the hardened code paths catch
    ``OSError`` to degrade gracefully, and a simulated ``kill -9`` must
    tear straight through them the way a real one gives no chance to
    run ``except`` blocks.
    """


class Action:
    """What a fired rule tells the injection site to do."""

    __slots__ = ("kind", "errno", "keep", "seconds", "then")

    def __init__(self, kind: str, *, errno: int = _errno.EIO,
                 keep: int = 0, seconds: float = 0.0,
                 then: str = "error") -> None:
        self.kind = kind
        self.errno = errno
        self.keep = keep
        self.seconds = seconds
        self.then = then

    def __repr__(self) -> str:
        return (f"Action({self.kind!r}, errno={self.errno}, "
                f"keep={self.keep}, seconds={self.seconds}, "
                f"then={self.then!r})")


class FaultRule:
    """One trigger: *when* (op/pattern/counters) plus *what* (action)."""

    __slots__ = ("op", "pattern", "nth", "after_bytes", "probability",
                 "times", "action", "calls", "seen_bytes", "fired")

    def __init__(self, op: str, action: Action, *, pattern: str = "*",
                 nth: Optional[int] = None,
                 after_bytes: Optional[int] = None,
                 probability: Optional[float] = None,
                 times: Optional[int] = None) -> None:
        self.op = op
        self.pattern = pattern
        self.nth = nth
        self.after_bytes = after_bytes
        self.probability = probability
        self.times = times
        self.action = action
        self.calls = 0
        self.seen_bytes = 0
        self.fired = 0

    def matches(self, op: str, target: str) -> bool:
        return op == self.op and fnmatch(target, self.pattern)

    def __repr__(self) -> str:
        return (f"FaultRule({self.op!r}, pattern={self.pattern!r}, "
                f"nth={self.nth}, after_bytes={self.after_bytes}, "
                f"probability={self.probability}, fired={self.fired})")


class FaultPlan:
    """A seeded, ordered set of fault rules.

    The first matching rule that decides to fire wins; rules that have
    exhausted their ``times`` quota are skipped.  All mutation happens
    under one lock so concurrent injection sites (proxy pump threads,
    the server's session threads) see consistent counters.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: List[FaultRule] = []
        self.history: List[Tuple[str, str, str]] = []
        self._lock = threading.Lock()

    # -- rule registration --------------------------------------------------

    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def on(self, op: str, action: Action, **when: Any) -> FaultRule:
        return self.add_rule(FaultRule(op, action, **when))

    def fail(self, op: str, *, pattern: str = "*", errno: int = _errno.EIO,
             nth: Optional[int] = None, times: Optional[int] = 1,
             probability: Optional[float] = None) -> FaultRule:
        """Raise ``OSError(errno)`` at a fault point (default: once)."""
        return self.on(op, Action("error", errno=errno), pattern=pattern,
                       nth=nth, times=times, probability=probability)

    def fail_fsync(self, pattern: str = "*", *,
                   persistent: bool = False) -> FaultRule:
        """``fsync`` fails with ``EIO`` — once, or on every call."""
        return self.fail("fsync", pattern=pattern,
                         times=None if persistent else 1)

    def enospc(self, op: str = "write", pattern: str = "*", *,
               nth: Optional[int] = None,
               persistent: bool = True) -> FaultRule:
        """The disk is full: ``ENOSPC`` on ``op`` (persistent default)."""
        return self.fail(op, pattern=pattern, errno=_errno.ENOSPC, nth=nth,
                         times=None if persistent else 1)

    def torn_write(self, pattern: str = "*", *, at_byte: int,
                   then: str = "crash") -> FaultRule:
        """Cut the write stream at a cumulative byte offset.

        The write that crosses ``at_byte`` persists only its prefix up
        to that offset, then the gate crashes (``then="crash"``) or
        the write raises ``EIO`` (``then="error"``).
        """
        return self.on("write", Action("torn", then=then), pattern=pattern,
                       after_bytes=at_byte)

    def crash_on(self, op: str, pattern: str = "*", *,
                 nth: int = 1) -> FaultRule:
        """Simulated ``kill -9`` at the nth matching fault point."""
        return self.on(op, Action("crash"), pattern=pattern, nth=nth)

    def drop(self, direction: str, *, nth: Optional[int] = None,
             probability: Optional[float] = None,
             times: Optional[int] = None) -> FaultRule:
        """Swallow a frame crossing the proxy (``"c2s"``/``"s2c"``)."""
        return self.on(direction, Action("drop"), nth=nth,
                       probability=probability, times=times)

    def delay(self, direction: str, seconds: float, *,
              nth: Optional[int] = None,
              probability: Optional[float] = None,
              times: Optional[int] = None) -> FaultRule:
        """Stall a frame for ``seconds`` before forwarding it."""
        return self.on(direction, Action("delay", seconds=seconds),
                       nth=nth, probability=probability, times=times)

    def truncate_frame(self, direction: str, *, keep: int,
                       nth: Optional[int] = None,
                       times: Optional[int] = 1) -> FaultRule:
        """Forward only ``keep`` bytes of a frame, then reset the link."""
        return self.on(direction, Action("truncate", keep=keep), nth=nth,
                       times=times)

    def reset(self, direction: str, *, nth: Optional[int] = None,
              probability: Optional[float] = None,
              times: Optional[int] = None) -> FaultRule:
        """Hard-close both sides of the proxied connection."""
        return self.on(direction, Action("reset"), nth=nth,
                       probability=probability, times=times)

    # -- the decision point -------------------------------------------------

    def decide(self, op: str, target: str = "",
               nbytes: int = 0) -> Optional[Action]:
        """Should a fault fire at this point?  ``None`` means proceed.

        Counters advance on every *matching* call whether or not the
        rule fires, so "the 3rd fsync" and "after 120 bytes written"
        mean what they say regardless of other rules.
        """
        with self._lock:
            winner: Optional[Action] = None
            for rule in self.rules:
                if not rule.matches(op, target):
                    continue
                # Counters advance for *every* matching rule, even after
                # an earlier rule has claimed this call — "the 3rd fsync"
                # means the 3rd fsync, not the 3rd one nobody else took.
                rule.calls += 1
                prior_bytes = rule.seen_bytes
                rule.seen_bytes += nbytes
                if winner is not None:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                action = rule.action
                if rule.after_bytes is not None:
                    if not (prior_bytes <= rule.after_bytes
                            < rule.seen_bytes):
                        continue
                    if action.kind == "torn":
                        action = Action("torn", errno=action.errno,
                                        keep=rule.after_bytes - prior_bytes,
                                        then=action.then)
                elif rule.nth is not None:
                    if rule.calls != rule.nth:
                        continue
                elif rule.probability is not None:
                    if self.rng.random() >= rule.probability:
                        continue
                rule.fired += 1
                self.history.append((op, target, action.kind))
                winner = action
            return winner

    # -- inspection ---------------------------------------------------------

    def fired(self, op: Optional[str] = None) -> int:
        """How many faults fired (optionally filtered by op)."""
        with self._lock:
            return sum(1 for entry in self.history
                       if op is None or entry[0] == op)

    def summary(self) -> Dict[str, int]:
        """``{"op:kind": count}`` of everything that fired."""
        with self._lock:
            counts: Dict[str, int] = {}
            for op, _target, kind in self.history:
                key = f"{op}:{kind}"
                counts[key] = counts.get(key, 0) + 1
            return counts

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
                f"fired={len(self.history)})")
