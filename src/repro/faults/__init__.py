"""Deterministic fault injection for robustness testing.

The chaos harness of the repo: seeded :class:`FaultPlan` rules decide
*when* a fault fires (nth call, cumulative byte offset, probability),
injection adapters decide *where* —

:mod:`~repro.faults.plan`
    :class:`FaultPlan` / :class:`FaultRule` / :class:`Action` and the
    :class:`CrashPoint` simulated-``kill -9`` signal.
:class:`~repro.store.base.StoreGate`
    the storage adapter: every backend (``FileStore(root, plan=plan)``,
    ``SqliteStore(path, plan=plan)``, ``ObjectStore(root, plan=plan)``)
    consults its plan before each durable touch, injecting torn
    writes, ``fsync`` failures, ``ENOSPC`` and crash windows.
:mod:`~repro.faults.netproxy`
    :class:`StreamFaultProxy` — a frame-aware TCP proxy dropping,
    delaying, truncating or resetting JSON-line frames between
    :class:`~repro.session.client.SessionClient` and the server.

Everything here is test/tooling machinery.  With no plan installed a
store's gate consult only checks that the gate is alive: about
60–80 ns each (CPython 3.11, 2-vCPU x86 VM), three per fsynced journal
append.
"""

from .netproxy import StreamFaultProxy
from .plan import Action, CrashPoint, FaultPlan, FaultRule

__all__ = [
    "Action",
    "CrashPoint",
    "FaultPlan",
    "FaultRule",
    "StreamFaultProxy",
]
