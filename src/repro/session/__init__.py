"""Durable design sessions over the constraint engine.

The thesis's STEM is a *shared design database* (sections 1.2, 6.3):
designers mutate it incrementally and dependency records make every
mutation traceable and reversible.  This package supplies the durability
and concurrency spine for that framing:

:mod:`~repro.session.journal`
    write-ahead journal — CRC-checked JSON-line segments, fsync policy,
    atomic rotation, torn-tail repair.
:mod:`~repro.session.session`
    :class:`~repro.session.session.Session` — journaled mutations,
    checkpoint/restore, deterministic replay, undo/redo.
:mod:`~repro.session.codec`
    stable addresses and value/justification encodings.
:mod:`~repro.session.manager` / :mod:`~repro.session.server` /
:mod:`~repro.session.client`
    N concurrent isolated sessions behind a JSON-line TCP server
    (``repro serve``).
"""

from .codec import EncodingError, UnknownAddress
from .journal import (
    JournalCorrupt,
    JournalDegraded,
    JournalTailGap,
    JournalWriter,
    read_entries,
)
from .manager import SessionManager
from .retry import RetryPolicy
from .session import (
    CONSTRAINT_TYPES,
    Session,
    SessionError,
    register_constraint_type,
)

__all__ = [
    "CONSTRAINT_TYPES",
    "EncodingError",
    "JournalCorrupt",
    "JournalDegraded",
    "JournalTailGap",
    "JournalWriter",
    "RetryPolicy",
    "Session",
    "SessionError",
    "SessionManager",
    "UnknownAddress",
    "read_entries",
    "register_constraint_type",
]
