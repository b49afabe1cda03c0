"""Pluggable durable storage backends for design sessions.

The session layer performs every durable touch — journal segment
appends, rotations, fsyncs, checkpoint publishes, replay reads,
pruning, torn-tail repair — through the :class:`SegmentStore` /
:class:`SessionStore` interface defined in :mod:`repro.store.base`.
Three backends implement it:

``file``  (:class:`FileStore`)
    The original file-per-segment layout, byte-identical on disk.
``sqlite``  (:class:`SqliteStore`)
    One sqlite database per session root (WAL mode); segments are
    rows, checkpoint publish is transactional.
``object``  (:class:`ObjectStore`)
    An S3-style object store over a local-directory emulator with
    injectable latency/fault hooks and listing lag, proving the
    interface against eventual-visibility and partial-upload
    semantics.

On top of the interface live tiered snapshot compaction
(:mod:`repro.store.compact`) and the anti-entropy scrub/repair pass
(:mod:`repro.store.scrub`); those import the session layer, so they
are submodules rather than package-level re-exports.

``resolve_store`` maps the CLI's ``--store file|sqlite|object[:path]``
grammar onto a backend instance.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from .base import (
    SegmentAppender,
    SegmentStore,
    SessionStore,
    StoreGate,
    load_latest_checkpoint,
    prune_checkpoints,
    prune_to_checkpoints,
    read_store_entries,
    store_tail_lines,
)
from .filestore import FileSessionStore, FileStore
from .objectstore import ObjectEmulator, ObjectSessionStore, ObjectStore
from .sqlitestore import SqliteSessionStore, SqliteStore

__all__ = [
    "FileSessionStore",
    "FileStore",
    "ObjectEmulator",
    "ObjectSessionStore",
    "ObjectStore",
    "STORE_BACKENDS",
    "SegmentAppender",
    "SegmentStore",
    "SessionStore",
    "SqliteSessionStore",
    "SqliteStore",
    "StoreGate",
    "load_latest_checkpoint",
    "prune_checkpoints",
    "prune_to_checkpoints",
    "read_store_entries",
    "resolve_store",
    "store_tail_lines",
]

#: Backend names accepted by ``--store`` (and :func:`resolve_store`).
STORE_BACKENDS = ("file", "sqlite", "object")


def resolve_store(spec: Optional[str], root: str,
                  opener: Any = None) -> SegmentStore:
    """Build the backend a ``--store`` spec names, rooted at ``root``.

    ``spec`` is ``None``/``"file"``, ``"sqlite"``, ``"object"``, or any
    of those with an explicit location after a colon
    (``sqlite:/var/db/sessions.db``, ``object:/mnt/bucket``).  A bare
    path with no recognized backend prefix is a file root.
    """
    if spec is None or spec == "file":
        return FileStore(root, opener=opener)
    name, _, location = spec.partition(":")
    if name == "file":
        return FileStore(location or root, opener=opener)
    if name == "sqlite":
        return SqliteStore(location or os.path.join(root, "sessions.db"))
    if name == "object":
        return ObjectStore(location or os.path.join(root, ".objects"))
    raise ValueError(
        f"unknown store backend {name!r}; expected one of "
        f"{'|'.join(STORE_BACKENDS)} (optionally with ':<path>')")
