"""Degraded-journal observability: the alertable signal for fleets.

When a persistent disk error freezes a session's journal read-only,
the installed observer must see it — a ``session.journal.degraded``
counter bump plus a ``journal-degraded`` instant mark carrying the
error — exactly once per degradation, on every backend.
"""

import pytest

from repro.faults import FaultPlan
from repro.obs import Observer
from repro.session import JournalDegraded, Session
from repro.store import FileStore, SqliteStore


def degrade(session, plan):
    session.make_variable("x")
    session.assign("v:x", 1)
    plan.enospc("write", pattern="*wal-*")  # persistent from now on
    with pytest.raises(JournalDegraded):
        session.assign("v:x", 2)
    assert session.degraded


class TestDegradedSignal:
    def test_counter_and_instant_mark_fire_once(self, tmp_path):
        plan = FaultPlan()
        store = FileStore(str(tmp_path), plan=plan)
        session = Session("metrics", store=store.session("metrics"))
        with Observer.full(session.context) as obs:
            degrade(session, plan)
            # Further refused mutations do not re-count: the session
            # degraded once, alerts should fire once.
            with pytest.raises(JournalDegraded):
                session.assign("v:x", 3)
        assert obs.metrics.counter("session.journal.degraded").value == 1
        marks = [mark for mark in obs.spans.instants
                 if mark.name == "journal-degraded"]
        assert len(marks) == 1
        session.close()

    def test_signal_fires_on_a_non_file_backend_too(self, tmp_path):
        plan = FaultPlan()
        store = SqliteStore(str(tmp_path / "sessions.db"), plan=plan)
        session = Session("metrics", store=store.session("metrics"))
        with Observer.full(session.context) as obs:
            degrade(session, plan)
        assert obs.metrics.counter("session.journal.degraded").value == 1
        session.close()
        store.close()
