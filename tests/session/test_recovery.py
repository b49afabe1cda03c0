"""Crash recovery: SIGKILL mid-burst, torn tails, acknowledged-prefix
equivalence.

The contract under test (docs/sessions.md): any mutation *acknowledged*
(its journal append returned) survives ``kill -9``; a torn final journal
entry — the one being appended at the moment of death — is truncated on
recovery, never fatal; and the recovered state equals a reference run of
the surviving journal prefix through the public API.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.session import Session
from repro.session.journal import read_entries, scan_segments

CHILD = textwrap.dedent("""
    import sys
    from repro.session import Session

    directory, ack_path = sys.argv[1], sys.argv[2]
    session = Session("crash", directory=directory, fsync="always")
    session.make_variable("x")
    session.make_variable("y")
    session.make_variable("total")
    session.add_constraint("sum", ["v:total", "v:x", "v:y"])
    ack = open(ack_path, "w")
    for i in range(100000):
        session.assign("v:x", i)
        session.assign("v:y", 2 * i)
        ack.write(f"{i}\\n")
        ack.flush()
""")


def rebuild_reference(directory):
    """Re-run the surviving journal through the public API — an
    independent reference for what recovery must reproduce."""
    reference = Session("crash")
    for entry in read_entries(str(directory), repair=False):
        reference._apply_entry(entry)
        reference._last_seq = entry["seq"]
    return reference


@pytest.mark.slow
def test_sigkill_mid_burst_recovers_acknowledged_prefix(tmp_path):
    directory = tmp_path / "crash"
    ack_path = tmp_path / "ack"
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(directory), str(ack_path)],
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(sys.path)})
    try:
        deadline = time.time() + 30
        while time.time() < deadline:
            if ack_path.exists() and len(ack_path.read_bytes()) > 40:
                break
            time.sleep(0.01)
        else:
            pytest.fail("child made no progress")
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()

    acked = [int(line) for line in ack_path.read_text().split()]
    assert acked, "no acknowledged assignments"
    last_acked = acked[-1]

    recovered = Session("crash", directory=str(directory), read_only=True)
    # Every acknowledged assignment survived: the journal holds at least
    # the acked prefix (x=last_acked was acked after y=2*(last_acked-1)).
    x_value = recovered.get("v:x")[0]
    assert x_value >= last_acked
    assert recovered.get("v:total")[0] == \
        recovered.get("v:x")[0] + recovered.get("v:y")[0]
    # The recovered state equals an independent replay of the journal.
    reference = rebuild_reference(directory)
    assert recovered.fingerprint() == reference.fingerprint()
    recovered.close()
    reference.close()


def test_torn_final_entry_is_truncated_on_recovery(tmp_path):
    with Session("t", directory=str(tmp_path), fsync="never") as session:
        session.make_variable("x")
        for i in range(5):
            session.assign("v:x", i)
        live = session.fingerprint()
    # simulate a crash mid-append: garbage half-line at the journal tail
    _, tail = scan_segments(str(tmp_path))[-1]
    with open(tail, "ab") as handle:
        handle.write(b'12345678 {"op":"assign","var":"v:x","val')
    with Session("t", directory=str(tmp_path), fsync="never") as recovered:
        assert recovered.fingerprint() == live
        # and the session keeps working — the torn bytes were removed
        recovered.assign("v:x", 99)
        assert recovered.get("v:x")[0] == 99


def test_recovery_is_idempotent(tmp_path):
    with Session("t", directory=str(tmp_path), fsync="never") as session:
        session.make_variable("x", 1)
        session.assign("v:x", 2)
        session.checkpoint()
        session.assign("v:x", 3)
    fingerprints = []
    for _ in range(3):
        with Session("t", directory=str(tmp_path),
                     read_only=True) as recovered:
            fingerprints.append(recovered.fingerprint())
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]


def test_acknowledged_means_durable_even_without_close(tmp_path):
    # Session deliberately not closed — simulates process death after
    # the journal append returned (fsync="always" contract).
    session = Session("t", directory=str(tmp_path), fsync="always")
    session.make_variable("x")
    session.assign("v:x", 42)
    del session  # no close(), no flush beyond what append guarantees
    with Session("t", directory=str(tmp_path), read_only=True) as recovered:
        assert recovered.get("v:x")[0] == 42


class TestSignalTypesAcrossCheckpoint:
    """A checkpoint taken after io-signals exist recovers the typing
    variables' justifications, not just their values."""

    @staticmethod
    def recovered_fingerprints(tmp_path, typed):
        from repro.stem.types import INTEGER_SIGNAL

        directory = str(tmp_path / "typed")
        session = Session("typed", directory=directory, fsync="never")
        session.define_cell("A")
        session.define_signal("A", "i", "in")
        session.define_signal("A", "o", "out")
        if typed:
            assert session.assign("c:A:i.dataType", INTEGER_SIGNAL)
        session.checkpoint()
        live = session.fingerprint()
        session.close()
        reopened = Session("typed", directory=directory, fsync="never")
        try:
            return live, reopened.fingerprint()
        finally:
            reopened.close()

    def test_unset_types_recover_unset(self, tmp_path):
        live, recovered = self.recovered_fingerprints(tmp_path, False)
        assert recovered == live
        assert live["variables"]["c:A:o.dataType"] == {"value": None,
                                                       "just": None}

    def test_designer_type_recovers_as_user(self, tmp_path):
        live, recovered = self.recovered_fingerprints(tmp_path, True)
        assert recovered == live
        assert recovered["variables"]["c:A:i.dataType"]["just"] == "#USER"
