"""Computation-space lifecycle: clone, commit, discard, fork."""

import pathlib
import shutil
import tempfile

import pytest

from repro.core import EqualityConstraint, UpperBoundConstraint, Variable
from repro.core.justification import TENTATIVE, USER
from repro.core.violations import ViolationHandler
from repro.obs import MetricsRegistry, Observer
from repro.session import Session
from repro.session.session import SessionError
from repro.spaces import Space, SpaceError

VAR_NAMES = ["a", "b", "c"]


@pytest.fixture
def directory():
    path = tempfile.mkdtemp(prefix="repro-space-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def make_session(directory, **kwargs):
    session = Session("space", directory=directory, fsync="never", **kwargs)
    for name in VAR_NAMES:
        session.make_variable(name)
    session.add_constraint("equality", ["v:a", "v:b"])
    return session


def journal_bytes(directory):
    return b"".join(
        segment.read_bytes()
        for segment in sorted(pathlib.Path(directory).glob("wal-*.jsonl")))


def linked_pair(context):
    a = Variable(name="a", context=context)
    b = Variable(name="b", context=context)
    EqualityConstraint(a, b)
    return a, b


class TestContextLifecycle:
    """Spaces over a bare PropagationContext (no session)."""

    def test_discard_restores_values_justifications_stats(self, context):
        a, b = linked_pair(context)
        a.set(1)
        snapshot = context.stats.snapshot()
        with Space(context) as space:
            assert space.assign(a, 7, TENTATIVE)
            assert a.value == 7 and b.value == 7
            assert a.last_set_by is TENTATIVE
        assert a.value == 1 and b.value == 1
        assert a.last_set_by is USER
        assert context.stats.snapshot() == snapshot

    def test_violation_stays_inside_the_space(self, context):
        a, b = linked_pair(context)
        UpperBoundConstraint(a, 10)
        captured = []

        class Collector(ViolationHandler):
            def handle(self, record):
                captured.append(record)

        context.handler = Collector()
        with Space(context) as space:
            assert not space.assign(a, 99)
            assert len(space.violations) == 1
            assert a.value is None  # round rolled back inside the space
        assert captured == []  # parent handler never saw it

    def test_rejected_assign_never_reaches_the_log(self, context):
        a, b = linked_pair(context)
        UpperBoundConstraint(a, 10)
        with Space(context) as space:
            assert space.assign(a, 5)
            assert not space.assign(b, 99)
            assert [(var.name, value) for var, value, _ in space.log] \
                == [("a", 5)]

    def test_commit_replays_log_on_parent(self, context):
        a, b = linked_pair(context)
        with Space(context) as space:
            assert space.assign(a, 7)
            assert space.commit()
        assert a.value == 7 and b.value == 7
        assert a.last_set_by is USER

    def test_empty_commit_is_a_no_op(self, context):
        a, b = linked_pair(context)
        a.set(1)
        with Space(context) as space:
            assert space.commit()
        assert a.value == 1

    def test_batch_assign_many_in_space(self, context):
        a, b = linked_pair(context)
        c = Variable(name="c", context=context)
        with Space(context) as space:
            assert space.assign_many([(a, 4), (c, 5)])
            assert a.value == 4 and b.value == 4 and c.value == 5
        assert a.value is None and c.value is None

    def test_closed_space_refuses_everything(self, context):
        a, _ = linked_pair(context)
        space = Space(context).open()
        space.discard()
        for operation in (lambda: space.assign(a, 1), space.discard,
                          space.commit, space.fork):
            with pytest.raises(SpaceError):
                operation()
        with pytest.raises(SpaceError):
            space.open()  # no reopening

    def test_second_root_space_on_same_context_refused(self, context):
        linked_pair(context)
        with Space(context):
            with pytest.raises(SpaceError):
                Space(context).open()

    def test_fork_merges_into_parent_space(self, context):
        a, b = linked_pair(context)
        c = Variable(name="c", context=context)
        with Space(context) as space:
            space.assign(a, 1)
            child = space.fork()
            assert child.depth == 2
            child.assign(c, 9)
            assert child.commit()          # merges into the parent space
            assert c.value == 9
            assert [(var.name, value) for var, value, _ in space.log] \
                == [("a", 1), ("c", 9)]
            assert space.commit()
        assert a.value == 1 and c.value == 9

    def test_fork_discard_returns_to_fork_point(self, context):
        a, b = linked_pair(context)
        with Space(context) as space:
            space.assign(a, 1)
            child = space.fork()
            child.assign(a, 2)
            assert a.value == 2
            child.discard()
            assert a.value == 1
            assert [(var.name, value) for var, value, _ in space.log] \
                == [("a", 1)]

    def test_parent_frozen_while_child_open(self, context):
        a, _ = linked_pair(context)
        with Space(context) as space:
            child = space.fork()
            with pytest.raises(SpaceError):
                space.assign(a, 1)
            with pytest.raises(SpaceError):
                space.commit()
            child.discard()
            assert space.assign(a, 1)

    def test_disabled_context_assignments_confirm_immediately(self, context):
        a, b = linked_pair(context)
        with Space(context) as space:
            with context.propagation_disabled():
                a.set(5)
            assert a.value == 5 and b.value is None  # stored, unpropagated
            assert [(var.name, value) for var, value, _ in space.log] \
                == [("a", 5)]
        assert a.value is None


class TestSessionSpace:
    def test_commit_journals_exactly_one_batch_frame(self, directory):
        with make_session(directory) as session:
            base = journal_bytes(directory).count(b'"op":"batch"')
            with session.space() as space:
                assert space.assign("v:a", 5)
                assert space.assign("v:c", 11)
                assert space.commit()
            session.sync()
            data = journal_bytes(directory)
            assert data.count(b'"op":"batch"') == base + 1
            assert session.get("v:a") == (5, USER)
            assert session.get("v:b")[0] == 5

    def test_discard_leaves_fingerprint_and_position_identical(
            self, directory):
        with make_session(directory) as session:
            session.assign("v:a", 1)
            before = session.fingerprint()
            position = session.position
            with session.space() as space:
                space.assign("v:a", 7)
                space.assign("v:c", 3)
            assert session.fingerprint() == before
            assert session.position == position

    def test_commit_equals_direct_assign_many(self, directory):
        directory_b = tempfile.mkdtemp(prefix="repro-space-twin-")
        try:
            with make_session(directory) as spacey, \
                    make_session(directory_b) as direct:
                with spacey.space() as space:
                    assert space.assign("v:a", 5)
                    assert space.assign("v:c", 11)
                    assert space.commit()
                assert direct.assign_many([("v:a", 5), ("v:c", 11)])
                assert spacey.fingerprint() == direct.fingerprint()
        finally:
            shutil.rmtree(directory_b, ignore_errors=True)

    def test_commit_replays_after_reopen(self, directory):
        with make_session(directory) as session:
            with session.space() as space:
                space.assign("v:a", 5)
                assert space.commit()
            fingerprint = session.fingerprint()
        with Session("space", directory=directory, fsync="never") as again:
            assert again.fingerprint() == fingerprint

    def test_undo_reverts_the_whole_committed_batch(self, directory):
        with make_session(directory) as session:
            with session.space() as space:
                space.assign("v:a", 5)
                space.assign("v:c", 11)
                assert space.commit()
            assert session.undo()
            assert session.get("v:a")[0] is None
            assert session.get("v:c")[0] is None
            assert session.redo()
            assert session.get("v:a")[0] == 5
            assert session.get("v:c")[0] == 11

    def test_history_and_structure_refused_while_open(self, directory):
        with make_session(directory) as session:
            session.assign("v:a", 1)
            with session.space() as space:
                for operation in (
                        session.undo, session.redo, session.checkpoint,
                        lambda: session.make_variable("d"),
                        lambda: session.add_constraint(
                            "equality", ["v:a", "v:c"]),
                        lambda: session.retract("v:a")):
                    with pytest.raises(SessionError):
                        operation()
                space.assign("v:a", 2)
            # everything works again after the space closes
            assert session.undo()
            assert session.redo()

    def test_read_only_session_refuses_spaces(self, directory):
        with make_session(directory) as session:
            session.checkpoint()
        read_only = Session("space", directory=directory, read_only=True)
        try:
            with pytest.raises(SessionError):
                read_only.space()
        finally:
            read_only.close()

    def test_violating_space_round_not_in_parent_log(self, directory):
        with make_session(directory) as session:
            session.add_constraint("upper-bound", ["v:a"], params={"bound": 10})
            before = session.fingerprint()
            with session.space() as space:
                assert not space.assign("v:a", 99)
                assert len(space.violations) == 1
            assert session.violations == []
            assert session.fingerprint() == before


class TestObserverMetrics:
    def test_space_lifecycle_counters(self, context):
        a, _ = linked_pair(context)
        registry = MetricsRegistry()
        observer = Observer(context, metrics=registry).install()
        try:
            with Space(context) as space:
                space.assign(a, 1)
                child = space.fork()
                child.discard()
                space.commit()
            with Space(context):
                pass
        finally:
            observer.uninstall()
        snapshot = registry.snapshot()
        assert snapshot["engine.space.clone"] == 2
        assert snapshot["engine.space.fork"] == 1
        assert snapshot["engine.space.commit"] == 1
        assert snapshot["engine.space.discard"] == 2
        assert snapshot["engine.space.nest_depth"]["value"] == 0
