"""FaultPlan semantics: determinism, counters, firing rules."""

import errno

from repro.faults import FaultPlan


class TestTriggers:
    def test_nth_counts_matching_calls_only(self):
        plan = FaultPlan()
        plan.fail("fsync", nth=3)
        assert plan.decide("fsync", "a") is None
        assert plan.decide("write", "a") is None  # different op: no count
        assert plan.decide("fsync", "b") is None
        action = plan.decide("fsync", "c")
        assert action is not None and action.kind == "error"
        assert plan.decide("fsync", "d") is None  # times=1 exhausted

    def test_pattern_scopes_the_rule(self):
        plan = FaultPlan()
        plan.fail("write", pattern="*wal-*", nth=1)
        assert plan.decide("write", "/tmp/checkpoint-7.json", 10) is None
        assert plan.decide("write", "/tmp/wal-000001.jsonl", 10) is not None

    def test_after_bytes_crossing_computes_torn_keep(self):
        plan = FaultPlan()
        plan.torn_write(at_byte=100, then="error")
        assert plan.decide("write", "f", 60) is None     # 0..60
        action = plan.decide("write", "f", 60)           # 60..120 crosses
        assert action is not None
        assert action.kind == "torn"
        assert action.keep == 40                         # 100 - 60
        assert plan.decide("write", "f", 60) is None     # already fired

    def test_probability_is_seeded_and_reproducible(self):
        def run(seed):
            plan = FaultPlan(seed)
            plan.fail("write", probability=0.5, times=None)
            return [plan.decide("write", "f", 1) is not None
                    for _ in range(64)]

        outcomes = run(7)
        assert outcomes == run(7)            # same seed, same faults
        assert any(outcomes) and not all(outcomes)
        assert outcomes != run(8)            # different seed differs

    def test_times_bounds_firing_not_matching(self):
        plan = FaultPlan()
        plan.fail("write", probability=1.0, times=2)
        fired = [plan.decide("write", "f", 1) is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_first_matching_rule_wins(self):
        plan = FaultPlan()
        plan.fail("write", errno=errno.ENOSPC, nth=1)
        plan.fail("write", errno=errno.EIO, nth=1)
        assert plan.decide("write", "f", 1).errno == errno.ENOSPC
        # Both rules counted the call: the second fires on its nth=1
        # having already *seen* one call — i.e. never.
        assert plan.decide("write", "f", 1) is None

    def test_history_and_summary(self):
        plan = FaultPlan()
        plan.fail_fsync()
        plan.drop("s2c", nth=1)
        plan.decide("fsync", "/j/wal-1.jsonl")
        plan.decide("s2c", "frame", 80)
        assert plan.fired() == 2
        assert plan.fired("fsync") == 1
        assert plan.summary() == {"fsync:error": 1, "s2c:drop": 1}
        assert plan.history[0] == ("fsync", "/j/wal-1.jsonl", "error")
