"""The fault matrix: simulated kill -9 at every byte boundary.

Two exhaustive sweeps — one over the final journal append, one over the
checkpoint temp-file write — plus the crash windows around the atomic
``os.replace`` and the degraded-mode (persistent disk error) paths.  The
invariant everywhere: recovery lands fingerprint-identical to the last
*committed* (acknowledged) state, never a hybrid.

The scenarios live in :mod:`storage_matrix` so the exact same sweeps
run against the sqlite and object backends too
(``tests/store/test_backend_matrix.py``); this module drives them
through the ``file`` backend — its
:class:`~repro.store.base.StoreGate` at the real paths of the original
on-disk layout, byte for byte.
"""

import pytest

from tests.session.storage_matrix import (
    FILE,
    scenario_checkpoint_enospc,
    scenario_checkpoint_rename_crash,
    scenario_checkpoint_tear_matrix,
    scenario_degraded_enospc,
    scenario_degraded_fsync,
    scenario_journal_tear_matrix,
    scenario_replay_determinism_under_budget,
    scenario_torn_write_error_rollback,
)


class TestJournalTearMatrix:
    def test_kill_at_every_byte_of_the_final_append(self, tmp_path):
        scenario_journal_tear_matrix(FILE, tmp_path)


class TestCheckpointCrashMatrix:
    def test_kill_at_every_byte_of_the_checkpoint_write(self, tmp_path):
        scenario_checkpoint_tear_matrix(FILE, tmp_path)

    @pytest.mark.parametrize("window", ["replace", "replace-done"])
    def test_kill_around_the_atomic_rename(self, tmp_path, window):
        scenario_checkpoint_rename_crash(FILE, tmp_path, window)

    def test_checkpoint_write_error_keeps_session_alive(self, tmp_path):
        scenario_checkpoint_enospc(FILE, tmp_path)


class TestDegradedMode:
    def test_persistent_disk_error_degrades_to_read_only(self, tmp_path):
        scenario_degraded_enospc(FILE, tmp_path)

    def test_fsync_failure_degrades_and_rolls_back_the_line(self, tmp_path):
        scenario_degraded_fsync(FILE, tmp_path)

    def test_torn_write_with_error_rolls_back_the_partial_line(
            self, tmp_path):
        scenario_torn_write_error_rollback(FILE, tmp_path)


class TestReplayDeterminismUnderBudget:
    def test_budget_aborted_round_replays_identically(self, tmp_path):
        scenario_replay_determinism_under_budget(FILE, tmp_path)
