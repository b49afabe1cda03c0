"""The PR-5 fault matrix, replayed against the sqlite and object backends.

Exactly the scenarios ``tests/session/test_fault_matrix.py`` runs on
the file layout — kill at every byte of the final append and of the
checkpoint write, crashes around the atomic publish, ENOSPC, fsync
failure, degraded mode — driven through each backend's
:class:`~repro.store.base.StoreGate` at virtual paths, as the file
backend's gate does at real ones.  Same fault plans, same byte
arithmetic, same invariant: recovery is fingerprint-identical to the
last acknowledged state on every backend.
"""

import pytest

from tests.session.storage_matrix import (
    OBJECT,
    SQLITE,
    scenario_checkpoint_enospc,
    scenario_checkpoint_rename_crash,
    scenario_checkpoint_tear_matrix,
    scenario_degraded_enospc,
    scenario_degraded_fsync,
    scenario_journal_tear_matrix,
    scenario_replay_determinism_under_budget,
    scenario_torn_write_error_rollback,
)

BACKENDS = [pytest.param(SQLITE, id="sqlite"),
            pytest.param(OBJECT, id="object")]


@pytest.mark.parametrize("backend", BACKENDS)
class TestJournalTearMatrix:
    def test_kill_at_every_byte_of_the_final_append(self, backend,
                                                    tmp_path):
        scenario_journal_tear_matrix(backend, tmp_path)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointCrashMatrix:
    def test_kill_at_every_byte_of_the_checkpoint_write(self, backend,
                                                        tmp_path):
        scenario_checkpoint_tear_matrix(backend, tmp_path)

    @pytest.mark.parametrize("window", ["replace", "replace-done"])
    def test_kill_around_the_atomic_rename(self, backend, tmp_path,
                                           window):
        scenario_checkpoint_rename_crash(backend, tmp_path, window)

    def test_checkpoint_write_error_keeps_session_alive(self, backend,
                                                        tmp_path):
        scenario_checkpoint_enospc(backend, tmp_path)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDegradedMode:
    def test_persistent_disk_error_degrades_to_read_only(self, backend,
                                                         tmp_path):
        scenario_degraded_enospc(backend, tmp_path)

    def test_fsync_failure_degrades_and_rolls_back_the_line(self, backend,
                                                            tmp_path):
        scenario_degraded_fsync(backend, tmp_path)

    def test_torn_write_with_error_rolls_back_the_partial_line(
            self, backend, tmp_path):
        scenario_torn_write_error_rollback(backend, tmp_path)


@pytest.mark.parametrize("backend", BACKENDS)
class TestReplayDeterminismUnderBudget:
    def test_budget_aborted_round_replays_identically(self, backend,
                                                      tmp_path):
        scenario_replay_determinism_under_budget(backend, tmp_path)
