"""Island partitions of sessions: the stats frame and multi-module batches.

The server's ``stats`` frame reports ``islands`` and ``largest_island``,
computed on demand by BFS over the session's addressed variables, so
the counts depend only on the current network — not on the history of
edits that built it.  A batch spanning several disjoint modules runs as
one round and leaves every module's values as sequential assignment
would.
"""

import asyncio

from repro.core import ScaleOffsetConstraint, bfs_partition
from repro.session import Session
from repro.session.client import SessionClient
from repro.session.server import SessionServer


class TestServerFrames:
    def test_stats_frame_reports_island_partition(self, tmp_path):
        """Linking and then unlinking ``a`` and ``c`` leaves three
        singleton islands, whatever the edit history."""

        async def run():
            server = SessionServer(str(tmp_path))
            await server.start()

            def drive_client():
                with SessionClient(server.host, server.port) as client:
                    handle = client.session("s1")
                    a = handle.make_var("a")
                    b = handle.make_var("b")
                    c = handle.make_var("c")
                    handle.assign_many([(a, 1), (b, 2)])
                    cid = handle.add_constraint("equality", [a, c])
                    handle.remove_constraint(cid)
                    return handle.stats()
            try:
                return await asyncio.to_thread(drive_client)
            finally:
                await server.stop()

        frame = asyncio.run(run())
        stats = frame["stats"]
        assert list(stats) == sorted(stats)
        assert stats["islands"] == 3
        assert stats["largest_island"] == 1
        assert not any(key.startswith(("plan_", "island_"))
                       for key in stats)


class TestMultiModuleIntegration:
    def test_eight_module_hierarchy_batch(self):
        """One batch touching every module of a disjoint-module design
        runs as one round and settles each module's chain tail."""

        def build(session, modules=8, chain=16):
            heads = []
            tails = []
            for module in range(modules):
                variables = [session.make_variable(f"m{module}v{step}")
                             for step in range(chain)]
                for left, right in zip(variables, variables[1:]):
                    ScaleOffsetConstraint(right, left, offset=1)
                heads.append(variables[0])
                tails.append(variables[-1])
            return heads, tails

        with Session("modules") as session:
            heads, tails = build(session)
            variables = [v for _address, v in session.addressed_variables()]
            assert len(bfs_partition(variables)) == 8
            rounds = session.context.stats.rounds
            assert session.assign_many(
                [(head, 10 * k) for k, head in enumerate(heads)])
            assert session.context.stats.rounds == rounds + 1
            assert [v.value for v in tails] \
                == [10 * k + 15 for k in range(8)]
