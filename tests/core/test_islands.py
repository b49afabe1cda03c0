"""Constraint-graph islands: the BFS partition and multi-island batches.

The contract under test:

* :func:`bfs_partition` returns the connected components of the raw
  constraint graph — links merge, removals split, control state is
  ignored, hierarchy duals connect class and instance variables;
* an ``assign_many`` batch spanning several islands is one fused round:
  an error raised in one island restores every island and re-raises.
"""

import pytest

from repro.core import (
    EqualityConstraint,
    PropagationContext,
    UniMaximumConstraint,
    UpperBoundConstraint,
    Variable,
    bfs_partition,
    control_for,
)


def names(partition):
    return [sorted(v.name for v in group) for group in partition]


def build_motifs(context, count):
    """Independent fig. 4.5 motifs: V1=V2, V4=max(V2, V3)."""
    entries, outputs = [], []
    for index in range(count):
        v1 = Variable(7, name=f"V1_{index}", context=context)
        v2 = Variable(7, name=f"V2_{index}", context=context)
        v3 = Variable(5, name=f"V3_{index}", context=context)
        v4 = Variable(7, name=f"V4_{index}", context=context)
        EqualityConstraint(v1, v2)
        UniMaximumConstraint(v4, [v2, v3])
        entries.append(v1)
        outputs.append(v4)
    return entries, outputs


def network_image(variables):
    """Values plus justification identity — the rollback contract."""
    return [(v.raw_value, v.last_set_by) for v in variables]


class ExplodingConstraint(UpperBoundConstraint):
    """A bound constraint that raises an unexpected error on demand."""

    detonate = False

    def immediate_inference_by_changing(self, variable):
        if self.detonate:
            raise RuntimeError("boom")
        super().immediate_inference_by_changing(variable)


class TestBfsPartition:
    def test_links_merge_and_removals_split(self):
        context = PropagationContext()
        chain = [Variable(name=f"v{i}", context=context) for i in range(4)]
        constraints = [EqualityConstraint(left, right)
                       for left, right in zip(chain, chain[1:])]
        assert names(bfs_partition(chain)) == [["v0", "v1", "v2", "v3"]]
        constraints[1].remove()
        assert names(bfs_partition(chain)) == [["v0", "v1"], ["v2", "v3"]]

    def test_control_state_does_not_split_islands(self):
        context = PropagationContext()
        a = Variable(name="a", context=context)
        b = Variable(name="b", context=context)
        constraint = EqualityConstraint(a, b)
        control_for(context).disable_constraint(constraint)
        assert names(bfs_partition([a, b])) == [["a", "b"]]

    def test_hierarchy_duals_join_class_and_instances(self):
        from repro.stem.implicit import ClassInstVar, InstanceInstVar

        context = PropagationContext()
        class_var = ClassInstVar(name="class", context=context)
        first = InstanceInstVar(name="first", context=context)
        second = InstanceInstVar(name="second", context=context)
        class_var.register_instance_var(first)
        class_var.register_instance_var(second)
        assert names(bfs_partition([first])) \
            == [["class", "first", "second"]]
        class_var.unregister_instance_var(second)
        assert names(bfs_partition([first, second])) \
            == [["class", "first"], ["second"]]


class TestBatchParity:
    @pytest.mark.parametrize("bystanders", [0, 4])
    def test_error_in_one_island_restores_and_reraises(self, bystanders):
        """A defective constraint raising in one island of a batch
        restores every island, values and justifications, and re-raises;
        islands outside the batch stay untouched, no violation is
        recorded and the network stays usable."""
        context = PropagationContext()
        entries, outputs = build_motifs(context, count=3 + bystanders)
        assert len(bfs_partition(entries)) == 3 + bystanders
        bomb = ExplodingConstraint(outputs[2], 1000)
        watched = entries + outputs
        before = network_image(watched)
        batch = [(entries[0], 9), (entries[2], 12)]

        bomb.detonate = True
        with pytest.raises(RuntimeError, match="boom"):
            context.assign_many(batch)
        assert network_image(watched) == before
        assert context.stats.violations == 0

        bomb.detonate = False
        assert context.assign_many(batch)
        assert outputs[0].value == 9 and outputs[2].value == 12
        assert [out.value for out in outputs[3:]] == [7] * bystanders
