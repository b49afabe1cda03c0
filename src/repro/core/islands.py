"""Constraint-graph islands — the connected components of a network.

A multi-module design hierarchy is many weakly-coupled subgraphs: the
propagation wavefront started by an assignment can only ever reach
variables *connected* to the entry variable through constraints.  Those
components are called **islands**.  :func:`bfs_partition` computes them
on demand for the ``stats`` frame and ``repro stats`` / ``repro islands``.

The partition is over the *raw* constraint graph, ignoring
:class:`~repro.core.control.PropagationControl` state: a disabled
constraint's edge keeps its endpoints in one island.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

__all__ = ["bfs_partition", "island_stats"]


def bfs_partition(variables: Any) -> List[List[Any]]:
    """The islands reachable from ``variables``, by breadth-first search.

    Walks ``all_constraints``/``arguments`` edges from every given
    variable and returns the connected components (each component's
    variables in visit order, components in the order of their first
    given variable).
    """
    seen: Set[int] = set()
    components: List[List[Any]] = []
    for variable in variables:
        if id(variable) in seen:
            continue
        component: List[Any] = []
        frontier = [variable]
        seen.add(id(variable))
        while frontier:
            node = frontier.pop()
            component.append(node)
            for constraint in node.all_constraints():
                for argument in getattr(constraint, "arguments", ()):
                    if id(argument) not in seen:
                        seen.add(id(argument))
                        frontier.append(argument)
        components.append(component)
    return components


def island_stats(partition: List[List[Any]]) -> Dict[str, int]:
    """``islands`` and ``largest_island`` of a partition, in sorted-key
    order."""
    return {"islands": len(partition),
            "largest_island": max(map(len, partition), default=0)}
