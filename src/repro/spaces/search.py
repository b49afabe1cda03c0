"""Parallel generate-and-test module selection over computation spaces.

Chapter 8's :class:`~repro.selection.selector.ModuleSelector` probes
candidate realizations *in place* (``can_be_set_to`` silent rounds on the
live design).  This driver lifts the same generate-and-test search onto
:class:`~repro.spaces.space.Space` so that

* every tentative test runs inside an encapsulated space
  (:class:`SpaceSelector`) — the live design, its session journal and
  its stats are untouched by the whole search,
* candidates can be evaluated **in parallel** over read-mostly clones of
  the design (thread pool over deep copies, or copy-on-write ``fork``
  processes), with violating branches pruned exactly like the
  sequential selector's subtree pruning,
* survivors are ranked by the existing
  :class:`~repro.selection.ranking.RankedSelector` merit scoring, so the
  parallel search returns the **identical ranked result set** as the
  sequential in-place generate-and-test.

The parallel discipline is two-phase over the enumerated candidate tree:
phase 1 tests the generic intermediate classes (their ideal
characteristics), phase 2 tests every leaf whose generic ancestors all
survived.  Because tentative tests are read-only on the shared
structure, testing a pruned subtree's members in parallel with its
ancestor cannot change the *result set* — only the amount of wasted
work — so the two-phase result equals the sequential depth-first one.

Process workers use the ``fork`` start method only (copy-on-write, no
pickling) and leave via ``os._exit`` so they can never flush a buffered
session journal inherited from the parent.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.justification import TENTATIVE
from ..core.violations import WarningHandler
from ..selection.ranking import CandidateScore, RankedSelector
from ..selection.selector import DEFAULT_PRIORITIES, ModuleSelector
from ..stem.cell import CellClass, CellInstance
from .space import Space

__all__ = ["SpaceSelector", "SearchStats", "SpaceSearchResult",
           "enumerate_candidates", "search_realizations"]


class SpaceSelector(ModuleSelector):
    """Module selection whose tentative tests run in computation spaces.

    Each acceptance test opens a space on the variable's context (or
    forks the currently open one), performs an ordinary ``#TENTATIVE``
    assignment, and discards — so acceptance is decided by full
    constraint propagation, violations are captured space-locally, and
    the parent universe (values, stats, session journal) is untouched.
    Result-equivalent to the base selector's ``can_be_set_to`` probing.
    """

    def _accepts(self, variable: Any, value: Any) -> bool:
        context = variable.context
        shadow = context.shadow
        if isinstance(shadow, Space):
            space = shadow.fork()
        else:
            space = Space(context).open()
        try:
            return space.assign(variable, value, TENTATIVE)
        finally:
            if not space.closed:
                space.discard()


class _Node(NamedTuple):
    """One enumerated candidate-tree node, in depth-first order."""

    cell: CellClass
    parent: int      # index of the parent node, -1 for top-level
    depth: int       # 1 = direct subclass of the generic root
    is_generic: bool


class SearchStats:
    """Bookkeeping for one space search."""

    def __init__(self) -> None:
        self.candidates = 0        # enumerated tree nodes
        self.evaluated = 0         # nodes actually tested
        self.pruned_subtrees = 0   # generic intermediates that failed
        self.workers = 1
        self.backend = "serial"

    def __repr__(self) -> str:
        return (f"SearchStats(candidates={self.candidates}, "
                f"evaluated={self.evaluated}, "
                f"pruned={self.pruned_subtrees}, "
                f"workers={self.workers}, backend={self.backend!r})")


class SpaceSearchResult(NamedTuple):
    """Outcome of :func:`search_realizations`."""

    ranking: List[CandidateScore]
    valid: List[CellClass]
    stats: SearchStats


def enumerate_candidates(instance: CellInstance) -> List[_Node]:
    """Depth-first enumeration of the realization tree under the
    instance's (generic) class — the *generate* half of the search."""
    cell = instance.cell_class
    nodes: List[_Node] = []
    if not cell.is_generic:
        nodes.append(_Node(cell, -1, 1, False))
        return nodes

    def visit(candidate: CellClass, parent: int, depth: int) -> None:
        index = len(nodes)
        nodes.append(_Node(candidate, parent, depth, candidate.is_generic))
        if candidate.is_generic:
            for subclass in candidate.subclasses:
                visit(subclass, index, depth + 1)

    for subclass in cell.subclasses:
        visit(subclass, -1, 1)
    return nodes


# -- candidate evaluation (the *test* half) ---------------------------------


def _evaluate_indices(instance: CellInstance, cells: Sequence[CellClass],
                      indices: Sequence[int],
                      priorities: Sequence[str]) -> List[Tuple[int, bool]]:
    """Test the given candidate indices against ``instance``; every
    tentative assignment runs inside a discarded computation space."""
    selector = SpaceSelector(priorities, prune=False)
    return [(index,
             selector.is_valid_realization_for(cells[index], instance))
            for index in indices]


def _chunk(indices: Sequence[int], workers: int) -> List[List[int]]:
    chunks: List[List[int]] = [[] for _ in range(workers)]
    for position, index in enumerate(indices):
        chunks[position % workers].append(index)
    return [chunk for chunk in chunks if chunk]


def _detach_hooks(context: Any) -> None:
    """Disconnect a (cloned or forked) context from the parent's
    journal, metrics, tracer and open spaces."""
    context.recorder = None
    context.observer = None
    context.tracer = None
    context.shadow = None
    context.handler = WarningHandler()


def _map_serial(instance: CellInstance, cells: Sequence[CellClass],
                indices: Sequence[int],
                priorities: Sequence[str]) -> Dict[int, bool]:
    return dict(_evaluate_indices(instance, cells, indices, priorities))


def _map_threads(instance: CellInstance, cells: Sequence[CellClass],
                 indices: Sequence[int], priorities: Sequence[str],
                 workers: int) -> Dict[int, bool]:
    """Thread pool over per-worker deep clones of the design.

    Each worker gets its own structural clone (instance + candidate
    classes + the whole connected context), so spaces in one worker
    never race another's.  The live context's hooks are detached for
    the duration of the copy so clones never share a journal or
    observer with the parent.
    """
    context = instance.cell_class.context
    saved = (context.recorder, context.observer, context.tracer,
             context.shadow, context.handler)
    _detach_hooks(context)
    try:
        clones = [copy.deepcopy((instance, list(cells)))
                  for _ in range(workers)]
    finally:
        (context.recorder, context.observer, context.tracer,
         context.shadow, context.handler) = saved

    chunks = _chunk(indices, workers)
    results: Dict[int, bool] = {}
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            pool.submit(_evaluate_indices, clone_instance, clone_cells,
                        chunk, priorities)
            for (clone_instance, clone_cells), chunk in zip(clones, chunks)
        ]
        for future in futures:
            results.update(future.result())
    return results


def _fork_worker(instance: CellInstance, cells: Sequence[CellClass],
                 indices: Sequence[int], priorities: Sequence[str],
                 conn: Any) -> None:
    """Evaluate one chunk in a forked child and exit without cleanup.

    The child's memory is a copy-on-write snapshot of the parent: the
    design is already here, no pickling happened.  Hooks are detached
    *in the child* so its spaces never touch the (inherited) journal,
    and the child leaves via ``os._exit`` so inherited buffered files —
    notably an ``fsync="never"`` session journal sharing the parent's
    file offset — are never flushed from this process.
    """
    status = 1
    try:
        _detach_hooks(instance.cell_class.context)
        conn.send(_evaluate_indices(instance, cells, indices, priorities))
        conn.close()
        status = 0
    finally:
        os._exit(status)


def _map_forks(instance: CellInstance, cells: Sequence[CellClass],
               indices: Sequence[int], priorities: Sequence[str],
               workers: int) -> Dict[int, bool]:
    """Copy-on-write process pool via the ``fork`` start method."""
    ctx = multiprocessing.get_context("fork")
    chunks = _chunk(indices, workers)
    jobs = []
    for chunk in chunks:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_fork_worker,
                           args=(instance, cells, chunk, priorities,
                                 child_conn))
        proc.start()
        child_conn.close()
        jobs.append((proc, parent_conn, chunk))
    results: Dict[int, bool] = {}
    failed: List[int] = []
    for proc, parent_conn, chunk in jobs:
        try:
            results.update(parent_conn.recv())
        except EOFError:
            failed.extend(chunk)
        finally:
            parent_conn.close()
            proc.join()
    if failed:  # a worker died: evaluate its chunk here, don't lose results
        results.update(_map_serial(instance, cells, failed, priorities))
    return results


def _resolve_backend(backend: str, workers: int) -> str:
    if backend not in ("auto", "serial", "thread", "fork"):
        raise ValueError(f"unknown search backend: {backend!r}")
    if workers <= 1:
        return "serial"
    if backend == "auto":
        if "fork" in multiprocessing.get_all_start_methods():
            return "fork"
        return "thread"
    return backend


def _run_phase(instance: CellInstance, cells: Sequence[CellClass],
               indices: Sequence[int], priorities: Sequence[str],
               workers: int, backend: str) -> Dict[int, bool]:
    if not indices:
        return {}
    if backend == "serial" or len(indices) == 1:
        return _map_serial(instance, cells, indices, priorities)
    if backend == "thread":
        return _map_threads(instance, cells, indices, priorities, workers)
    return _map_forks(instance, cells, indices, priorities, workers)


# -- driver -----------------------------------------------------------------


def search_realizations(instance: CellInstance, *,
                        weights: Optional[Dict[str, float]] = None,
                        priorities: Sequence[str] = DEFAULT_PRIORITIES,
                        prune: bool = True,
                        workers: int = 1,
                        backend: str = "auto") -> SpaceSearchResult:
    """Parallel generate-and-test module selection over spaces.

    Enumerates the candidate realization tree of ``instance``'s generic
    class, tests generic intermediates first (phase 1; a failing
    intermediate prunes its subtree exactly like the sequential
    selector), tests the surviving leaves (phase 2), and ranks the valid
    leaves with :class:`~repro.selection.ranking.RankedSelector` —
    returning the identical ranked list as
    ``RankedSelector(weights, priorities, prune).rank(instance)`` while
    leaving the live design byte-identical.

    Parameters
    ----------
    workers:
        Parallel evaluators per phase; ``1`` forces serial.
    backend:
        ``"serial"``, ``"thread"`` (deep-clone workers), ``"fork"``
        (copy-on-write process workers) or ``"auto"`` (fork when the
        platform supports it, else thread).
    """
    stats = SearchStats()
    stats.backend = _resolve_backend(backend, workers)
    stats.workers = 1 if stats.backend == "serial" else workers
    ranker = RankedSelector(weights, priorities, prune)
    if not instance.cell_class.is_generic:
        # Parity with ``select_realizations_for``: a concrete class is
        # its own (untested) realization.
        stats.candidates = 1
        valid = [instance.cell_class]
        return SpaceSearchResult(ranker.rank_candidates(instance, valid),
                                 valid, stats)
    nodes = enumerate_candidates(instance)
    stats.candidates = len(nodes)
    observer = instance.cell_class.context.observer

    failed_generics: set = set()
    if prune:
        generic_indices = [index for index, node in enumerate(nodes)
                           if node.is_generic]
        phase1 = _run_phase(instance, [node.cell for node in nodes],
                            generic_indices, priorities,
                            stats.workers, stats.backend)
        stats.evaluated += len(phase1)
        failed_generics = {index for index, ok in phase1.items() if not ok}
        stats.pruned_subtrees = len(failed_generics)
        if observer is not None:
            hook = getattr(observer, "space_event", None)
            if hook is not None and failed_generics:
                hook("prune", len(failed_generics))
            depth_hook = getattr(observer, "space_depth", None)
            if depth_hook is not None:
                for index in failed_generics:
                    depth_hook("prune", nodes[index].depth)

    def unpruned(index: int) -> bool:
        parent = nodes[index].parent
        while parent != -1:
            if parent in failed_generics:
                return False
            parent = nodes[parent].parent
        return True

    leaf_indices = [index for index, node in enumerate(nodes)
                    if not node.is_generic and unpruned(index)]
    phase2 = _run_phase(instance, [node.cell for node in nodes],
                        leaf_indices, priorities,
                        stats.workers, stats.backend)
    stats.evaluated += len(phase2)

    valid = [nodes[index].cell for index in leaf_indices
             if phase2.get(index)]
    ranking = ranker.rank_candidates(instance, valid)
    return SpaceSearchResult(ranking, valid, stats)
