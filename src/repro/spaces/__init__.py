"""Computation spaces: speculative what-if exploration.

A :class:`~repro.spaces.space.Space` is an encapsulated child universe
over a :class:`~repro.core.engine.PropagationContext` — it accepts
ordinary assignment rounds and either commits them to the parent as one
journaled batch or discards without a trace.
"""

from .space import Space, SpaceError

__all__ = ["Space", "SpaceError"]
