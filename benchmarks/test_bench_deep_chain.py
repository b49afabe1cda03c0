"""Deep-chain propagation: depth limited by memory, not the C stack.

The recursive engine burned one interpreter frame per ``spread ->
propagate_variable -> set_propagated`` hop and pre-raised the recursion
limit by 50k per round; chains deeper than the headroom were simply
impossible.  The wavefront engine iterates an explicit frame stack, so
chain depth is bounded only by heap memory.  These benchmarks drive full
value changes down equality chains of 1k / 10k / 100k constraints — the
100k case is ~100x deeper than CPython's default recursion limit.
"""

import itertools
import sys

import pytest

from repro.core import EqualityConstraint, Variable


def build_chain(length):
    variables = [Variable(name=f"v{i}") for i in range(length + 1)]
    for left, right in zip(variables, variables[1:]):
        EqualityConstraint(left, right)
    return variables


@pytest.mark.parametrize("length", [1_000, 10_000])
def test_bench_deep_chain(benchmark, length):
    variables = build_chain(length)
    values = itertools.cycle([1, 2])
    benchmark(lambda: variables[0].set(next(values)))
    assert variables[-1].value == variables[0].value


def test_bench_very_deep_chain_100k(benchmark):
    """A 100k-constraint chain propagates on the stock interpreter stack."""
    length = 100_000
    limit_before = sys.getrecursionlimit()
    variables = build_chain(length)
    values = itertools.cycle([1, 2])
    benchmark.pedantic(lambda: variables[0].set(next(values)),
                       rounds=3, iterations=1, warmup_rounds=1)
    assert variables[-1].value == variables[0].value
    assert sys.getrecursionlimit() == limit_before
