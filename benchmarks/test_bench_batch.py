"""Batched rounds and vectorized sweeps versus sequential rounds.

Measured on a fig. 4.5-derived network (32 independent equality/maximum
motifs) and on fig. 4.5 itself:

* a **32-assign batch** submitted through
  :meth:`~repro.core.engine.PropagationContext.assign_many` runs as one
  general round — one seed per entry, one satisfaction sweep — beside
  the same 32 assignments as 32 sequential general rounds; the two
  medians are reported side by side (``docs/performance.md``);
* a **10k-candidate sweep** through :func:`~repro.core.sweep.sweep`
  evaluates the whole candidate array in a handful of array ops and
  must be ≥10x faster than asking the same question with 10k
  propagation rounds;
* the sweep's numpy and stdlib backends are **byte-identical** on the
  IEEE-754 level (``struct.pack`` comparison), so CI legs with and
  without numpy verify the same numbers.

Speedup assertions use the best-of-N wall time of each side measured in
the same process, so they hold on noisy CI machines; the ``benchmark``
fixtures additionally feed the medians into ``BENCH_PROP.json``.
"""

import itertools
import struct
from time import perf_counter

import pytest

from repro.core import (
    EqualityConstraint,
    HAVE_NUMPY,
    UniMaximumConstraint,
    UpperBoundConstraint,
    Variable,
    compile_sweep,
)

MOTIFS = 32
SWEEP_CANDIDATES = 10_000


def build_motifs(count=MOTIFS, context=None):
    """``count`` independent copies of the thesis's fig. 4.5 network."""
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


def build_fig4_5():
    v1 = Variable(7, name="V1")
    v2 = Variable(7, name="V2")
    v3 = Variable(5, name="V3")
    v4 = Variable(7, name="V4")
    EqualityConstraint(v1, v2)
    UniMaximumConstraint(v4, [v2, v3])
    return v1, v2, v3, v4


def best_of(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        elapsed = perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


# -- batched rounds ----------------------------------------------------------

def test_bench_batch_general_round(benchmark, context):
    """The general batched round: seed, drain, one sweep."""
    entries, outputs = build_motifs()
    values = itertools.cycle([9, 8])

    def batch_round():
        value = next(values)
        context.assign_many([(entry, value) for entry in entries])

    benchmark(batch_round)
    assert all(out.value == entry.value
               for entry, out in zip(entries, outputs))


def test_bench_sequential_rounds(benchmark, context):
    """Baseline: the same 32 assignments as 32 general rounds."""
    entries, outputs = build_motifs()
    values = itertools.cycle([9, 8])

    def sequential():
        value = next(values)
        for entry in entries:
            entry.set(value)

    benchmark(sequential)
    assert all(out.value == entry.value
               for entry, out in zip(entries, outputs))


# -- vectorized sweeps -------------------------------------------------------

def test_bench_sweep_vectorized(benchmark, context):
    """10k candidates through the compiled sweep plan, auto backend."""
    v1, v2, v3, v4 = build_fig4_5()
    UpperBoundConstraint(v4, SWEEP_CANDIDATES / 2)
    plan = compile_sweep([v1])
    candidates = [float(value) for value in range(SWEEP_CANDIDATES)]

    result = benchmark(lambda: plan.run(candidates))
    assert len(result) == SWEEP_CANDIDATES
    benchmark.extra_info["backend"] = result.backend
    benchmark.extra_info["satisfied"] = result.satisfied_count


def test_bench_sweep_looped_rounds(benchmark, context):
    """Baseline: the same 10k what-ifs as 10k propagation rounds."""
    v1, v2, v3, v4 = build_fig4_5()
    bound = UpperBoundConstraint(v4, SWEEP_CANDIDATES / 2)
    candidates = [float(value) for value in range(SWEEP_CANDIDATES)]

    def looped():
        satisfied = 0
        for value in candidates:
            if v1.set(value):
                satisfied += 1
        return satisfied

    satisfied = benchmark(looped)
    assert 0 < satisfied < SWEEP_CANDIDATES
    assert bound.bound == SWEEP_CANDIDATES / 2


def test_sweep_speedup_over_rounds(context):
    """Acceptance: 10k-candidate sweep ≥10x faster than 10k rounds."""
    v1, v2, v3, v4 = build_fig4_5()
    UpperBoundConstraint(v4, SWEEP_CANDIDATES / 2)
    plan = compile_sweep([v1])
    candidates = [float(value) for value in range(SWEEP_CANDIDATES)]

    def vectorized():
        plan.run(candidates)

    def looped():
        for value in candidates:
            v1.set(value)

    sweep_time = best_of(vectorized, repeats=5)
    rounds_time = best_of(looped, repeats=3)
    speedup = rounds_time / sweep_time
    assert speedup >= 10.0, (
        f"sweep speedup {speedup:.2f}x < 10x "
        f"(sweep {sweep_time * 1e3:.2f}ms, rounds {rounds_time * 1e3:.2f}ms)")


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not importable")
def test_sweep_backends_byte_identical(context):
    """numpy and stdlib backends produce bit-equal IEEE-754 doubles."""
    v1, v2, v3, v4 = build_fig4_5()
    UpperBoundConstraint(v4, 6500.25)
    plan = compile_sweep([v1])
    candidates = [value * 0.644 + 0.125 for value in range(SWEEP_CANDIDATES)]

    with_numpy = plan.run(candidates, backend="numpy")
    pure_python = plan.run(candidates, backend="python")
    assert with_numpy.mask == pure_python.mask
    for variable, column in with_numpy.values.items():
        packed_numpy = struct.pack(f"<{len(column)}d", *column)
        packed_python = struct.pack(
            f"<{len(column)}d", *pure_python.values[variable])
        assert packed_numpy == packed_python, variable.qualified_name()
