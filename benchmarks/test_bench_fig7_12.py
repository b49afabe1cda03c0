"""E13 (Figs. 7.10-7.12): hierarchical delay paths and delay constraints.

The figure's shape: cell A's class delay is the maximum over its internal
paths; cell X cascades B and two instances of A, so X's class delay
network sums B.d and the two A instance delays.  A change to a *leaf*
characteristic (inside A) propagates: A's network recomputes A.D(x,y),
the dual variables carry it into both A instances in X, and X's network
recomputes — all incrementally, in one round.

The ablation compares that incremental update against discarding and
rebuilding X's and A's delay networks from scratch (the non-incremental
strategy).
"""

import itertools

import pytest

from repro.core import default_context
from repro.stem import CellClass


def leaf_cell(name, delay):
    cell = CellClass(name)
    cell.define_signal("a", "in")
    cell.define_signal("y", "out")
    cell.declare_delay("a", "y", estimate=delay)
    return cell


def build_fig_7_12():
    """A = g1 -> g2 (internal network); X = B -> A.1 -> A.2."""
    g1 = leaf_cell("G1", 3.0)
    g2 = leaf_cell("G2", 4.0)
    b = leaf_cell("B", 2.0)

    a = CellClass("A")
    a.define_signal("x", "in")
    a.define_signal("y", "out")
    a.declare_delay("x", "y")
    u1 = g1.instantiate(a, "u1")
    u2 = g2.instantiate(a, "u2")
    n0 = a.add_net("n0"); n0.connect_io("x"); n0.connect(u1, "a")
    n1 = a.add_net("n1"); n1.connect(u1, "y"); n1.connect(u2, "a")
    n2 = a.add_net("n2"); n2.connect(u2, "y"); n2.connect_io("y")
    a.build_delay_network()

    x = CellClass("X")
    x.define_signal("in1", "in")
    x.define_signal("out1", "out")
    x.declare_delay("in1", "out1")
    b1 = b.instantiate(x, "B.1")
    a1 = a.instantiate(x, "A.1")
    a2 = a.instantiate(x, "A.2")
    m0 = x.add_net("m0"); m0.connect_io("in1"); m0.connect(b1, "a")
    m1 = x.add_net("m1"); m1.connect(b1, "y"); m1.connect(a1, "x")
    m2 = x.add_net("m2"); m2.connect(a1, "y"); m2.connect(a2, "x")
    m3 = x.add_net("m3"); m3.connect(a2, "y"); m3.connect_io("out1")
    x.build_delay_network()
    return g1, g2, b, a, x


class TestFig712:
    def test_hierarchical_delay_value(self):
        g1, g2, b, a, x = build_fig_7_12()
        assert a.delay_var("x", "y").value == pytest.approx(7.0)
        assert x.delay_var("in1", "out1").value == pytest.approx(2 + 7 + 7)

    def test_leaf_update_propagates_two_levels(self):
        g1, g2, b, a, x = build_fig_7_12()
        assert g1.delay_var("a", "y").calculate(5.0)
        assert a.delay_var("x", "y").value == pytest.approx(9.0)
        assert x.delay_var("in1", "out1").value == pytest.approx(2 + 9 + 9)

    def test_dual_delay_variables_updated(self):
        g1, g2, b, a, x = build_fig_7_12()
        g1.delay_var("a", "y").calculate(5.0)
        for name in ("A.1", "A.2"):
            instance = next(i for i in x.subcells if i.name == name)
            assert instance.delay_var("x", "y").value == pytest.approx(9.0)


def test_bench_incremental_leaf_update(benchmark):
    g1, g2, b, a, x = build_fig_7_12()
    values = itertools.cycle([3.0, 3.5])
    benchmark(lambda: g1.delay_var("a", "y").calculate(next(values)))
    assert x.delay_var("in1", "out1").value == pytest.approx(
        2 + 2 * (g1.delay_var("a", "y").value + 4.0))


def test_bench_full_rebuild_ablation(benchmark):
    """Non-incremental strategy: rebuild both networks per change.

    The leaf write bypasses propagation, so the rebuild starts from the
    leaf: each instance dual of G1's class delay is re-derived before
    the networks are rebuilt.  Every call's result is checked against
    the value it stored, not only the last call's.
    """
    g1, g2, b, a, x = build_fig_7_12()
    values = itertools.cycle([3.0, 3.5])
    wrong = []

    def rebuild():
        value = next(values)
        with default_context().propagation_disabled():
            leaf = g1.delay_var("a", "y")
            leaf._store(value, None)
            for dual in leaf.dual_variables():
                dual._store(dual.adjust_class_value(value), None)
            a.delay_var("x", "y").reset()
            x.delay_var("in1", "out1").reset()
        a.build_delay_network()
        x.build_delay_network()
        result = x.delay_value("in1", "out1")
        if result != pytest.approx(2 + 2 * (value + 4.0)):
            wrong.append((value, result))
        return result

    benchmark(rebuild)
    assert wrong == []
