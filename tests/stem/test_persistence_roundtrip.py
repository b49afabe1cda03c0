"""serialize→load→serialize is a fixed point.

The strongest persistence property: one round trip loses nothing, so the
second serialization is byte-for-byte the first.  The fixture library
exercises every branch of the format — delays with USER and APPLICATION
justifications, parameter ranges (bounds, choices, and a *narrowed
inherited* range, the field a loader that skips inherited names drops),
nets with io and subcell endpoints, instance parameter values, and a
multi-level inheritance forest.
"""

import json

import pytest

from repro.core import APPLICATION, USER, reset_default_context
from repro.stem import ParameterRange, PinSpec, Point, Rect, Transform
from repro.stem.library import CellLibrary
from repro.stem.persistence import dumps, load_library, loads, serialize_library
from repro.stem.types import DIGITAL, INTEGER_SIGNAL


def build_exercised_library(context):
    """A library touching every persisted field at least once."""
    library = CellLibrary("exercised", context=context)

    gate = library.define("GATE", is_generic=True, documentation="base")
    gate.define_signal("a", "in", data_type=INTEGER_SIGNAL,
                       electrical_type=DIGITAL, bit_width=4,
                       pins=[PinSpec("left", 0.5)])
    # z carries the same bit width as a *at definition time*: clones and
    # net-equality propagation then agree, keeping the serialized form
    # independent of when subclasses were cut (derived bit widths settled
    # after a clone are in-memory propagation state, not persisted data).
    gate.define_signal("z", "out", bit_width=4, output_resistance=100.0,
                       max_load_capacitance=3e-12, max_fanout=6)
    gate.add_parameter("w", low=1, high=10, default=2)
    gate.declare_delay("a", "z", estimate=5.0)               # USER
    gate.set_bounding_box(Rect.of_extent(8, 4))

    inv = library.define("INV", gate)
    inv.define_signal("en", "in", load_capacitance=0.5)
    inv.add_parameter("speed", choices=["fast", "slow"], default="slow")
    inv.declare_delay("en", "z", estimate=3.0,
                      justification=APPLICATION)             # estimate
    inv.delay_var("a", "z").set(4.0)                         # diverged delay
    # Narrowed inherited range — the subclass's own class-parameter
    # variable diverges from GATE's.
    inv.var("w").set(ParameterRange(low=2, high=6, default=4), USER)

    fast_inv = library.define("INV.FAST", inv)               # forest depth 3

    top = library.define("TOP")
    top.define_signal("in1", "in")
    top.define_signal("out1", "out")
    u1 = inv.instantiate(top, "u1", Transform("R90", Point(3, 4)))
    u2 = fast_inv.instantiate(top, "u2")
    u1.set_parameter("w", 5)
    n0 = top.add_net("n0"); n0.connect_io("in1"); n0.connect(u1, "a")
    n1 = top.add_net("n1"); n1.connect(u1, "z"); n1.connect(u2, "a")
    n2 = top.add_net("n2"); n2.connect(u2, "z"); n2.connect_io("out1")
    return library


def round_trip(data):
    return serialize_library(load_library(data,
                                          context=reset_default_context()))


class TestFixedPoint:
    def test_serialize_load_serialize_is_identity(self):
        first = serialize_library(
            build_exercised_library(reset_default_context()))
        second = round_trip(first)
        assert second == first

    def test_fixed_point_holds_through_json_text(self):
        library = build_exercised_library(reset_default_context())
        text = dumps(library, sort_keys=True)
        reloaded = loads(text, context=reset_default_context())
        assert dumps(reloaded, sort_keys=True) == text

    def test_second_round_trip_is_also_stable(self):
        first = serialize_library(
            build_exercised_library(reset_default_context()))
        second = round_trip(first)
        third = round_trip(second)
        assert third == second == first


class TestRepairedFields:
    """The specific fields a naive loader loses, pinned individually."""

    @pytest.fixture()
    def restored(self):
        library = build_exercised_library(reset_default_context())
        return load_library(serialize_library(library),
                            context=reset_default_context())

    def test_narrowed_inherited_parameter_range_survives(self, restored):
        inv = restored.cell("INV")
        assert inv.var("w").range == ParameterRange(low=2, high=6, default=4)
        # and the base class keeps its wide range
        gate = restored.cell("GATE")
        assert gate.var("w").range == ParameterRange(low=1, high=10,
                                                     default=2)

    def test_narrowed_range_still_checks_after_reload(self, restored):
        inv = restored.cell("INV")
        assert not inv.parameters["w"].admits(9)   # outside 2..6
        assert inv.parameters["w"].admits(5)

    def test_narrowed_default_flows_to_new_instances(self, restored):
        top = restored.cell("TOP")
        extra = restored.cell("INV").instantiate(top, "u3")
        assert extra.parameter_value("w") == 4     # INV's default, not GATE's

    def test_parameter_justification_survives(self, restored):
        inv = restored.cell("INV")
        assert inv.var("w").last_set_by.name == "USER"

    def test_delay_justifications_survive(self, restored):
        inv = restored.cell("INV")
        assert inv.delay_var("en", "z").last_set_by.name == "APPLICATION"
        assert inv.delay_var("a", "z").value == 4.0

    def test_choice_parameter_survives(self, restored):
        speed = restored.cell("INV").var("speed").range
        assert speed.choices == ("fast", "slow")
        assert speed.default == "slow"

    def test_inheritance_forest_shape(self, restored):
        assert restored.cell("INV").superclass is restored.cell("GATE")
        assert restored.cell("INV.FAST").superclass is restored.cell("INV")

    def test_nets_and_instance_parameters(self, restored):
        top = restored.cell("TOP")
        u1 = next(i for i in top.subcells if i.name == "u1")
        assert u1.parameter_value("w") == 5
        assert (None, "in1") in top.net("n0").endpoints
        assert (u1, "z") in top.net("n1").endpoints


class TestSignalTypeJustifications:
    """Typing variables keep their justification across a round trip."""

    @staticmethod
    def typed_library(context):
        library = CellLibrary("typed", context=context)
        cell = library.define("A")
        cell.define_signal("i", "in")
        cell.define_signal("o", "out")
        cell.signal("i").data_type_var.set(INTEGER_SIGNAL, USER)
        return library

    @pytest.fixture()
    def restored(self):
        library = self.typed_library(reset_default_context())
        return load_library(serialize_library(library),
                            context=reset_default_context())

    def test_unset_types_stay_unset(self, restored):
        out = restored.cell("A").signal("o")
        for variable in (out.data_type_var, out.electrical_type_var):
            assert variable.value is None
            assert variable.last_set_by is None
        assert restored.cell("A").signal("i").electrical_type_var \
            .last_set_by is None

    def test_designer_type_stays_user(self, restored):
        data_type = restored.cell("A").signal("i").data_type_var
        assert data_type.value is INTEGER_SIGNAL
        assert data_type.last_set_by is USER

    def test_files_without_the_field_load_as_application(self):
        data = serialize_library(self.typed_library(reset_default_context()))
        signal = next(s for s in data["cells"][0]["signals"]
                      if s["name"] == "i")
        del signal["data_type_justification"]
        restored = load_library(data, context=reset_default_context())
        data_type = restored.cell("A").signal("i").data_type_var
        assert data_type.value is INTEGER_SIGNAL
        assert data_type.last_set_by is APPLICATION

    def test_unset_types_add_no_fields(self):
        data = serialize_library(self.typed_library(reset_default_context()))
        signals = {s["name"]: s for s in data["cells"][0]["signals"]}
        assert "data_type_justification" not in signals["o"]
        assert "electrical_type_justification" not in signals["o"]
        assert signals["i"]["data_type_justification"] == "USER"
