"""Golden round corpus: engine counters and fingerprints, pinned.

Each history below is a seeded sequence of public ``Session`` calls.
Its outcomes, the full ``stats`` block, the violation count and a
sha256 of the canonical ``fingerprint()`` were recorded once, from a
reference build of the engine, in ``golden_rounds.json``.  The tests
replay every history on the engine under test and demand the very same
record twice: live, and again after ``close()`` and reopening the
session directory (journal replay).  Any change to which constraints a
round activates, in what order, or where a ``RoundBudget`` aborts shows
up here as a counter or hash mismatch.

The fixture is a reference, not a snapshot of the current engine: do
not regenerate it to make a failure go away.  ``python
tests/core/test_golden_rounds.py --write PATH`` records every history
on the engine the interpreter imports, for a reviewer who wants to
re-derive the fixture on a reference build and compare.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

from repro.core import RoundBudget, UniAdditionConstraint
from repro.session import Session
from repro.session.session import CONSTRAINT_TYPES, register_constraint_type

FIXTURE = Path(__file__).with_name("golden_rounds.json")

DELAY = "delay(i->o)"


class ImmediateAddition(UniAdditionConstraint):
    """E2's ablation: the sum constraint firing without agenda deferral."""

    agenda = None

    def immediate_inference_by_changing(self, variable):
        if variable is self.result_variable:
            return
        super().immediate_inference_by_changing(variable)


if "golden-immediate-sum" not in CONSTRAINT_TYPES:
    register_constraint_type(
        "golden-immediate-sum",
        lambda vars, p: ImmediateAddition(vars[0], vars[1:]))


# ---------------------------------------------------------------------------
# Histories: each takes a fresh session and returns its op outcomes
# ---------------------------------------------------------------------------

def _leaf_cell(s: Session, name: str) -> None:
    s.define_cell(name)
    s.define_signal(name, "i", "in")
    s.define_signal(name, "o", "out")


def _series(s: Session, cell: str, units: List[str]) -> None:
    for index in range(len(units) + 1):
        s.add_net(cell, f"n{index}")
    s.connect(cell, "n0", "i")
    for index, unit in enumerate(units):
        s.connect(cell, f"n{index}", "i", unit)
        s.connect(cell, f"n{index + 1}", "o", unit)
    s.connect(cell, f"n{len(units)}", "o")


def datapath(s: Session) -> List[Any]:
    """Leaf delays sum into stage delays and stage delays into ``DP``,
    bounded at both levels; drives feed per-stage power sums.  Drags
    overshoot the bounds on a fixed schedule; two drags go as batches."""
    s.checkpoint()  # before any signal exists
    stages, leaves = 3, 3
    for stage in range(stages):
        units = [f"u{leaf}" for leaf in range(leaves)]
        for leaf in range(leaves):
            name = f"L{stage}_{leaf}"
            _leaf_cell(s, name)
            s.declare_delay(name, "i", "o", estimate=2.0)
            s.add_parameter(name, "drive", low=1, high=8, default=2)
        cell = f"ST{stage}"
        _leaf_cell(s, cell)
        s.declare_delay(cell, "i", "o")
        for leaf, unit in enumerate(units):
            s.instantiate(cell, f"L{stage}_{leaf}", unit)
        _series(s, cell, units)
        s.add_constraint("sum", [f"c:{cell}:{DELAY}"]
                         + [f"i:{cell}:{unit}:{DELAY}" for unit in units],
                         cid=f"d{stage}")
        s.add_constraint("upper-bound", [f"c:{cell}:{DELAY}"],
                         params={"bound": 12.0}, cid=f"db{stage}")
        for unit in units:
            power = f"p{stage}{unit}"
            s.make_variable(power)
            s.add_constraint("scale-offset",
                             [f"v:{power}", f"i:{cell}:{unit}:drive"],
                             params={"scale": 1.5, "offset": 0.5},
                             cid=f"ps{stage}{unit}")
        s.make_variable(f"pw{stage}")
        s.add_constraint("sum", [f"v:pw{stage}"]
                         + [f"v:p{stage}{unit}" for unit in units],
                         cid=f"pw{stage}")
        s.add_constraint("upper-bound", [f"v:pw{stage}"],
                         params={"bound": 30.0}, cid=f"pb{stage}")
    _leaf_cell(s, "DP")
    s.declare_delay("DP", "i", "o")
    instances = [f"x{stage}" for stage in range(stages)]
    for stage, instance in enumerate(instances):
        s.instantiate("DP", f"ST{stage}", instance)
    _series(s, "DP", instances)
    s.add_constraint("sum", [f"c:DP:{DELAY}"]
                     + [f"i:DP:{instance}:{DELAY}" for instance in instances],
                     cid="dp")
    s.add_constraint("upper-bound", [f"c:DP:{DELAY}"],
                     params={"bound": 30.0}, cid="dpb")
    rng = random.Random("golden:datapath")
    outcomes: List[Any] = []
    for index in range(60):
        stage, leaf = rng.randrange(stages), rng.randrange(leaves)
        violate = index % 10 in (3, 7)
        if index % 15 == 14:
            outcomes.append(s.assign_many(
                [(f"c:L{st}_{rng.randrange(leaves)}:{DELAY}",
                  round(rng.uniform(1.0, 3.5), 3)) for st in range(stages)]))
        elif index % 2 == 0:
            value = 50.0 if violate else round(rng.uniform(1.0, 4.0), 3)
            outcomes.append(s.assign(f"c:L{stage}_{leaf}:{DELAY}", value))
        else:
            value = 30 if violate else rng.randint(1, 8)
            outcomes.append(s.assign(f"i:ST{stage}:u{leaf}:drive", value))
    return outcomes


def _modules(s: Session, count: int, probes: int) -> None:
    for module in range(count):
        s.make_variable(f"w{module}", 4)
        s.make_variable(f"h{module}", 4)
        s.make_variable(f"cost{module}")
        s.make_variable(f"dl{module}")
        s.add_constraint("sum", [f"v:cost{module}", f"v:w{module}",
                                 f"v:h{module}"], cid=f"cs{module}")
        s.add_constraint("upper-bound", [f"v:cost{module}"],
                         params={"bound": 20}, cid=f"cb{module}")
        s.add_constraint("scale-offset", [f"v:dl{module}", f"v:w{module}"],
                         params={"scale": 0.5, "offset": 2},
                         cid=f"ds{module}")
        s.add_constraint("upper-bound", [f"v:dl{module}"],
                         params={"bound": 7}, cid=f"db{module}")
        for slot in range(probes):
            s.make_variable(f"q{module}_{slot}")


def restructure(s: Session) -> List[Any]:
    """Probe constraints come and go, knobs move, undo/redo, and a
    checkpoint every twelfth op."""
    _modules(s, 4, 6)
    rng = random.Random("golden:restructure")
    live: Dict[str, str] = {}
    outcomes: List[Any] = []
    serial = 0
    for index in range(120):
        if index % 12 == 11:
            s.checkpoint()
            outcomes.append(("checkpoint", s.position))
            continue
        roll = rng.random()
        live = {cid: q for cid, q in live.items() if cid in s.constraints}
        if roll < 0.35 and len(live) < 14:
            taken = set(live.values())
            free = [f"q{m}_{k}" for m in range(4) for k in range(6)
                    if f"q{m}_{k}" not in taken]
            probe = rng.choice(free)
            module = probe[1:].split("_")[0]
            serial += 1
            cid = f"k{serial}"
            kind = rng.choice(("sum", "maximum", "minimum", "scale-offset"))
            args = [f"v:{probe}", f"v:w{module}"]
            params = None
            if kind == "scale-offset":
                params = {"scale": rng.randint(1, 3),
                          "offset": rng.randint(0, 5)}
            else:
                args.append(f"v:h{module}")
            outcomes.append(("add", s.add_constraint(kind, args,
                                                     params=params, cid=cid)))
            live[cid] = probe
        elif roll < 0.6 and live:
            cid = rng.choice(sorted(live))
            s.remove_constraint(cid)
            outcomes.append(("remove", cid))
        elif roll < 0.7:
            outcomes.append(("undo", s.undo()))
        elif roll < 0.78:
            outcomes.append(("redo", s.redo()))
        else:
            outcomes.append(("assign", s.assign(
                f"v:{rng.choice('wh')}{rng.randrange(4)}",
                rng.randint(1, 12))))
    return outcomes


def spaces(s: Session) -> List[Any]:
    """What-if previews, what-if commits and disjoint-module batches."""
    _modules(s, 6, 0)
    rng = random.Random("golden:spaces")
    outcomes: List[Any] = []
    last: List[Any] = []
    for index in range(40):
        slot = index % 10
        if slot in (3, 8) and last:
            with s.space() as space:
                flags = [space.assign(var, value) for var, value in last]
                committed = space.commit()
            outcomes.append(("commit", flags, committed))
        elif slot == 5:
            outcomes.append(("batch", s.assign_many(
                [(f"v:w{module}", rng.randint(1, 5))
                 for module in range(6)])))
        else:
            last = []
            for module in range(6):
                last.append((f"v:w{module}", rng.randint(1, 11)))
                last.append((f"v:h{module}", rng.randint(1, 12)))
            with s.space() as space:
                flags = [space.assign(var, value) for var, value in last]
                outcomes.append(("preview", flags, len(space.violations)))
    return outcomes


def e1(s: Session) -> List[Any]:
    """Fig. 4.5: equality and maximum."""
    s.make_variable("V1", 7)
    s.make_variable("V2", 7)
    s.make_variable("V3", 5)
    s.make_variable("V4", 7)
    s.add_constraint("equality", ["v:V1", "v:V2"], cid="eq")
    s.add_constraint("maximum", ["v:V4", "v:V2", "v:V3"], cid="max")
    return [s.assign("v:V1", value) for value in (9, 8, 3, 9)]


def _e2(s: Session, kind: str) -> List[Any]:
    s.make_variable("master")
    leaves = [f"leaf{index}" for index in range(8)]
    for leaf in leaves:
        s.make_variable(leaf)
    s.make_variable("total")
    s.add_constraint("equality", ["v:master"] + [f"v:{leaf}"
                                                 for leaf in leaves],
                     cid="fan")
    s.add_constraint(kind, ["v:total"] + [f"v:{leaf}" for leaf in leaves],
                     cid="sum")
    outcomes: List[Any] = [s.assign("v:master", 5)]
    before = s.context.stats.propagated_assignments
    outcomes.append(s.assign("v:master", 6))
    outcomes.append(s.context.stats.propagated_assignments - before)
    return outcomes


def e2_deferred(s: Session) -> List[Any]:
    """§4.2.1: the agenda-deferred sum (9 propagated assignments)."""
    return _e2(s, "sum")


def e2_immediate(s: Session) -> List[Any]:
    """§4.2.1's ablation: the immediately firing sum (16)."""
    return _e2(s, "golden-immediate-sum")


def e3(s: Session) -> List[Any]:
    """Fig. 4.9: the +1/+3/+2 cycle violates and restores."""
    for name in ("V1", "V2", "V3"):
        s.make_variable(name)
    for cid, (result, source, offset) in {
            "p1": ("V2", "V1", 1), "p3": ("V3", "V2", 3),
            "p2": ("V1", "V3", 2)}.items():
        s.add_constraint("scale-offset", [f"v:{result}", f"v:{source}"],
                         params={"scale": 1, "offset": offset}, cid=cid)
    return [s.assign("v:V1", 10), s.assign("v:V2", 4)]


def chain(s: Session) -> List[Any]:
    """A 300-deep equality chain, driven from both ends."""
    for index in range(301):
        s.make_variable(f"c{index}")
    for index in range(300):
        s.add_constraint("equality", [f"v:c{index}", f"v:c{index + 1}"],
                         cid=f"e{index}")
    return [s.assign("v:c0", 1), s.assign("v:c0", 2),
            s.assign("v:c300", 3), s.assign("v:c150", 4)]


def retract_probe(s: Session) -> List[Any]:
    """Retraction with re-derivation, then probes (not journaled)."""
    _modules(s, 2, 0)
    s.make_variable("mirror")
    s.add_constraint("equality", ["v:mirror", "v:w0"], cid="mir")
    outcomes: List[Any] = [s.assign("v:w0", 6), s.assign("v:h1", 9)]
    s.retract("v:w0")
    outcomes.append(s.get("v:cost0")[0])
    outcomes.append(s.assign("v:mirror", 3))
    s.retract("v:h1")
    w0 = s.vars["w0"]
    outcomes.extend(w0.can_be_set_to(value) for value in (5, 15, 30))
    outcomes.append(s.vars["h1"].can_be_set_to(30))
    return outcomes


def budget_sweep(s: Session) -> List[Any]:
    """One network, one assignment per step budget: which ones abort."""
    _e2(s, "sum")
    s.add_constraint("upper-bound", ["v:total"], params={"bound": 100},
                     cid="ub")
    aborted = []
    for steps in range(1, 48):
        value = 7 + steps % 2  # every round moves all eight leaves
        s.context.round_budget = RoundBudget(max_steps=steps)
        try:
            if not s.assign("v:master", value):
                aborted.append(steps)
            if not s.assign_many([("v:leaf0", value), ("v:leaf5", value)]):
                aborted.append(-steps)
        finally:
            s.context.round_budget = None
    return aborted


HISTORIES: Dict[str, Callable[[Session], List[Any]]] = {
    "datapath": datapath,
    "restructure": restructure,
    "spaces": spaces,
    "e1": e1,
    "e2-deferred": e2_deferred,
    "e2-immediate": e2_immediate,
    "e3": e3,
    "chain": chain,
    "retract-probe": retract_probe,
    "budget-sweep": budget_sweep,
}


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _record(session: Session) -> Dict[str, Any]:
    return {"stats": session.context.stats.snapshot(),
            "violations": len(session.violations),
            "fingerprint_sha256": _digest(session.fingerprint())}


def run_history(name: str, directory: str) -> Dict[str, Any]:
    """Run one history in a fresh durable session; record it live and
    after close -> reopen."""
    session = Session(name, directory=directory, fsync="never")
    try:
        outcomes = HISTORIES[name](session)
        live = _record(session)
    finally:
        session.close()
    reopened = Session(name, directory=directory, fsync="never")
    try:
        replayed = _record(reopened)
    finally:
        reopened.close()
    return {"outcomes": outcomes, "live": live, "reopened": replayed}


def _golden() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_history_matches_golden_record(name, tmp_path):
    expected = _golden()[name]
    got = json.loads(json.dumps(run_history(name, str(tmp_path / name))))
    assert got["outcomes"] == expected["outcomes"]
    assert got["live"]["stats"] == expected["live"]["stats"]
    assert got["live"]["violations"] == expected["live"]["violations"]
    assert got["live"] == expected["live"]
    assert got["reopened"] == expected["reopened"]


def test_fixture_pins_the_experiment_figures():
    """The corpus carries E2's 9-vs-16, E3's abort and the budget
    sweep's aborting step counts in clear text."""
    golden = _golden()
    assert golden["e2-deferred"]["outcomes"] == [True, True, 9]
    assert golden["e2-immediate"]["outcomes"] == [True, True, 16]
    assert golden["e3"]["outcomes"][0] is False
    aborted = [steps for steps in golden["budget-sweep"]["outcomes"]
               if steps > 0]
    assert aborted[:21] == list(range(1, 22)) and len(aborted) < 47


def main(argv: List[str]) -> int:
    """``--write PATH``: record every history on the engine importable
    from this interpreter (a reference build) into ``PATH``."""
    if len(argv) != 2 or argv[0] != "--write":
        print(__doc__)
        return 2
    import tempfile

    records = {}
    with tempfile.TemporaryDirectory() as root:
        for name in sorted(HISTORIES):
            records[name] = run_history(name, f"{root}/{name}")
    Path(argv[1]).write_text(json.dumps(records, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
