"""Seeded op streams for the wire benchmark, checked against a reference.

Every workload is a list of *session plans*.  A plan holds the request
frames one closed-loop connection sends to one session, split into the
design build plus warm-up (timed as set-up) and the timed ops, together
with what an in-process reference :class:`repro.session.Session` (no
server, no directory) answered to the very same frames.  Generation and
reference run in lockstep: the restructure stream picks the constraint
to remove from the reference's live constraint set, so the op stream is
a pure function of the seed.

Outcomes are compared in a normalised form built only from the public
wire protocol and the public ``Session`` API, so the check survives a
refactor of either side's internals.
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.session import Session
from repro.session.codec import encode_value

WORKLOADS = ("drag", "restructure", "explore")

#: Untimed warm-up ops of the workload's own mix after every build.
WARMUP_OPS = 100


class SessionPlan:
    """Frames and reference outcomes for one session on one connection."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.setup: List[Dict[str, Any]] = []
        self.setup_expected: List[Tuple] = []
        self.timed: List[Dict[str, Any]] = []
        self.timed_expected: List[Tuple] = []
        self.fingerprint: Optional[Dict[str, Any]] = None
        self.violations = 0


# ---------------------------------------------------------------------------
# Outcome normalisation (wire side and reference side)
# ---------------------------------------------------------------------------

def wire_outcome(frame: Dict[str, Any], reply: Dict[str, Any]) -> Tuple:
    """The comparable outcome of one server reply."""
    if not reply.get("ok"):
        return ("error", reply.get("error", {}).get("type"))
    cmd = frame["cmd"]
    result = reply.get("result") or {}
    if cmd == "assign":
        return ("ok", result.get("value"))
    if cmd == "assign-many":
        return ("ok", [entry.get("value") for entry in result["entries"]])
    if cmd == "what-if":
        return ("ok", [(entry["accepted"], entry["value"])
                       for entry in result["entries"]],
                result["violations"])
    if cmd == "what-if-commit":
        return ("ok", [(entry["accepted"], entry["value"])
                       for entry in result["entries"]],
                result["committed"])
    if cmd == "undo":
        return ("ok", bool(result["undone"]))
    if cmd == "redo":
        return ("ok", bool(result["redone"]))
    if cmd == "add-constraint":
        return ("ok", result["cid"])
    if cmd == "checkpoint":
        return ("ok", result["position"])
    return ("ok",)


def _wire(value: Any) -> Any:
    """A value as it comes back over the wire."""
    return json.loads(json.dumps(encode_value(value)))


def reference_outcome(session: Session, frame: Dict[str, Any]) -> Tuple:
    """Apply ``frame`` to the in-process reference; return its outcome."""
    cmd = frame["cmd"]
    if cmd == "assign":
        if not session.assign(frame["var"], frame["value"]):
            return ("error", "violation")
        return ("ok", _wire(session.get(frame["var"])[0]))
    if cmd == "assign-many":
        pairs = [(spec["var"], spec["value"]) for spec in frame["entries"]]
        if not session.assign_many(pairs):
            return ("error", "violation")
        return ("ok", [_wire(session.get(var)[0]) for var, _ in pairs])
    if cmd == "what-if":
        entries = []
        with session.space() as space:
            for spec in frame["entries"]:
                accepted = space.assign(spec["var"], spec["value"])
                entries.append((accepted, _wire(space.get(spec["var"])[0])))
            violations = len(space.violations)
        return ("ok", entries, violations)
    if cmd == "what-if-commit":
        flags = []
        with session.space() as space:
            for spec in frame["entries"]:
                flags.append(space.assign(spec["var"], spec["value"]))
            committed = len(space.log)
            if not space.commit():
                return ("error", "violation")
        return ("ok", [(flag, _wire(session.get(spec["var"])[0]))
                       for flag, spec in zip(flags, frame["entries"])],
                committed)
    if cmd == "undo":
        return ("ok", session.undo())
    if cmd == "redo":
        return ("ok", session.redo())
    if cmd == "checkpoint":
        session.checkpoint()
        return ("ok", session.position)
    if cmd == "add-constraint":
        return ("ok", session.add_constraint(
            frame["type"], frame["args"], params=frame.get("params"),
            cid=frame.get("cid")))
    if cmd == "remove-constraint":
        session.remove_constraint(frame["cid"])
    elif cmd == "make-var":
        session.make_variable(frame["name"], frame.get("value"))
    elif cmd == "define-cell":
        session.define_cell(frame["name"])
    elif cmd == "define-signal":
        session.define_signal(frame["cell"], frame["name"],
                              frame["direction"])
    elif cmd == "declare-delay":
        session.declare_delay(frame["cell"], frame["source"], frame["dest"],
                              estimate=frame.get("estimate"))
    elif cmd == "add-parameter":
        session.add_parameter(frame["cell"], frame["name"],
                              low=frame.get("low"), high=frame.get("high"),
                              default=frame.get("default"))
    elif cmd == "instantiate":
        session.instantiate(frame["parent"], frame["child"], frame["name"])
    elif cmd == "add-net":
        session.add_net(frame["cell"], frame["name"])
    elif cmd == "connect":
        if not session.connect(frame["cell"], frame["net"], frame["signal"],
                               frame.get("instance")):
            return ("error", "violation")
    else:
        raise ValueError(f"no reference for cmd {cmd!r}")
    return ("ok",)


# ---------------------------------------------------------------------------
# Design builders
# ---------------------------------------------------------------------------

def _cell(frames: List[Dict[str, Any]], name: str) -> None:
    frames.append({"cmd": "define-cell", "name": name})
    frames.append({"cmd": "define-signal", "cell": name, "name": "i",
                   "direction": "in"})
    frames.append({"cmd": "define-signal", "cell": name, "name": "o",
                   "direction": "out"})


def _chain(frames: List[Dict[str, Any]], cell: str,
           instances: List[str]) -> None:
    """Nets wiring cell.i -> instances in series -> cell.o."""
    for index in range(len(instances) + 1):
        frames.append({"cmd": "add-net", "cell": cell, "name": f"n{index}"})
    frames.append({"cmd": "connect", "cell": cell, "net": "n0",
                   "signal": "i"})
    for index, instance in enumerate(instances):
        frames.append({"cmd": "connect", "cell": cell, "net": f"n{index}",
                       "signal": "i", "instance": instance})
        frames.append({"cmd": "connect", "cell": cell,
                       "net": f"n{index + 1}", "signal": "o",
                       "instance": instance})
    frames.append({"cmd": "connect", "cell": cell,
                   "net": f"n{len(instances)}", "signal": "o"})


def _constraint(frames: List[Dict[str, Any]], kind: str, args: List[str],
                cid: str, **params: Any) -> None:
    frame = {"cmd": "add-constraint", "type": kind, "args": args, "cid": cid}
    if params:
        frame["params"] = params
    frames.append(frame)


DELAY = "delay(i->o)"
STAGES = 8
LEAVES = 4
LEAF_DELAY_MAX = 4.0
STAGE_BOUND = 5.0 * LEAVES
DRIVE_HIGH = 8


def build_datapath() -> List[Dict[str, Any]]:
    """A two-level datapath: leaf cells in series make a stage, stage
    instances in series make ``DP``.  Leaf delays sum into each stage's
    delay and stage delays into the datapath's, every level carries an
    upper-bound spec, and each leaf instance's ``drive`` parameter feeds
    a per-stage power budget."""
    frames: List[Dict[str, Any]] = []
    for stage in range(STAGES):
        cell = f"ST{stage}"
        units = [f"u{leaf}" for leaf in range(LEAVES)]
        for leaf in range(LEAVES):
            name = f"L{stage}_{leaf}"
            _cell(frames, name)
            frames.append({"cmd": "declare-delay", "cell": name,
                           "source": "i", "dest": "o", "estimate": 2.0})
            frames.append({"cmd": "add-parameter", "cell": name,
                           "name": "drive", "low": 1, "high": DRIVE_HIGH,
                           "default": 2})
        _cell(frames, cell)
        frames.append({"cmd": "declare-delay", "cell": cell, "source": "i",
                       "dest": "o"})
        for leaf, unit in enumerate(units):
            frames.append({"cmd": "instantiate", "parent": cell,
                           "child": f"L{stage}_{leaf}", "name": unit})
        _chain(frames, cell, units)
        _constraint(frames, "sum", [f"c:{cell}:{DELAY}"]
                    + [f"i:{cell}:{unit}:{DELAY}" for unit in units],
                    f"d{stage}")
        _constraint(frames, "upper-bound", [f"c:{cell}:{DELAY}"],
                    f"db{stage}", bound=STAGE_BOUND)
        for unit in units:
            power = f"p{stage}{unit}"
            frames.append({"cmd": "make-var", "name": power})
            _constraint(frames, "scale-offset",
                        [f"v:{power}", f"i:{cell}:{unit}:drive"],
                        f"ps{stage}{unit}", scale=1.5, offset=0.5)
        frames.append({"cmd": "make-var", "name": f"pw{stage}"})
        _constraint(frames, "sum", [f"v:pw{stage}"]
                    + [f"v:p{stage}{unit}" for unit in units], f"pw{stage}")
        _constraint(frames, "upper-bound", [f"v:pw{stage}"], f"pb{stage}",
                    bound=13.0 * LEAVES)
    _cell(frames, "DP")
    frames.append({"cmd": "declare-delay", "cell": "DP", "source": "i",
                   "dest": "o"})
    stages = [f"x{stage}" for stage in range(STAGES)]
    for stage, instance in enumerate(stages):
        frames.append({"cmd": "instantiate", "parent": "DP",
                       "child": f"ST{stage}", "name": instance})
    _chain(frames, "DP", stages)
    _constraint(frames, "sum", [f"c:DP:{DELAY}"]
                + [f"i:DP:{instance}:{DELAY}" for instance in stages], "dp")
    _constraint(frames, "upper-bound", [f"c:DP:{DELAY}"], "dpb",
                bound=STAGE_BOUND * STAGES)
    return frames


MODULES = 8
PROBES = 12                  # probe slots per restructure module
# Live probe constraints stay within [PROBE_FLOOR, PROBE_CAP]: a narrow
# band keeps the checkpoint, hence recover_s, the same size for every seed.
PROBE_FLOOR, PROBE_CAP = 46, 50


def build_modules(probes: bool) -> List[Dict[str, Any]]:
    """Eight disjoint modules (eight islands).  Each has two designer
    knobs ``w``/``h`` feeding a bounded cost sum and a bounded delay
    line; the restructure variant adds free probe variables that its
    constraints attach to and detach from."""
    frames: List[Dict[str, Any]] = []
    for module in range(MODULES):
        w, h = f"w{module}", f"h{module}"
        frames.append({"cmd": "make-var", "name": w, "value": 4})
        frames.append({"cmd": "make-var", "name": h, "value": 4})
        frames.append({"cmd": "make-var", "name": f"cost{module}"})
        frames.append({"cmd": "make-var", "name": f"dl{module}"})
        _constraint(frames, "sum", [f"v:cost{module}", f"v:{w}", f"v:{h}"],
                    f"cs{module}")
        _constraint(frames, "upper-bound", [f"v:cost{module}"],
                    f"cb{module}", bound=20)
        _constraint(frames, "scale-offset", [f"v:dl{module}", f"v:{w}"],
                    f"ds{module}", scale=0.5, offset=2)
        _constraint(frames, "upper-bound", [f"v:dl{module}"], f"db{module}",
                    bound=7)
        if probes:
            for slot in range(PROBES):
                frames.append({"cmd": "make-var",
                               "name": f"q{module}_{slot}"})
    return frames


# ---------------------------------------------------------------------------
# Op generators: gen(rng, reference, op index, state) -> frame
# ---------------------------------------------------------------------------

def drag_op(rng: random.Random, ref: Session, index: int,
            state: Dict[str, Any]) -> Dict[str, Any]:
    """Drag one leaf delay estimate (even ops) or one leaf drive (odd
    ops); op 6 of every 20 overshoots its stage's delay bound and op 17
    the drive parameter's range, 5% of the mix each.  The schedule is
    fixed so every seed runs the same mix; the seed picks the leaves and
    values."""
    stage = rng.randrange(STAGES)
    leaf = rng.randrange(LEAVES)
    violate = index % 20 in (6, 17)
    if index % 2 == 0:
        value = (STAGE_BOUND * 2 if violate
                 else round(rng.uniform(1.0, LEAF_DELAY_MAX), 3))
        return {"cmd": "assign", "var": f"c:L{stage}_{leaf}:{DELAY}",
                "value": value}
    value = DRIVE_HIGH * 3 if violate else rng.randint(1, DRIVE_HIGH)
    return {"cmd": "assign", "var": f"i:ST{stage}:u{leaf}:drive",
            "value": value}


_PROBE_KINDS = ("sum", "maximum", "minimum", "scale-offset")


def restructure_op(rng: random.Random, ref: Session, index: int,
                   state: Dict[str, Any]) -> Dict[str, Any]:
    """Add-constraint 36% and remove 31% of the draws, assign ~25%, undo
    ~6% and redo ~4% (two thirds of undos are redone next), checkpoint
    every 25th op.  Only probe constraints this stream added are
    removed; an add at PROBE_CAP becomes a remove and a remove at
    PROBE_FLOOR an add, so the network keeps its size."""
    if index % 25 == 24:
        return {"cmd": "checkpoint"}
    undid, state["undid"] = state.get("undid", False), False
    if undid and ref.can_redo() and rng.random() < 0.66:
        return {"cmd": "redo"}
    probes: Dict[str, str] = state.setdefault("probes", {})
    live = [cid for cid in probes if cid in ref.constraints]
    roll = rng.random()
    if roll < 0.36:
        kind = "add" if len(live) < PROBE_CAP else "remove"
    elif roll < 0.67:
        kind = "remove" if len(live) > PROBE_FLOOR else "add"
    elif roll < 0.73 and ref.can_undo():
        state["undid"] = True
        return {"cmd": "undo"}
    else:
        kind = "assign"
    if kind == "remove":
        return {"cmd": "remove-constraint", "cid": rng.choice(live)}
    if kind == "assign":
        return {"cmd": "assign",
                "var": f"v:{rng.choice('wh')}{rng.randrange(MODULES)}",
                "value": rng.randint(1, 8)}
    taken = {probes[cid] for cid in live}
    probe = rng.choice([f"q{module}_{slot}" for module in range(MODULES)
                        for slot in range(PROBES)
                        if f"q{module}_{slot}" not in taken])
    module = probe[1:].split("_")[0]
    state["next"] = state.get("next", 0) + 1
    cid = f"k{state['next']}"
    probes[cid] = probe
    kind = rng.choice(_PROBE_KINDS)
    frame: Dict[str, Any] = {"cmd": "add-constraint", "type": kind,
                             "cid": cid,
                             "args": [f"v:{probe}", f"v:w{module}"]}
    if kind == "scale-offset":
        frame["params"] = {"scale": rng.randint(1, 3),
                           "offset": rng.randint(0, 5)}
    else:
        frame["args"].append(f"v:h{module}")
    return frame


def _candidate(rng: random.Random) -> List[Dict[str, Any]]:
    """A 16-entry module-selection candidate: ``w`` and ``h`` of every
    module.  ``w`` above 10 breaks the delay bound, ``w + h`` above 20
    the cost bound."""
    entries = []
    for module in range(MODULES):
        entries.append({"var": f"v:w{module}", "value": rng.randint(1, 11)})
        entries.append({"var": f"v:h{module}", "value": rng.randint(1, 12)})
    return entries


def explore_op(rng: random.Random, ref: Session, index: int,
               state: Dict[str, Any]) -> Dict[str, Any]:
    """On a fixed schedule: what-if 85%, what-if-commit of the last
    preview 10%, assign-many 5%; the seed picks the values."""
    slot = index % 20
    if slot in (3, 13) and "last" in state:
        return {"cmd": "what-if-commit", "entries": state["last"]}
    if slot == 8:
        # Every module's w shrinks: valid whatever h holds (h <= 12).
        return {"cmd": "assign-many",
                "entries": [{"var": f"v:w{module}",
                             "value": rng.randint(1, 5)}
                            for module in range(MODULES)]}
    state["last"] = _candidate(rng)
    return {"cmd": "what-if", "entries": state["last"]}


# workload -> (sessions, build, warm-up entry, op generator)
_SPECS: Dict[str, Tuple[int, Callable[[], List[Dict[str, Any]]],
                        Dict[str, Any], Callable[..., Dict[str, Any]]]] = {
    "drag": (1, build_datapath, {"var": f"c:L0_0:{DELAY}", "value": 3.0},
             drag_op),
    "restructure": (1, lambda: build_modules(True),
                    {"var": "v:w0", "value": 5}, restructure_op),
    "explore": (2, lambda: build_modules(False),
                {"var": "v:w0", "value": 5}, explore_op),
}


def plan_workload(workload: str, seed: int, timed_ops: int,
                  episode: int = 0) -> List[SessionPlan]:
    """One plan per session (and connection) of ``workload`` for one
    episode of a run; every episode has sessions and a stream of its own.

    ``timed_ops`` is the total over all sessions.  The set-up touches
    every layer once, so lazy imports and first calls land in set-up and
    not in the timed phase: a checkpoint of the still empty session, the
    design build, a what-if preview, a what-if commit with its undo and
    redo, then ``WARMUP_OPS`` ops of the workload's own mix.  The
    checkpoint comes first because recovering from a checkpoint taken
    after cells with signals exist does not reproduce the live
    fingerprint (see README.md), and the benchmark must pass on the
    code it measures.
    """
    count, build, warm, gen = _SPECS[workload]
    plans = []
    for index in range(count):
        plan = SessionPlan(f"{workload}{index}e{episode}")
        rng = random.Random(f"{workload}:{seed}:{episode}:{index}")
        ref = Session(plan.name)
        state: Dict[str, Any] = {}
        for frame in [{"cmd": "checkpoint"}] + build() + [
                {"cmd": "what-if", "entries": [warm]},
                {"cmd": "what-if-commit", "entries": [warm]},
                {"cmd": "undo"}, {"cmd": "redo"}]:
            plan.setup.append(frame)
            plan.setup_expected.append(reference_outcome(ref, frame))
        for op in range(WARMUP_OPS):
            frame = gen(rng, ref, op, state)
            plan.setup.append(frame)
            plan.setup_expected.append(reference_outcome(ref, frame))
        share = timed_ops // count + (1 if index < timed_ops % count else 0)
        for op in range(WARMUP_OPS, WARMUP_OPS + share):
            frame = gen(rng, ref, op, state)
            plan.timed.append(frame)
            plan.timed_expected.append(reference_outcome(ref, frame))
        plan.fingerprint = json.loads(json.dumps(ref.fingerprint()))
        plan.violations = len(ref.violations)
        ref.close()
        plans.append(plan)
    return plans


def op_class(frame: Dict[str, Any], outcome: Tuple) -> str:
    """The class an op belongs to, for the mix report."""
    name = frame["cmd"]
    if outcome[0] == "error":
        name += "/" + str(outcome[1])
    return name
