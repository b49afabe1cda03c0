"""Tests for the command-line front end."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core import UpperBoundConstraint, reset_default_context
from repro.stem import CellClass, Rect
from repro.stem.library import CellLibrary
from repro.stem.persistence import serialize_library
from repro.spice import resistor


@pytest.fixture
def design_path(tmp_path):
    library = CellLibrary("cli-demo")
    add = library.define("ADD", is_generic=True)
    add.define_signal("x", "in")
    add.define_signal("y", "out")
    add.declare_delay("x", "y", estimate=5.0)
    add.set_bounding_box(Rect.of_extent(10, 10))
    rc = library.define("ADD.RC", add)
    rc.delay_var("x", "y").set(8.0)
    rc.set_bounding_box(Rect.of_extent(10, 10))
    cs = library.define("ADD.CS", add)
    cs.delay_var("x", "y").set(5.0)
    cs.set_bounding_box(Rect.of_extent(22, 10))

    drv = library.define("DRV")
    drv.define_signal("o", "out", output_resistance=1e3,
                      max_load_capacitance=1e-12)
    snk = library.define("SNK")
    snk.define_signal("i", "in", load_capacitance=1e-12)

    top = library.define("TOP")
    top.define_signal("in1", "in")
    top.define_signal("out1", "out")
    top.declare_delay("in1", "out1")
    a = add.instantiate(top, "A1")
    a.bounding_box_var.set(Rect.of_extent(25, 10))  # roomy placement area
    n0 = top.add_net("n0"); n0.connect_io("in1"); n0.connect(a, "x")
    n1 = top.add_net("n1"); n1.connect(a, "y"); n1.connect_io("out1")

    bad = library.define("BAD")
    d = drv.instantiate(bad, "d")
    s1 = snk.instantiate(bad, "s1")
    s2 = snk.instantiate(bad, "s2")
    net = bad.add_net("overloaded")
    net.connect(d, "o"); net.connect(s1, "i"); net.connect(s2, "i")

    rcell = library.register(resistor(1e3, name="R1K",
                                      context=library.context))
    phys = library.define("PHYS")
    phys.define_signal("p", "in")
    phys.define_signal("gnd", "inout")
    r = rcell.instantiate(phys, "Ra")
    pn = phys.add_net("pn"); pn.connect_io("p"); pn.connect(r, "p")
    gn = phys.add_net("gnd"); gn.connect_io("gnd"); gn.connect(r, "n")

    path = tmp_path / "design.json"
    path.write_text(json.dumps(serialize_library(library)))
    reset_default_context()
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfoAndTree:
    def test_info(self, design_path):
        code, text = run(["info", design_path])
        assert code == 0
        assert "cells: 9" in text
        assert "ADD.RC" in text

    def test_tree_shows_hierarchy_and_characteristics(self, design_path):
        code, text = run(["tree", design_path])
        assert code == 0
        assert "ADD (generic)" in text
        assert "  ADD.RC" in text
        assert "x->y=8" in text


class TestErc:
    def test_erc_flags_overload(self, design_path):
        code, text = run(["erc", design_path])
        assert code == 1
        assert "overload" in text

    def test_erc_single_clean_cell(self, design_path):
        code, text = run(["erc", design_path, "--cell", "TOP"])
        assert code == 0
        assert "0 finding(s)" in text


class TestNetlist:
    def test_netlist_extraction(self, design_path):
        code, text = run(["netlist", design_path, "--cell", "PHYS"])
        assert code == 0
        assert "R1 " in text


class TestDelay:
    def test_delay_value(self, design_path):
        code, text = run(["delay", design_path, "--cell", "TOP",
                          "--source", "in1", "--dest", "out1"])
        assert code == 0
        assert "in1->out1: 5" in text

    def test_delay_with_bound(self, design_path):
        code, text = run(["delay", design_path, "--cell", "TOP",
                          "--source", "in1", "--dest", "out1",
                          "--max", "4"])
        assert code == 1
        assert "VIOLATION" in text

    def test_unknown_delay_pair(self, design_path):
        with pytest.raises(SystemExit):
            run(["delay", design_path, "--cell", "TOP",
                 "--source", "out1", "--dest", "in1"])


class TestSelect:
    def test_select_lists_realizations(self, design_path):
        code, text = run(["select", design_path, "--cell", "TOP",
                          "--instance", "A1"])
        assert code == 0
        assert "ADD.RC" in text
        assert "ADD.CS" in text

    def test_select_ranked(self, design_path):
        code, text = run(["select", design_path, "--cell", "TOP",
                          "--instance", "A1", "--rank"])
        assert code == 0
        assert "score=" in text

    def test_unknown_instance(self, design_path):
        with pytest.raises(SystemExit):
            run(["select", design_path, "--cell", "TOP",
                 "--instance", "GHOST"])


class TestBrowse:
    def test_browse_panes(self, design_path):
        code, text = run(["browse", design_path, "--cell", "TOP"])
        assert code == 0
        assert "cell TOP" in text
        assert "structure of TOP" in text
        assert "A1: ADD" in text

    def test_browse_unknown_cell_clean_error(self, design_path):
        code, text = run(["browse", design_path, "--cell", "NOPE"])
        assert code == 2


class TestStats:
    def test_stats_is_sorted_and_deterministic(self, design_path):
        code, text = run(["stats", design_path])
        assert code == 0
        lines = [line for line in text.splitlines() if line]
        names = [line.split(":", 1)[0] for line in lines]
        assert names == sorted(names)
        assert any(name == "engine.stats.rounds" for name in names)
        _, rerun = run(["stats", design_path])
        assert rerun == text

    def test_stats_json(self, design_path):
        code, text = run(["stats", design_path, "--json"])
        assert code == 0
        snapshot = json.loads(text)
        assert snapshot["engine.stats.rounds"] >= 1
        assert all(name.startswith("engine.stats.") for name in snapshot)

    def test_stats_includes_island_counters(self, design_path):
        code, text = run(["stats", design_path, "--json"])
        assert code == 0
        snapshot = json.loads(text)
        islands = snapshot["engine.stats.islands"]
        largest = snapshot["engine.stats.largest_island"]
        assert 1 <= islands and 1 <= largest
        _, report = run(["islands", design_path, "--json"])
        report = json.loads(report)
        assert (report["islands"], report["largest_island"]) \
            == (islands, largest)


class TestMetrics:
    def test_metrics_text_report(self, design_path):
        code, text = run(["metrics", design_path])
        assert code == 0
        assert "engine.inference_runs:" in text
        assert "engine.round_latency_us: count=" in text

    def test_metrics_json_snapshot(self, design_path):
        code, text = run(["metrics", design_path, "--json"])
        assert code == 0
        snapshot = json.loads(text)
        assert snapshot["engine.inference_runs"] >= 1
        assert snapshot["engine.round_latency_us"]["count"] >= 1
        assert "buckets" in snapshot["engine.round_latency_us"]


class TestProfile:
    def test_profile_reports_hot_constraints(self, design_path):
        code, text = run(["profile", design_path, "--top", "3"])
        assert code == 0
        assert "hottest constraints" in text
        assert "cum µs" in text

    def test_profile_writes_chrome_trace(self, design_path, tmp_path):
        trace_path = str(tmp_path / "round.trace.json")
        code, text = run(["profile", design_path, "--trace", trace_path])
        assert code == 0
        assert "chrome trace" in text
        with open(trace_path) as handle:
            trace = json.load(handle)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        assert trace["otherData"]["design"] == design_path


class TestSweep:
    """``repro sweep`` over the instance delay feeding TOP's delay
    network (the design's only swept network: nothing in it rejects)."""

    ARGS = ["--cell", "TOP", "--instance", "A1", "--var", "delay(x->y)"]

    def test_values_table_and_exit_status(self, design_path):
        code, text = run(["sweep", design_path, *self.ARGS,
                          "--values", "1,2.5,4", "--backend", "python"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0].endswith(" over 3 candidate(s) [python backend]:")
        assert "TOP.delay(in1->out1)" in lines[1]
        rows = [line.split() for line in lines[2:5]]
        assert [row[0] for row in rows] == ["1", "2.5", "4"]
        assert all(row[-1] == "yes" for row in rows)
        assert lines[-1] == "3/3 candidate(s) satisfy every constraint"

    def test_range_is_inclusive_with_a_step(self, design_path):
        code, text = run(["sweep", design_path, *self.ARGS,
                          "--range", "1:3:0.5"])
        assert code == 0
        assert "5 candidate(s)" in text.splitlines()[0]
        assert text.splitlines()[-1] \
            == "5/5 candidate(s) satisfy every constraint"

    def test_json_report(self, design_path):
        code, text = run(["sweep", design_path, *self.ARGS,
                          "--range", "2:4", "--json", "--backend",
                          "python"])
        assert code == 0
        report = json.loads(text)
        assert report["candidates"] == [2.0, 3.0, 4.0]
        assert report["backend"] == "python"
        assert report["outputs"]["TOP.delay(in1->out1)"] == [2.0, 3.0, 4.0]
        assert report["satisfied"] == [True, True, True]
        assert report["satisfied_count"] == 3

    def test_malformed_range_is_an_error_line(self, design_path):
        with pytest.raises(SystemExit) as caught:
            run(["sweep", design_path, *self.ARGS, "--range", "4:1"])
        assert str(caught.value) \
            == "error: --range needs STOP >= START and STEP > 0"


def _child_pids(pid):
    """Live children of ``pid``, read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name is parenthesized and may hold spaces
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads worker pids from /proc")
class TestFleetCommand:
    def test_router_and_workers_serve_then_exit_on_shutdown(self, tmp_path):
        from repro.session.client import SessionClient

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "--root",
             str(tmp_path), "--workers", "2", "--port", "0",
             "--fsync", "never"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.PIPE, text=True)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"fleet router listening on ([\d.]+):(\d+) "
                              r"\(workers=2 ", banner)
            assert match, banner
            workers = _child_pids(proc.pid)
            assert len(workers) == 2
            with SessionClient(match.group(1), int(match.group(2))) \
                    as client:
                handle = client.session("fleet-cli")
                handle.make_var("x")
                assert handle.assign("v:x", 7)["accepted"]
                assert handle.fingerprint(stats=False)["variables"] \
                    ["v:x"]["value"] == 7
                client.shutdown()
            assert proc.wait(timeout=30) == 0
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestStoreCompact:
    def test_keep_checkpoints_zero_exits_2_and_leaves_the_store(
            self, tmp_path, capsys):
        from repro.session import Session
        from repro.store import FileStore
        root = FileStore(str(tmp_path))
        session = Session("s", store=root.session("s"),
                          segment_max_bytes=200)
        session.make_variable("x")
        for value in range(30):
            session.assign("v:x", value)
        session.close()
        listing = sorted(os.listdir(tmp_path / "s"))
        code, text = run(["store-compact", "--root", str(tmp_path),
                          "--session", "s", "--keep-checkpoints", "0"])
        assert code == 2
        assert "keep_checkpoints must be >= 1" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path / "s")) == listing
        reopened = Session("s", store=root.session("s"), read_only=True)
        assert reopened.get("v:x")[0] == 29
        reopened.close()
