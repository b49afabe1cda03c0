"""The reach audit's attribution (``tools/reach.py``) on a tiny package.

A synthetic tree runs two commands under the audit's hook: the first
calls a decorated function and an outer function, then kills itself
with SIGKILL before its last call; the second calls the nested def.
Each function must land on the first run that called it, or nowhere,
with a nested def's lines counted to the nested function.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

MODULE = textwrap.dedent('''\
    import functools


    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    @decorate
    def decorated():
        return 1


    def outer():
        def inner():
            return 2
        return inner


    def never():
        return 3


    def after_kill():
        return 4
    ''')

FIRST = textwrap.dedent('''\
    import os
    import signal

    import pkg.mod

    pkg.mod.decorated()
    pkg.mod.outer()
    os.kill(os.getpid(), signal.SIGKILL)
    pkg.mod.after_kill()
    ''')

SECOND = textwrap.dedent('''\
    import pkg.mod

    pkg.mod.outer()()
    ''')


def load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", REPO / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path):
    package = tmp_path / "tree" / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "tree" / "first.py").write_text(FIRST)
    (tmp_path / "tree" / "second.py").write_text(SECOND)
    return str(tmp_path / "tree")


@pytest.mark.skipif(sys.platform == "win32", reason="uses SIGKILL")
def test_attribution_by_first_run(tree):
    reach = load_reach()
    runs = [("first", [[sys.executable, "first.py"]]),
            ("second", [[sys.executable, "second.py"]])]
    first_run, failed = reach.audit(tree, runs, timeout=60)
    assert failed == ["first: first.py"]  # killed, still counted

    attributed = {func.name: (func.first, func.lines, label)
                  for func, label in reach.attribute(reach.functions(tree),
                                                     first_run)}
    assert attributed == {
        # def line 4 to 8, less the nested wrapper's lines 6-7
        "decorate": (4, 3, "first"),
        # matched on its decorator line; the lines start at the def
        "wrapper": (5, 2, "first"),
        "decorated": (11, 2, "first"),
        "outer": (16, 2, "first"),
        "inner": (17, 2, "second"),
        "never": (22, 2, "nowhere"),
        "after_kill": (26, 2, "nowhere"),
    }


def test_report_totals_and_prefix_listing(tree, capsys):
    reach = load_reach()
    funcs = reach.functions(tree)
    first_run = {("src/pkg/mod.py", 4, "decorate"): "first",
                 ("src/pkg/mod.py", 17, "inner"): "second"}
    reach.report(reach.attribute(funcs, first_run), ["first", "second"],
                 prefix="src/pkg")
    out = capsys.readouterr().out
    assert out.splitlines()[:4] == [
        "reach audit: 15 function lines in 7 functions",
        "  first          3  (cumulative 3)",
        "  second         2  (cumulative 5)",
        "  nowhere       10",
    ]
    listed = out.split("tests-only and unreached functions under "
                       "src/pkg:\n")[1].splitlines()
    assert listed == [
        "  src/pkg/mod.py:5 wrapper 2 lines [nowhere]",
        "  src/pkg/mod.py:11 decorated 2 lines [nowhere]",
        "  src/pkg/mod.py:16 outer 2 lines [nowhere]",
        "  src/pkg/mod.py:17 inner 2 lines [second]",
        "  src/pkg/mod.py:22 never 2 lines [nowhere]",
        "  src/pkg/mod.py:26 after_kill 2 lines [nowhere]",
    ]
