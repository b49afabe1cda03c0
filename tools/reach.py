#!/usr/bin/env python3
"""Reach audit: which functions of ``src/`` each kind of run calls.

The audit copies the tree to a temporary directory and puts a
``sitecustomize.py`` hook in the copy's ``src/``.  perfbench and the
smokes set ``PYTHONPATH`` to ``<tree>/src`` for the processes they
start, so every Python process of every run loads the hook.  The hook
logs each code object of ``src/`` on its first call, through
``sys.setprofile`` and ``threading.setprofile``, one log file per
process and one unbuffered write per line, so a server killed with
SIGKILL still counts.  Then it runs, in order:

1. ``served``: perfbench's three workloads (``--seconds 3 --trace 0``);
2. ``smokes``: the five CI smokes;
3. ``thesis``: ``tools/run_experiments.py`` and ``examples/*.py``;
4. ``tier-1``: the test suite (``python -m pytest -q``).

A function of ``src/`` is matched by file, first decorator-or-def line
and name.  Its lines run from its ``def`` line to its last line; the
lines of a nested def count to the nested function.  They go to the
first run that called it, or to ``nowhere``.  The audit is
function-level: a called function counts whole, whatever branches ran.

Usage::

    python tools/reach.py                     # totals per package, module
    python tools/reach.py src/repro/spaces    # + that prefix's tests-only
                                              #   and unreached functions

Stdlib only.  Exits 1 if any run fails.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

NOWHERE = "nowhere"

#: What the copy leaves out: version control, caches, build output.
IGNORE = shutil.ignore_patterns(".git", ".benchmarks", ".perfbench",
                                ".pytest_cache", ".hypothesis",
                                "__pycache__", "*.egg-info", "build")

HOOK = '''\
"""Reach-audit hook: logs each code object under {prefix!r} on its
first call, one file per process, one unbuffered write per line."""
import os
import sys
import threading

_LOG_DIR = {log_dir!r}
_PREFIX = {prefix!r}
# The seen-set holds the code objects themselves: keyed by id() alone, a
# freed code object's id is reused and its successor goes unlogged.
_seen = {{}}
_out = [None, -1]


def _log(code):
    pid = os.getpid()
    if _out[0] != pid:  # first line of this process, or of a fork child
        _out[0] = pid
        _out[1] = os.open(os.path.join(_LOG_DIR, "%d.log" % pid),
                          os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.write(_out[1], ("%s\\t%d\\t%s\\n" % (
        code.co_filename, code.co_firstlineno, code.co_name)).encode())


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_PREFIX):
                _log(code)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


class Function(NamedTuple):
    path: str        # relative to the tree, "/"-separated
    first: int       # first decorator-or-def line
    name: str
    lines: int       # def line to last line, less nested defs


Key = Tuple[str, int, str]


def functions(tree: str, src: str = "src") -> List[Function]:
    """Every function and method under ``tree/src``, with its own lines."""
    found: List[Function] = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(tree, src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                module = ast.parse(handle.read(), path)
            defs = sorted((node for node in ast.walk(module)
                           if isinstance(node, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))),
                          key=lambda node: node.lineno)
            # Innermost def wins a line: nested defs start later, so
            # assigning in def-line order leaves each line to the
            # deepest def that spans it.
            owner: Dict[int, int] = {}
            for index, node in enumerate(defs):
                for line in range(node.lineno, node.end_lineno + 1):
                    owner[line] = index
            counts = [0] * len(defs)
            for index in owner.values():
                counts[index] += 1
            rel = os.path.relpath(path, tree).replace(os.sep, "/")
            for node, count in zip(defs, counts):
                first = min([d.lineno for d in node.decorator_list]
                            + [node.lineno])
                found.append(Function(rel, first, node.name, count))
    return found


def write_hook(src_dir: str, log_dir: str) -> None:
    """Install the hook as ``src_dir/sitecustomize.py``, logging the code
    objects of files under ``src_dir`` into ``log_dir``."""
    prefix = os.path.join(os.path.realpath(src_dir), "")
    with open(os.path.join(src_dir, "sitecustomize.py"), "w") as handle:
        handle.write(HOOK.format(log_dir=log_dir, prefix=prefix))


def read_logs(log_dir: str, tree: str) -> Set[Key]:
    """The (path relative to ``tree``, first line, name) of every logged
    code object."""
    root = os.path.realpath(tree)
    called: Set[Key] = set()
    for filename in os.listdir(log_dir):
        with open(os.path.join(log_dir, filename), encoding="utf-8") as handle:
            for line in handle:
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 3:
                    continue  # a line cut short by SIGKILL
                path, first, name = parts
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                called.add((rel, int(first), name))
    return called


def default_runs(tree: str) -> List[Tuple[str, List[List[str]]]]:
    """The audit's runs, in attribution order, as commands run in ``tree``."""
    py = sys.executable
    examples = sorted(name for name in os.listdir(os.path.join(tree,
                                                               "examples"))
                      if name.endswith(".py"))
    return [
        ("served", [[py, "perfbench/run.py", "--workload", workload,
                     "--seconds", "3", "--trace", "0"]
                    for workload in ("drag", "restructure", "explore")]),
        ("smokes", [[py, "tools/session_smoke.py"],
                    [py, "tools/chaos_smoke.py"],
                    [py, "tools/chaos_smoke.py", "--store", "sqlite"],
                    [py, "tools/chaos_smoke.py", "--store", "object"],
                    [py, "tools/fleet_smoke.py"]]),
        ("thesis", [[py, "tools/run_experiments.py"]]
         + [[py, f"examples/{name}"] for name in examples]),
        ("tier-1", [[py, "-m", "pytest", "-q"]]),
    ]


def audit(tree: str, runs: List[Tuple[str, List[List[str]]]],
          timeout: float = 1800.0) -> Tuple[Dict[Key, str], List[str]]:
    """Run ``runs`` in a hooked copy of ``tree``; return the run label
    that first called each logged function, and the failed commands."""
    scratch = tempfile.mkdtemp(prefix="reach-")
    try:
        copy = os.path.join(scratch, "tree")
        shutil.copytree(tree, copy, ignore=IGNORE)
        src_dir = os.path.join(copy, "src")
        env = dict(os.environ, PYTHONPATH=src_dir)
        first_run: Dict[Key, str] = {}
        failed: List[str] = []
        for label, commands in runs:
            log_dir = os.path.join(scratch, "logs", label)
            os.makedirs(log_dir)
            write_hook(src_dir, log_dir)
            for argv in commands:
                shown = " ".join(argv[1:])
                started = time.monotonic()
                with open(os.path.join(scratch, "run.out"), "w+") as out:
                    try:
                        status = subprocess.run(
                            argv, cwd=copy, env=env, stdout=out,
                            stderr=subprocess.STDOUT,
                            timeout=timeout).returncode
                    except subprocess.TimeoutExpired:
                        status = "timeout"
                    out.seek(0)
                    output = out.read()
                elapsed = time.monotonic() - started
                verdict = "ok" if status == 0 else f"FAILED ({status})"
                print(f"[{label}] {shown}: {verdict} in {elapsed:.1f} s",
                      file=sys.stderr, flush=True)
                if status != 0:
                    failed.append(f"{label}: {shown}")
                    print(output[-3000:], file=sys.stderr, flush=True)
            for key in read_logs(log_dir, copy):
                first_run.setdefault(key, label)
        return first_run, failed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def attribute(funcs: Iterable[Function],
              first_run: Dict[Key, str]) -> List[Tuple[Function, str]]:
    return [(func, first_run.get((func.path, func.first, func.name),
                                 NOWHERE))
            for func in funcs]


def _package(path: str) -> str:
    parts = path.split("/")[1:-1]   # drop "src" and the file name
    return ".".join(parts) if parts else "(top level)"


def report(attributed: List[Tuple[Function, str]], labels: List[str],
           prefix: Optional[str] = None, out=sys.stdout) -> None:
    columns = labels + [NOWHERE]
    grand = {column: 0 for column in columns}
    packages: Dict[str, Dict[str, int]] = {}
    modules: Dict[str, Dict[str, int]] = {}
    for func, label in attributed:
        for table, key in ((packages, _package(func.path)),
                           (modules, func.path)):
            row = table.setdefault(key, {column: 0 for column in columns})
            row[label] += func.lines
        grand[label] += func.lines
    total = sum(grand.values())

    print(f"reach audit: {total} function lines in {len(attributed)} "
          f"functions", file=out)
    cumulative = 0
    for label in labels:
        cumulative += grand[label]
        print(f"  {label:<8} {grand[label]:>7}  (cumulative {cumulative})",
              file=out)
    print(f"  {NOWHERE:<8} {grand[NOWHERE]:>7}", file=out)

    def table(title: str, rows: Dict[str, Dict[str, int]]) -> None:
        width = max([len(title)] + [len(key) for key in rows])
        header = "".join(f"{column:>9}" for column in ["lines"] + columns)
        print(f"\n{title:<{width}}{header}", file=out)
        for key in sorted(rows):
            row = rows[key]
            cells = [sum(row.values())] + [row[column] for column in columns]
            print(f"{key:<{width}}" + "".join(f"{cell:>9}" for cell in cells),
                  file=out)

    table("package", packages)
    table("module", modules)
    if prefix is not None:
        prefix = prefix.replace(os.sep, "/").rstrip("/")
        print(f"\ntests-only and unreached functions under {prefix}:",
              file=out)
        for func, label in sorted(attributed, key=lambda item: item[0][:2]):
            if label in (labels[-1], NOWHERE) \
                    and func.path.startswith(prefix):
                print(f"  {func.path}:{func.first} {func.name} "
                      f"{func.lines} lines [{label}]", file=out)


def main(argv: List[str]) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__, file=sys.stderr)
        return 2
    prefix = (os.path.relpath(os.path.abspath(argv[0]), REPO)
              if argv else None)
    runs = default_runs(REPO)
    first_run, failed = audit(REPO, runs)
    report(attribute(functions(REPO), first_run),
           [label for label, _ in runs], prefix)
    if failed:
        print(f"\n{len(failed)} run(s) failed: {'; '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
