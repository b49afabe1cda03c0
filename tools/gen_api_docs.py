"""Generate docs/api.md from the package's public surface.

Walks the public modules, collects each ``__all__`` entry with the first
line of its docstring, and writes a compact reference.  Run from the
repo root::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

MODULES = [
    "repro.core",
    "repro.stem",
    "repro.consistency",
    "repro.spice",
    "repro.checking",
    "repro.selection",
    "repro.spaces",
    "repro.obs",
    "repro.session",
    "repro.store",
    "repro.faults",
    "repro.fleet",
    "repro.cli",
]

EXTRA_MODULES = {
    "repro.stem": ["repro.stem.compilers", "repro.stem.generators",
                   "repro.stem.compaction", "repro.stem.library",
                   "repro.stem.persistence", "repro.stem.browser",
                   "repro.stem.types"],
    "repro.core": ["repro.core.trace", "repro.core.strengths",
                   "repro.core.explain", "repro.core.control",
                   "repro.core.compile", "repro.core.satisfaction"],
    "repro.obs": ["repro.obs.metrics", "repro.obs.spans",
                  "repro.obs.export", "repro.obs.profiler",
                  "repro.obs.observer", "repro.obs.report"],
    "repro.session": ["repro.session.journal", "repro.session.codec",
                      "repro.session.session", "repro.session.manager",
                      "repro.session.server", "repro.session.client"],
    "repro.store": ["repro.store.base", "repro.store.filestore",
                    "repro.store.sqlitestore", "repro.store.objectstore",
                    "repro.store.compact", "repro.store.scrub"],
    "repro.faults": ["repro.faults.plan", "repro.faults.netproxy"],
    "repro.fleet": ["repro.fleet.hashring", "repro.fleet.replica",
                    "repro.fleet.worker", "repro.fleet.router",
                    "repro.fleet.runner"],
    "repro.spaces": ["repro.spaces.space"],
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.splitlines()[0] if doc else ""
    return line.rstrip(".")


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return "fn"
    if inspect.ismodule(obj):
        return "module"
    return "const"


def entries_for(module_name: str):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", None) or sorted(
        name for name in vars(module) if not name.startswith("_"))
    for name in sorted(names):
        try:
            obj = getattr(module, name)
        except AttributeError:
            continue
        yield name, kind_of(obj), first_line(obj)


def render() -> str:
    lines = ["# API reference", "",
             "Generated by `python tools/gen_api_docs.py` — the public",
             "surface of every package, one line per exported name.", ""]
    for module_name in MODULES:
        lines.append(f"## `{module_name}`")
        lines.append("")
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for name, kind, summary in entries_for(module_name):
            if kind == "module":
                continue
            lines.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("")
        for extra in EXTRA_MODULES.get(module_name, []):
            module = importlib.import_module(extra)
            lines.append(f"### `{extra}` — {first_line(module)}")
            lines.append("")
    return "\n".join(lines)


def main() -> None:
    out_path = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    out_path.write_text(render() + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
