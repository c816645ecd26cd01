#!/usr/bin/env python3
"""Generate docs/api.md: the public API reference from docstrings.

Run:  python docs/gen_api.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil

import repro

OUT = pathlib.Path(__file__).parent / "api.md"

#: Modules whose public names form the documented API surface.
MODULES = [
    "repro",
    "repro.isa.registers", "repro.isa.memory", "repro.isa.opcodes",
    "repro.isa.instruction", "repro.isa.resources",
    "repro.asm.lexer", "repro.asm.parser", "repro.asm.program",
    "repro.asm.writer",
    "repro.cfg.basic_block", "repro.cfg.partition", "repro.cfg.windows",
    "repro.machine.latency", "repro.machine.units",
    "repro.machine.reservation", "repro.machine.model",
    "repro.machine.presets",
    "repro.dag.graph", "repro.dag.bitmap", "repro.dag.forest",
    "repro.dag.transitive", "repro.dag.stats", "repro.dag.export",
    "repro.dag.builders.cache",
    "repro.dag.builders.base", "repro.dag.builders.compare_all",
    "repro.dag.builders.landskov", "repro.dag.builders.table_forward",
    "repro.dag.builders.table_backward",
    "repro.dag.builders.bitmap_backward",
    "repro.heuristics.base", "repro.heuristics.catalog",
    "repro.heuristics.passes", "repro.heuristics.stall",
    "repro.heuristics.instruction_class", "repro.heuristics.uncovering",
    "repro.heuristics.structural", "repro.heuristics.register_usage",
    "repro.scheduling.timing", "repro.scheduling.priority",
    "repro.scheduling.list_scheduler", "repro.scheduling.backward_timed",
    "repro.scheduling.fixup", "repro.scheduling.delay_slots",
    "repro.scheduling.interblock", "repro.scheduling.branch_and_bound",
    "repro.scheduling.reservation_scheduler",
    "repro.scheduling.algorithms.base",
    "repro.regalloc.liveness", "repro.regalloc.pressure",
    "repro.workloads.profiles", "repro.workloads.synthetic",
    "repro.workloads.kernels",
    "repro.analysis.tables", "repro.analysis.report",
    "repro.analysis.gantt", "repro.analysis.decisions",
    "repro.analysis.compare",
    "repro.minic.lexer", "repro.minic.parser", "repro.minic.codegen",
    "repro.interp",
    "repro.verify.checker", "repro.verify.faults",
    "repro.runner.watchdog", "repro.runner.fallback",
    "repro.runner.journal", "repro.runner.fsck", "repro.runner.batch",
    "repro.runner.supervisor", "repro.runner.chaos",
    "repro.runner.fuzz",
    "repro.obs.trace", "repro.obs.metrics", "repro.obs.report",
    "repro.obs.expo",
    "repro.serve.protocol", "repro.serve.admission",
    "repro.serve.overload",
    "repro.serve.engine", "repro.serve.server",
    "repro.serve.wal", "repro.serve.supervise",
    "repro.serve.loadtest", "repro.serve.chaosserve",
    "repro.serve.top",
    "repro.pipeline", "repro.transform", "repro.cli",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else "(undocumented)"


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", module.__name__) != module.__name__ \
                and module.__name__ != "repro":
            continue  # re-exports documented at their home module
        yield name, obj


def render_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", "", first_line(module), ""]
    if module_name == "repro":
        # The top-level package only re-exports; every name is
        # documented at its home module below.
        lines.append("Re-exports the public API; see the modules below.")
        lines.append("")
        return lines
    for name, obj in public_members(module):
        if inspect.isclass(obj):
            lines.append(f"### class `{name}`")
            lines.append("")
            lines.append(first_line(obj))
            lines.append("")
            for meth_name, meth in inspect.getmembers(obj):
                if meth_name.startswith("_"):
                    continue
                if not (inspect.isfunction(meth) or isinstance(
                        inspect.getattr_static(obj, meth_name, None),
                        property)):
                    continue
                if inspect.isfunction(meth) \
                        and meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                if isinstance(inspect.getattr_static(obj, meth_name),
                              property):
                    lines.append(f"* property `{meth_name}` — "
                                 f"{first_line(inspect.getattr_static(obj, meth_name))}")
                else:
                    lines.append(f"* `{meth_name}{signature_of(meth)}` — "
                                 f"{first_line(meth)}")
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_line(obj))
            lines.append("")
    return lines


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `python docs/gen_api.py` — edit docstrings, not "
        "this file.",
        "",
        "Guides: [tutorial](tutorial.md), [heuristics](heuristics.md), "
        "[paper mapping](paper_mapping.md), "
        "[schedule verification](verification.md), "
        "[resilient runner](runner.md), "
        "[performance layer](performance.md), "
        "[observability](observability.md), "
        "[resilience](resilience.md), "
        "[serving](serving.md), "
        "[durability](durability.md).",
        "",
    ]
    for module_name in MODULES:
        lines.extend(render_module(module_name))
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
