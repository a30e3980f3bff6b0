#!/usr/bin/env python3
"""Generate docs/API.md: the public surface with docstring summaries.

Walks each subpackage's ``__all__`` (the deliberate public API) and
emits one section per subpackage with each exported name's signature
and first docstring line. Deterministic output: regenerate after API
changes with ``python tools/gen_api_doc.py``.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

SUBPACKAGES = [
    "repro.sim",
    "repro.units",
    "repro.spec",
    "repro.net",
    "repro.hw",
    "repro.openflow",
    "repro.devices",
    "repro.topology",
    "repro.osnt",
    "repro.osnt.generator",
    "repro.osnt.monitor",
    "repro.oflops",
    "repro.testbed",
    "repro.faults",
    "repro.flows",
    "repro.runner",
    "repro.analysis",
    "repro.telemetry",
    "repro.obs",
    "repro.cluster",
]

#: Display titles for sections whose package name alone undersells them.
SECTION_TITLES = {
    "repro.spec": "Spec Base & Digests",
    "repro.topology": "Declarative Topologies",
    "repro.flows": "Closed-Loop Flows",
    "repro.telemetry": "Telemetry & Tracing",
    "repro.obs": "Causal Observability",
    "repro.cluster": "Result Store & Worker Pool",
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe(name: str, obj) -> str:
    if inspect.isclass(obj):
        return f"- **`{name}`** (class) — {first_line(obj)}"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return f"- **`{name}{signature_of(obj)}`** — {first_line(obj)}"
    if inspect.ismodule(obj):
        return f"- **`{name}`** (module) — {first_line(obj)}"
    if isinstance(obj, dict) and obj and all(callable(v) for v in obj.values()):
        # Registries of callables: reprs carry memory addresses, so
        # list the registered keys instead (keeps output deterministic).
        keys = ", ".join(repr(key) for key in sorted(obj))
        return f"- **`{name}`** (registry) — keys: {keys}"
    return f"- **`{name}`** = `{obj!r}`"


def main() -> int:
    lines = [
        "# Public API reference",
        "",
        "Generated by `tools/gen_api_doc.py` — do not edit by hand.",
        "Each subpackage's `__all__` is its supported public surface;",
        "see the module docstrings and DESIGN.md for the architecture.",
        "",
    ]
    for module_name in SUBPACKAGES:
        module = importlib.import_module(module_name)
        title = SECTION_TITLES.get(module_name)
        if title:
            lines.append(f"## {title} (`{module_name}`)")
        else:
            lines.append(f"## `{module_name}`")
        lines.append("")
        summary = first_line(module)
        if summary:
            lines.append(summary)
            lines.append("")
        exported = getattr(module, "__all__", None)
        if exported is None:
            # Modules without __all__ (e.g. repro.units): take public
            # top-level callables and constants.
            exported = sorted(
                name
                for name, obj in vars(module).items()
                if not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and getattr(obj, "__module__", module_name) == module_name
            )
        for name in exported:
            obj = getattr(module, name)
            lines.append(describe(name, obj))
        lines.append("")
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text("\n".join(lines))
    print(f"wrote {target} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
