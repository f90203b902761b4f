"""Every flagforge name the benchmark under ``perfbench/`` uses still resolves.

The benchmark is kept unchanged between program changes, so a rename or
removal in ``src/`` would otherwise show only when the benchmark runs. This
reads the benchmark's sources with ``ast`` and never edits them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_flagforge(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "flagforge"


def names_used(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for each flagforge name ``tree`` imports or looks up.

    Covers ``from flagforge.m import name``, ``alias.name`` on an imported
    flagforge module, ``f(alias, "name")`` (how the benchmark wraps a
    module function), and code held in string constants (``python -c``).
    """
    used: set[tuple[str, str]] = set()
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _is_flagforge(node.module):
            used.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_flagforge(alias.name):
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    used.add((alias.name, ""))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "flagforge" in node.value:
            try:
                used |= names_used(ast.parse(node.value))
            except SyntaxError:
                pass  # prose, not code
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Call):
            for first, second in zip(node.args, node.args[1:]):
                if (isinstance(first, ast.Name) and first.id in aliases
                        and isinstance(second, ast.Constant)
                        and isinstance(second.value, str)):
                    used.add((aliases[first.id], second.value))
    return used


def benchmark_uses() -> list[tuple[str, str, str]]:
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        uses.update((path.name, module, name)
                    for module, name in names_used(tree))
    return sorted(uses)


def test_every_name_the_benchmark_uses_resolves():
    uses = benchmark_uses()
    # names a scan that missed a kind of use would lose first
    assert {("flagforge.runtime", "apply_changeset"),
            ("flagforge.runtime", "diff"),
            ("flagforge.runtime", "extract_payload"),
            ("flagforge.pipeline", "scan_store"),
            ("flagforge.ingress", "load_mappings"),
            ("flagforge.cli", "main")} <= {(m, n) for _, m, n in uses}
    missing = [f"perfbench/{source}: {module}.{name}"
               for source, module, name in uses
               if name and not hasattr(importlib.import_module(module), name)]
    assert missing == []
