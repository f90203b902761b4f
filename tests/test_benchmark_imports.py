"""Every flagforge name the benchmark under ``perfbench/`` uses still resolves,
and every call it makes into flagforge still binds to the callee's signature.

The benchmark is kept unchanged between program changes, so a rename or
removal in ``src/`` would otherwise show only when the benchmark runs. This
reads the benchmark's sources with ``ast`` and never edits them.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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


def resolve(module: str, dotted: str):
    """The object ``dotted`` names in ``module``, or None if it is gone."""
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def calls_made(tree: ast.AST) -> set[tuple[str, str, int | None, tuple]]:
    """(module, dotted name, positional count, keywords) of each flagforge call.

    A callee is found through ``from flagforge.m import name``, ``alias.name``
    on an imported flagforge module, or ``var.method`` where every binding of
    ``var`` that names a flagforge class (a constructor call assigned to it, or
    an annotation) names the same class. The count is None after a ``*args``.
    """
    imported: dict[str, tuple[str, str]] = {}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _is_flagforge(node.module):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_flagforge(alias.name) and alias.asname:
                    modules[alias.asname] = alias.name

    def named(expr) -> tuple[str, str] | None:
        if isinstance(expr, ast.Name):
            return imported.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id in modules:
            return modules[expr.value.id], expr.attr
        return None

    classes: dict[str, set[tuple[str, str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            bound, kind = node.targets, named(node.value.func)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            bound, kind = [ast.Name(node.arg)], named(node.annotation)
        else:
            continue
        if kind is not None and inspect.isclass(resolve(*kind)):
            for target in bound:
                if isinstance(target, ast.Name):
                    classes.setdefault(target.id, set()).add(kind)
    instances = {name: kinds.pop() for name, kinds in classes.items()
                 if len(kinds) == 1}

    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "flagforge" in node.value:
            try:
                calls |= calls_made(ast.parse(node.value))
            except SyntaxError:
                pass  # prose, not code
        if not isinstance(node, ast.Call):
            continue
        callee = named(node.func)
        if callee is None and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in instances:
            module, cls = instances[node.func.value.id]
            callee = (module, f"{cls}.{node.func.attr}")
        if callee is not None:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.add((*callee, None if starred else len(node.args),
                       tuple(sorted(k.arg for k in node.keywords if k.arg))))
    return calls


def benchmark_calls() -> list[tuple[str, str, str, int | None, tuple]]:
    calls = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls.update((path.name, *call) for call in calls_made(tree))
    return sorted(calls, key=repr)


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


def test_every_call_the_benchmark_makes_still_binds():
    calls = benchmark_calls()
    # calls a scan that missed a kind of callee would lose first
    assert {("flagforge.runtime", "Cluster", ("bind_listeners", "hosted")),
            ("flagforge.runtime", "Cluster", ("bind_listeners",
                                              "runner_factory")),
            ("flagforge.runtime", "Cluster.converge", ("only_node",)),
            ("flagforge.runtime", "Cluster.shutdown", ("stop_replicas",)),
            ("flagforge.balancer", "Balancer", ()),
            ("flagforge.cli", "main", ())} <= {
        (module, name, keywords) for _, module, name, _, keywords in calls}
    broken = []
    for source, module, name, positional, keywords in calls:
        callee = resolve(module, name)
        where = f"perfbench/{source}: {module}.{name}"
        if not callable(callee):
            broken.append(f"{where} is gone")
            continue
        args = [None] * (positional or 0)
        owner, _, attr = name.rpartition(".")
        if owner and inspect.isfunction(
                inspect.getattr_static(resolve(module, owner), attr)):
            args.insert(0, None)  # self, for a method looked up on its class
        try:
            inspect.signature(callee).bind_partial(
                *args, **dict.fromkeys(keywords))
        except TypeError as exc:
            broken.append(f"{where}({', '.join(keywords)}): {exc}")
    assert broken == []
