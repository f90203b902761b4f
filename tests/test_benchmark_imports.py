"""Every flagforge name the benchmark under ``perfbench/`` uses still resolves,
and every call it makes into flagforge still binds to the callee's signature;
and every public name in ``src/flagforge`` has a user outside the tests.

The benchmark is kept unchanged between program changes, so a rename or
removal in ``src/`` would otherwise show only when the benchmark runs. This
reads the benchmark's sources with ``ast`` and never edits them.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src" / "flagforge"

# public names only the tests use, each with the reason it stays
TEST_ONLY_API = {
    # ACCEPTANCE 8 compares the table with the reference model through it
    "balancer.StickTable.entries",
}


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


# one line per kind of use and of callee that the scanners document, so a
# scan that lost a kind fails here whatever the benchmark calls today
SAMPLE = '''
"""Drives flagforge from a benchmark."""
import flagforge.runtime as runtime
from flagforge.balancer import Balancer
from flagforge.model import parse_topology

setattr(runtime, "diff", traced)
topology = parse_topology(text)
runtime.apply_changeset(plan, executor)
balancer = Balancer(registry, 60, 100)
balancer.pick("web", ip)
either = Balancer(registry, 60, 100)
either = runtime.Cluster(topology, store)
either.close()

def host(cluster: runtime.Cluster):
    cluster.converge(topology=topology)

parse_topology(*lines)
ENTRY = "from flagforge.cli import main; main(['serve'])"
'''


def test_the_scanners_find_every_kind_of_use_and_call():
    tree = ast.parse(SAMPLE)
    assert names_used(tree) == {
        ("flagforge.runtime", ""),
        ("flagforge.balancer", "Balancer"),
        ("flagforge.model", "parse_topology"),
        ("flagforge.runtime", "diff"),
        ("flagforge.runtime", "apply_changeset"),
        ("flagforge.runtime", "Cluster"),
        ("flagforge.cli", "main")}
    assert calls_made(tree) == {
        ("flagforge.model", "parse_topology", 1, ()),
        ("flagforge.runtime", "apply_changeset", 2, ()),
        ("flagforge.balancer", "Balancer", 3, ()),
        ("flagforge.balancer", "Balancer.pick", 2, ()),
        ("flagforge.runtime", "Cluster", 2, ()),
        ("flagforge.runtime", "Cluster.converge", 0, ("topology",)),
        ("flagforge.model", "parse_topology", None, ()),
        ("flagforge.cli", "main", 1, ())}


def test_every_benchmark_module_that_imports_flagforge_is_scanned():
    importing = [path for path in sorted(PERFBENCH.glob("*.py"))
                 if re.search(r"\b(from|import) flagforge\b", path.read_text())]
    assert importing
    for path in importing:
        tree = ast.parse(path.read_text(), str(path))
        assert names_used(tree), path.name
        # tracing.py only wraps runtime.diff, and calls nothing in flagforge
        assert bool(calls_made(tree)) == (path.name != "tracing.py"), path.name


def test_every_name_the_benchmark_uses_resolves():
    uses = benchmark_uses()
    missing = [f"perfbench/{source}: {module}.{name}"
               for source, module, name in uses
               if name and not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_every_call_the_benchmark_makes_still_binds():
    calls = benchmark_calls()
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


def public_api() -> list[str]:
    """``module.name`` of each public module-level function and class in
    ``src/flagforge``, and ``module.Class.name`` of each public method."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found.extend(f"{path.stem}.{node.name}.{item.name}"
                             for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return found


def names_read(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(names read bare or imported, names read as attributes) in ``tree``,
    the flagforge uses ``names_used`` finds and code in strings included."""
    bare = {name for _, name in names_used(tree)}
    attributes: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            bare.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "flagforge" in node.value:
            try:
                more_bare, more_attributes = names_read(ast.parse(node.value))
            except SyntaxError:
                continue  # prose, not code
            bare |= more_bare
            attributes |= more_attributes
    return bare, attributes


def test_every_public_name_in_src_has_a_user_outside_the_tests():
    bare, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        more_bare, more_attributes = names_read(
            ast.parse(path.read_text(), str(path)))
        bare |= more_bare
        attributes |= more_attributes
    unused = []
    for dotted in public_api():
        module, *owner, name = dotted.split(".")
        used = name in attributes if owner else name in bare | attributes
        if not used and dotted not in TEST_ONLY_API:
            unused.append(dotted)
    assert unused == []
