"""Every function, class and method of the package has a use.

A top-level function or class, or a method whose name is not a dunder,
must be referenced from ``src/`` outside its own definition, from
``demos/`` or from ``perfbench/``, or be a ``cmd_*`` command that
``checks.command`` looks up by name.  An export in ``ncdirac.__all__`` is
no use by itself: code only the tests call belongs in the tests.
References are matched by name: a ``Name`` or an attribute in ``src/``
(the strings of ``__all__`` are not), and in ``demos/`` and ``perfbench/``
also an imported name or a word of a string constant (the benchmark's
tracer names functions as strings).
"""

import ast
from collections import Counter
from pathlib import Path

from ncdirac import checks

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncdirac"


def _names(tree, *, strings=False) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif strings and isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.replace(".", " ").split())
    return out


def _definitions(tree):
    """(qualified name, node) of each top-level def and class, and of each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_has_a_use():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    outside = Counter()
    for folder in ("demos", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            outside += _names(ast.parse(path.read_text()), strings=True)
    commands = {checks.command(family).__name__ for family in checks.FAMILIES}

    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            used_elsewhere = in_src[name] - _names(node)[name] > 0
            if not (used_elsewhere or outside[name] or name in commands):
                unused.append(f"{module}: {qualname}")
    assert not unused, "definitions nothing uses: " + ", ".join(unused)
