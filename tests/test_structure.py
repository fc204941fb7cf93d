"""Each rank rule has one owner: only ``tolerances`` calls ``margin_cutoff``
(through the lattice cutoff every decision about a lattice reads), and
only ``twisted.twisted_invert`` calls ``rank_tolerance``.  Read from the
source with :mod:`ast`, so a call is found however the module runs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gaborkit"


class _Calls(ast.NodeVisitor):
    """The enclosing scope of every call to ``name`` or an alias of it."""

    def __init__(self, name):
        self.name, self.aliases, self.scope, self.found = name, {name}, [], []

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name == self.name and alias.asname:
                self.aliases.add(alias.asname)

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called in self.aliases:
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def calls(name):
    """``(module, scope)`` of every call to ``name`` in ``src/gaborkit``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Calls(name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [(path.stem, scope) for scope in visitor.found]
    return found


def test_only_tolerances_calls_margin_cutoff():
    assert {module for module, _ in calls("margin_cutoff")} == {"tolerances"}


def test_only_twisted_invert_calls_rank_tolerance():
    assert calls("rank_tolerance") == [("twisted", "twisted_invert")]
