"""Each rank rule has one owner: only ``tolerances`` calls ``margin_cutoff``
(through the lattice cutoff every decision about a lattice reads), and
only ``twisted.twisted_invert`` calls ``rank_tolerance``.  Every verdict,
bound, refusal and count is one ``tolerances._reading``, so ``_rank`` has
that one caller and the kernel's per-block count.  Read from the
source with :mod:`ast`, so a call is found however the module runs.  Each
input rule's message, too, is written at one site, in the module that owns
the value.  A spectra entry keeps only its two decompositions, and the
zero-padded S and G spectra derived from them have two readers.  Only the
two maps read the window factor, and S is D after C through them; the
rest reads its sigma = 0 fiber.  The painless maps read neither: a
product, an FFT and a roll phase."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gaborkit"


class _Scoped(ast.NodeVisitor):
    """Collects the enclosing scope of each node a subclass picks."""

    def __init__(self):
        self.scope, self.found = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _record(self):
        self.found.append(".".join(self.scope) or "<module>")


class _Calls(_Scoped):
    """The enclosing scope of every call to ``name`` or an alias of it."""

    def __init__(self, name):
        super().__init__()
        self.name, self.aliases = name, {name}

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.name == self.name and alias.asname:
                self.aliases.add(alias.asname)

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called in self.aliases:
            self._record()
        self.generic_visit(node)


class _Reads(_Scoped):
    """The enclosing scope of every read of an attribute in ``attrs``."""

    def __init__(self, attrs):
        super().__init__()
        self.attrs = attrs

    def visit_Attribute(self, node):
        if node.attr in self.attrs and isinstance(node.ctx, ast.Load):
            self._record()
        self.generic_visit(node)


def _found(visitor):
    """``(module, scope)`` of every node ``visitor()`` picks in ``src/gaborkit``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        walker = visitor()
        walker.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [(path.stem, scope) for scope in walker.found]
    return found


def calls(name):
    """``(module, scope)`` of every call to ``name`` in ``src/gaborkit``."""
    return _found(lambda: _Calls(name))


def test_only_tolerances_calls_margin_cutoff():
    assert {module for module, _ in calls("margin_cutoff")} == {"tolerances"}


def test_only_twisted_invert_calls_rank_tolerance():
    assert calls("rank_tolerance") == [("twisted", "twisted_invert")]


def test_every_verdict_is_one_reading():
    # The kernel counts per block, as its null vectors are placed per block.
    assert set(calls("_rank")) == {("tolerances", "_reading"), ("operators", "_synthesis_kernel")}
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert defined.isdisjoint({"_psd_holds", "_deciding"})


@pytest.mark.parametrize(
    "text,owner",
    [
        ("does not divide L=", "lattice"),  # lattice steps, box widths, partition periods
        ("must be an integer >= 2", "lattice"),  # the signal length
        ("must be positive and finite", "tolerances"),  # tol_scale
        ("names no lattice", "reporting"),  # an empty sweep grid
        ("must be numbers", "lattice"),  # windows, signals and coefficient grids
        ("non-finite samples", "lattice"),  # the finiteness fault
    ],
)
def test_each_input_rule_is_written_once(text, owner):
    sites = [
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        if text in line
    ]
    assert sites == [owner]


def test_spectra_cache_only_their_two_decompositions():
    tree = ast.parse((SRC / "operators.py").read_text())
    (spectra,) = [node for node in tree.body if getattr(node, "name", "") == "SystemSpectra"]
    cached = {
        node.name
        for node in spectra.body
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "cached_property"
    }
    assert cached == {"analysis", "synthesis"}


def test_padded_spectra_have_two_readers():
    # Every verdict, bound and refusal reads the synthesis spectrum squared;
    # the padded S and G spectra are for the duality record and the CSV.
    readers = set(_found(lambda: _Reads({"frame", "gramian"})))
    assert readers == {("diagnostics", "duality_check"), ("reporting", "_write_spectra")}


def test_only_the_maps_read_the_window_factor():
    # The spectra, the kernel and the dual read the sigma = 0 fiber alone.
    # Each private map has its public map as its one caller, and S is D
    # after C through the two public maps, on the window's one route, so
    # frame_operator_apply checks the dual's solve on the fiber.  Only the
    # dense builders build atoms: cross_gramian is a twisted multiplier.
    analysis, synthesis = ("operators", "coefficient_map"), ("operators", "synthesis_map")
    assert set(calls("_window_factor")) == {analysis, synthesis}
    assert set(calls("_analyze")) == set(calls("_painless_analyze")) == {analysis}
    assert set(calls("_synthesize")) == set(calls("_painless_synthesize")) == {synthesis}
    apply = ("operators", "frame_operator_apply")
    assert apply in calls("coefficient_map") and apply in calls("synthesis_map")
    assert set(calls("atom_stack")) == {
        ("operators", "analysis_matrix"),
        ("operators", "synthesis_matrix"),
    }
    assert ("diagnostics", "cross_gramian") in calls("_twisted_matrix")
    assert set(calls("_fiber")) == {
        ("operators", "SystemSpectra.synthesis"),
        ("operators", "_synthesis_kernel"),
        ("operators", "_frame_inverse_apply"),
    }


def test_the_painless_maps_are_a_product_an_fft_and_a_phase():
    # Only the two painless maps read the roll phase, and neither reads the
    # window factor or its fiber.  Analysis has no Python loop; synthesis
    # loops once, over the q slabs.
    maps = {("operators", "_painless_analyze"), ("operators", "_painless_synthesize")}
    assert set(calls("_roll_phase")) == maps
    assert maps.isdisjoint(calls("_window_factor") + calls("_fiber"))
    tree = ast.parse((SRC / "operators.py").read_text())
    loops = (ast.For, ast.While, ast.comprehension)
    found = {
        node.name: sum(isinstance(inner, loops) for inner in ast.walk(node))
        for node in tree.body
        if getattr(node, "name", "") in ("_painless_analyze", "_painless_synthesize")
    }
    assert found == {"_painless_analyze": 0, "_painless_synthesize": 1}
