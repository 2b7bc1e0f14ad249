import ast
import re
from collections import Counter
from pathlib import Path

import rankrobust

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(rankrobust.__file__).resolve().parent


def test_readme_lists_the_public_surface():
    text = README.read_text()
    section = text[text.index("## Public surface"):text.index("## Command line")]
    assert set(re.findall(r"`(\w+)`", section)) == {*rankrobust.__all__, "__version__"}


def test_readme_quick_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):text.index("## Public surface")]
    start = tour.index("```python\n") + len("```python\n")
    scope = {}
    exec(compile(tour[start:tour.index("```", start)], f"{README} quick tour", "exec"), scope)
    assert (scope["var"], scope["es"]) == (0.0, 100.0)


#: Public functions and classes that no other code in the package names: the
#: library's entry points to the paper's objects, each named in README.
LIBRARY_ONLY = {"ambiguity_aversion_check", "choquet", "comonotonic", "is_more_ambiguity_averse",
                "mean_risk_components", "subjective_add"}


def test_every_public_def_is_referenced_elsewhere_in_the_package_or_listed():
    """A public module-level function or class that nothing else in ``src/``
    names (``__init__``'s re-exports aside) is dead code unless it is listed
    in LIBRARY_ONLY, whose names README's uncalled-entry-points paragraph gives."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    names = Counter(name for file, tree in trees.items() if file != "__init__.py"
                    for node in ast.walk(tree) for name in _referenced(node))
    unreferenced = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                inside = Counter(name for sub in ast.walk(node) for name in _referenced(sub))
                if names[node.name] - inside[node.name] < 1:
                    unreferenced.add(node.name)
    assert unreferenced == LIBRARY_ONLY
    text = README.read_text()
    paragraph = text[text.index("No code in the package calls"):]
    assert LIBRARY_ONLY <= set(re.findall(r"`(\w+)`", paragraph[:paragraph.index("\n\n")]))


def test_every_private_def_is_referenced_elsewhere_in_the_package():
    """A ``_private`` function or class that nothing else in ``src/`` names is dead code."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    names = Counter(name for tree in trees for node in ast.walk(tree) for name in _referenced(node))
    unreferenced = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and node.name.startswith("_") and not node.name.startswith("__"):
                inside = Counter(name for sub in ast.walk(node) for name in _referenced(sub))
                if names[node.name] - inside[node.name] < 1:
                    unreferenced.append(node.name)
    assert unreferenced == []


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node):
    """The names node refers to: a variable, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
