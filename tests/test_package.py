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
