"""Source-level checks: every module compiles cleanly with warnings raised
as errors, and no module-level name goes unused.

Compiling from source here, rather than importing, catches warnings that
only the compiler emits (such as invalid escapes in docstrings), which an
import served from a cached .pyc would never show.
"""

import ast
import collections
import pathlib
import warnings

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coulombw"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def _top_level_names(tree):
    """(name, node) for every module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name


def _mentions(node):
    """Every name a subtree mentions: names, attribute names and imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_module_level_name_is_used():
    """A function, class or constant nothing in the package refers to
    (besides its own definition) is dead code; dunders are exempt."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    mentions = collections.Counter(n for tree in trees.values() for n in _mentions(tree))
    unused = ["%s.%s" % (mod, name)
              for mod, tree in trees.items() for name, node in _top_level_names(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and mentions[name] == sum(1 for n in _mentions(node) if n == name)]
    assert unused == []
