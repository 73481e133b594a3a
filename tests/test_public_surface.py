"""Tooling guard on the public surface: every name a module exports is used
by the program itself, not only by its own tests."""
import ast
import re
from pathlib import Path

from subalign import classical_sa, datasets, harness, quantum_core, quantum_sa

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "perfbench")
MODULES = (classical_sa, datasets, harness, quantum_sa, quantum_core)


def _code_words(path: Path) -> set[str]:
    """The whole words in the code of one file: names, attributes, imported
    names and the words of string constants. Comments, docstrings and the
    entries of ``__all__`` do not count, and neither does the name on a
    def or class line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = set()
    for node in ast.walk(tree):
        scoped = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if scoped and ast.get_docstring(node, clean=False) is not None:
            skip.add(id(node.body[0].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip.update(id(n) for n in ast.walk(node.value))
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            words.update(re.findall(r"\w+", node.value))
    return words


def test_every_public_name_is_used_by_the_program():
    used = set()
    for folder in PROGRAM_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _code_words(path)
    unused = {
        module.__name__: sorted(set(module.__all__) - used)
        for module in MODULES
        if set(module.__all__) - used
    }
    assert not unused, f"public names that only tests use: {unused}"
