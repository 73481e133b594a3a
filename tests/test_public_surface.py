"""Tooling guard on the public surface: every name a module exports, every
field of every dataclass it defines, and every public method and property of
its public classes, is used by the program itself, not only by its own
tests."""
import ast
import dataclasses
import re
import types
from pathlib import Path

from subalign import classical_sa, datasets, errors, harness, quantum_core, quantum_sa

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "perfbench")
MODULES = (classical_sa, datasets, errors, harness, quantum_sa, quantum_core)


def _program_files():
    for folder in PROGRAM_DIRS:
        yield from sorted((ROOT / folder).rglob("*.py"))


def _public_names(module) -> set[str]:
    """The module's ``__all__``, or without one every public name that the
    module itself defines."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
    }


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
    for path in _program_files():
        used |= _code_words(path)
    unused = {
        module.__name__: sorted(_public_names(module) - used)
        for module in MODULES
        if _public_names(module) - used
    }
    assert not unused, f"public names that only tests use: {unused}"


def _attributes_read() -> set[str]:
    """Every name the program loads as an attribute (``obj.name``); storing
    it, or naming it in a constructor call, does not count."""
    read = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_dataclass_field_is_read_by_the_program():
    read = _attributes_read()
    unread = sorted(
        f"{cls.__name__}.{f.name}"
        for module in MODULES
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and isinstance(cls, type)
        and cls.__module__ == module.__name__
        for f in dataclasses.fields(cls)
        if f.name not in read
    )
    assert not unread, f"dataclass fields that no program code reads: {unread}"


def test_every_public_method_is_read_by_the_program():
    """A public method or property of a public class counts as read where
    the program loads it as an attribute (``obj.method``)."""
    read = _attributes_read()
    unread = sorted(
        f"{name}.{attr}"
        for module in MODULES
        for name in _public_names(module)
        if isinstance(cls := getattr(module, name), type) and cls.__module__ == module.__name__
        for attr, member in vars(cls).items()
        if not attr.startswith("_") and attr not in read
        and isinstance(member, (types.FunctionType, property, classmethod, staticmethod))
    )
    assert not unread, f"public methods that no program code reads: {unread}"
