"""Every module-level import in the package is read somewhere.

Refactors that delete the last use of a name tend to leave its import
behind.  Each module under ``src/wlancell`` is parsed with `ast`; a name
bound by a top-level ``import`` or ``from ... import`` must appear as a
loaded name elsewhere in the module.  ``from __future__`` imports bind
nothing, and a package ``__init__`` may import a name only to re-export
it through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wlancell"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str, is_package: bool) -> set[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = imported_names(tree) - read
    return unused - exported_names(tree) if is_package else unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(),
                          path.name == "__init__.py") == set()


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Mapping\n"
              "__all__ = ['Mapping']\n"
              "def f():\n    return math.pi\n")
    assert unused_imports(source, is_package=False) == {"os", "Mapping"}
    assert unused_imports(source, is_package=True) == {"os"}
