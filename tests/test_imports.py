"""What the package imports, and when.

Refactors that delete the last use of a name tend to leave its import
behind.  Each module under ``src/wlancell`` is parsed with `ast`; a name
bound by a top-level ``import`` or ``from ... import`` must appear as a
loaded name elsewhere in the module.  ``from __future__`` imports bind
nothing, and a package ``__init__`` may import a name only to re-export
it through ``__all__``.

numpy is most of the start-up time, and only the simulator, the learning
automata, random-order `misa` and the enumerated-state kernels need it.
So no module imports it at load time, outside ``if TYPE_CHECKING:``, and
the subcommands that need none of those run without loading it.
"""

import ast
import json
import subprocess
import sys
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


def load_time_imports(nodes) -> set[str]:
    """Top-level module names that ``nodes`` import while a module loads:
    everywhere but inside function bodies and ``if TYPE_CHECKING:``."""
    names = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            names |= load_time_imports(node.orelse)
        else:
            names |= load_time_imports(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_loads_without_numpy(path):
    assert "numpy" not in load_time_imports(ast.parse(path.read_text()).body)


def test_checker_flags_a_load_time_numpy_import():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "else:\n    import json\n"
              "def f():\n    import numpy\n"
              "class C:\n    from numpy.random import default_rng\n"
              "try:\n    import scipy.stats\nexcept ImportError:\n    pass\n")
    assert load_time_imports(ast.parse(source).body) == {
        "typing", "json", "numpy", "scipy"}


#: Runs in a fresh interpreter: each argv goes through `cli.main` in turn,
#: and after each it records the exit code and whether numpy is loaded.
_PROBE = """
import contextlib, io, json, sys, tempfile
from wlancell import cli
seen = [("import", 0, "numpy" in sys.modules)]
with tempfile.TemporaryDirectory() as out:
    for argv in json.loads(sys.argv[1]):
        argv = [a.replace("{out}", out) for a in argv]
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        seen.append((argv[0], code, "numpy" in sys.modules))
print(json.dumps(seen))
"""


def _probe(*runs: list[str]) -> list[list]:
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(runs)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_numpy_free_subcommands_never_load_numpy():
    runs = [
        ["analyze", "--input=hex7", "--out={out}"],
        ["analyze", "--input=arbitrary7", "--mode=tcp", "--out={out}"],
        ["sweep", "--input=path4", "--payload-bytes=100:900:400",
         "--out={out}"],
        ["sweep", "--input=hex7", "--sweep=rho", "--out={out}"],
        ["fixtures", "--verify", "--out={out}"],
        ["assign", "--input=grid12", "--method=exhaustive", "--out={out}"],
        ["assign", "--input=path4", "--method=exhaustive",
         "--utility=fixed", "--out={out}"],
        ["assign", "--input=grid12", "--method=misa", "--out={out}"],
        ["--help"],
        ["analyze", "--input=path4", "--mode=bogus"],
    ]
    codes = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]
    seen = _probe(*runs)
    assert [code for _, code, _ in seen] == codes
    assert [name for name, _, numpy in seen if numpy] == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--input=path4", "--horizon=0.1", "--replications=2"],
    ["assign", "--input=path4", "--method=lri", "--steps=50"],
    ["assign", "--input=path4", "--order=random"],
], ids=["simulate", "lri", "random-misa"])
def test_numpy_users_load_it_on_first_use(argv):
    assert _probe([*argv, "--out={out}"]) == [
        ["import", 0, False], [argv[0], 0, True]]
