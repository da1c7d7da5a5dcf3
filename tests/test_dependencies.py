import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skimflow
import skimflow.errors
import skimflow.storage

# imports the package and every submodule, and prints the top-level names
# of the modules that loaded and are neither the standard library nor skimflow
PROBE = """
import pkgutil, sys
before = set(sys.modules)
import skimflow
for info in pkgutil.walk_packages(skimflow.__path__, "skimflow."):
    __import__(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"skimflow"}))
"""


def test_runtime_imports_only_the_standard_library():
    src = str(Path(skimflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", [skimflow, skimflow.storage], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_oracle_imports_nothing_of_the_program_but_the_schema():
    """The oracle checks the program from outside: it may take the schema
    parser from skimflow, and no reader or decoder."""
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert {m for m in modules if m.partition(".")[0] == "skimflow"} <= {"skimflow.schema"}


def test_every_error_class_is_raised_or_is_the_base_of_one_that_is():
    """An error class that nothing under src/ raises, and that no raised
    class derives from, is dead code."""
    raised = set()
    for path in Path(skimflow.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
                raised |= {n.attr for n in ast.walk(node.exc) if isinstance(n, ast.Attribute)}
    classes = {name: value for name, value in vars(skimflow.errors).items()
               if isinstance(value, type) and value.__module__ == skimflow.errors.__name__}
    live = {base.__name__ for name in raised & classes.keys() for base in classes[name].__mro__}
    assert sorted(classes.keys() - live) == []
