"""Every name a module under src/ imports is used in that module, the
package __init__ modules import nothing, and the package runs on numpy and
the standard library alone.

Standard library only (ast), so it runs wherever the tests run.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports_in_src():
    found = []
    for root, _, files in os.walk(SRC):
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(root, fname)
                rel = os.path.relpath(path, SRC)
                found += ["%s:%d %s" % (rel, line, name)
                          for line, name in _unused_imports(path)]
    assert not found, "unused imports: " + ", ".join(found)


def test_package_inits_import_nothing():
    # callers import from the module that defines a name, never through a
    # package facade
    found = []
    for rel in (("modgalrep", "__init__.py"),
                ("modgalrep", "exactalg", "__init__.py")):
        path = os.path.join(SRC, *rel)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.join(*rel), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, "imports in package __init__ modules: " + ", ".join(found)


def test_runtime_does_not_import_sympy():
    # sympy is a test dependency only, the oracle of the exact-arithmetic tests
    code = ("import sys, modgalrep.cli, modgalrep.pipeline; "
            "assert 'sympy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
