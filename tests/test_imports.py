"""Every name a module under src/ imports is used in that module, and the
package runs on numpy and the standard library alone.

Package __init__ modules re-export names; those listed in __all__ count as
used.  Standard library only (ast), so it runs wherever the tests run.
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
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
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


def test_runtime_does_not_import_sympy():
    # sympy is a test dependency only, the oracle of the exact-arithmetic tests
    code = ("import sys, modgalrep.cli, modgalrep.pipeline; "
            "assert 'sympy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
