"""No module under src/ keeps a process-global registry.

A run's spaces and decompositions live in its MatrixCache, so no module
binds a name at module level to an empty dict, list or set, the start of
every registry.  lru_cache'd functions and constant tables are not
affected.  Standard library only (ast), like test_imports.py.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _is_empty_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(node, "keys", None) or getattr(node, "elts", None))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


def _registries(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if _is_empty_container(value):
            found += [(node.lineno, ast.unparse(t)) for t in targets]
    return found


def test_no_module_level_registries_in_src():
    found = []
    for root, _, files in os.walk(SRC):
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(root, fname)
                rel = os.path.relpath(path, SRC)
                found += ["%s:%d %s" % (rel, line, name)
                          for line, name in _registries(path)]
    assert not found, "module-level registries: " + ", ".join(found)
