"""Every top-level name in ``src/deskchain`` serves the program, not only the
tests: some file under ``src/``, ``scripts/`` or ``perfbench/`` refers to it
outside its own definition (a use, an attribute access or an import). A
package ``__init__.py`` that re-exports a name does not use it."""
import ast
import os
from collections import Counter

from conftest import REPO_ROOT

# protocol functions only tests call today: the light client's proof check,
# the compute spot check, the pinned edge derivation, and the paper's
# semi-Markov return approximation
KEPT_FOR_TESTS = {"verify_light", "spot_check", "derive_edge", "discounted_return"}


def _references(node) -> Counter:
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rsplit(".", 1)[-1]] += 1
    return found


def _definitions(tree):
    """(name, node) for each top-level function, class and module constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield n.id, node


def test_no_name_in_src_is_referenced_only_by_tests():
    trees = {}
    for top in ("src", "scripts", "perfbench"):
        for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            for filename in filenames:
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    with open(path, encoding="utf-8") as fh:
                        trees[path] = ast.parse(fh.read(), path)
    everywhere = Counter()
    for path, tree in trees.items():
        if os.path.basename(path) == "__init__.py":
            tree = ast.Module([n for n in tree.body if not isinstance(n, ast.ImportFrom)], [])
        everywhere.update(_references(tree))
    package = os.path.join(REPO_ROOT, "src", "deskchain")
    unreferenced = {
        name
        for path, tree in trees.items() if path.startswith(package)
        for name, node in _definitions(tree)
        if everywhere[name] <= _references(node)[name]
    }
    assert unreferenced == KEPT_FOR_TESTS
