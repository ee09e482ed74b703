"""Every top-level name in ``src/deskchain`` serves the program, not only the
tests: some file under ``src/``, ``scripts/`` or ``perfbench/`` refers to it
outside its own definition (a use, an attribute access or an import). A
package ``__init__.py`` that re-exports a name does not use it. Likewise
every field of a class that is not a ``WireRecord`` is read as an attribute
somewhere in those files; a wire record's fields are its schema and are
exempt."""
import ast
import os
from collections import Counter

from conftest import REPO_ROOT

# protocol functions only tests call today: the light client's proof check,
# the compute spot check, the pinned edge derivation, and the paper's
# semi-Markov return approximation
KEPT_FOR_TESTS = {"verify_light", "spot_check", "derive_edge", "discounted_return"}
# fields only tests read: the claimed result of a compute job, which the
# spot check above leaves to the caller
KEPT_FIELDS_FOR_TESTS = {"ComputeTrace.claimed_output"}


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


def _program_trees() -> dict:
    trees = {}
    for top in ("src", "scripts", "perfbench"):
        for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            for filename in filenames:
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    with open(path, encoding="utf-8") as fh:
                        trees[path] = ast.parse(fh.read(), path)
    return trees


def _base_names(cls: ast.ClassDef) -> set:
    return {b.id if isinstance(b, ast.Name) else b.attr
            for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))}


def test_no_name_in_src_is_referenced_only_by_tests():
    trees = _program_trees()
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


def test_every_field_outside_the_wire_records_is_read_by_the_program():
    trees = _program_trees()
    package = os.path.join(REPO_ROOT, "src", "deskchain")
    classes = [n for path, tree in trees.items() if path.startswith(package)
               for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    wire = {"WireRecord"}
    while subclasses := {c.name for c in classes if _base_names(c) & wire} - wire:
        wire |= subclasses
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = {
        f"{c.name}.{node.target.id}"
        for c in classes if c.name not in wire
        for node in c.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in read
    }
    assert unread == KEPT_FIELDS_FOR_TESTS


def _transition_clocks(tree, module: str):
    """``module.function`` for each function in ``tree`` that takes a state,
    as ``state`` or as a ``ChainState`` method's ``self``, together with a
    ``height`` or ``cfg`` parameter of its own."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                takes_state = "state" in params or (owner == "ChainState" and "self" in params)
                if takes_state and params & {"height", "cfg"}:
                    yield f"{module}.{owner + '.' if owner else ''}{child.name}"
                yield from visit(child, owner)

    yield from visit(tree, None)


def test_every_state_transition_reads_its_height_and_config_from_the_state():
    # one clock and one rule set: a transition reads state.height and
    # state.cfg; only the block executor takes the height it sets on its clone
    package = os.path.join(REPO_ROOT, "src", "deskchain")
    found = {
        name
        for path, tree in _program_trees().items() if path.startswith(package)
        for name in _transition_clocks(tree, os.path.relpath(path, package)[:-3].replace(os.sep, "."))
    }
    assert found == {"tx._execute"}


_ID_RULES = {"contract_address", "channel_id_for", "question_id_for", "contract_id_for", "az_id_for"}


def _id_derivers(tree, module: str):
    """``module.function`` for each function in ``tree`` that calls one of the
    rules that derive the id a tx mints."""

    def callee(call: ast.Call):
        return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(n, ast.Call) and callee(n) in _ID_RULES for n in ast.walk(child)
                ):
                    yield name
                yield from visit(child, f"{name}.")

    yield from visit(tree, f"{module}.")


def test_only_created_id_derives_the_id_a_tx_mints():
    # one id rule: each opener takes the id tx.created_id derives
    package = os.path.join(REPO_ROOT, "src", "deskchain")
    found = {
        name
        for path, tree in _program_trees().items() if path.startswith(package)
        for name in _id_derivers(tree, os.path.relpath(path, package)[:-3].replace(os.sep, "."))
    }
    assert found == {"tx.created_id"}


_DICT_WRITERS = {"clear", "pop", "popitem", "setdefault", "update"}


def _mempool_writers(tree, module: str):
    """``module.function`` for each function in ``tree`` that assigns, deletes
    or edits an object's ``mempool`` or one of its entries."""

    def writes(n) -> bool:
        if isinstance(n, ast.Attribute) and n.attr == "mempool":
            return isinstance(n.ctx, (ast.Store, ast.Del))
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
            return isinstance(n.value, ast.Attribute) and n.value.attr == "mempool"
        return (isinstance(n, ast.Attribute) and n.attr in _DICT_WRITERS
                and isinstance(n.value, ast.Attribute) and n.value.attr == "mempool")

    for child in ast.walk(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(writes, ast.walk(child))):
            yield f"{module}.{child.name}"


def test_only_the_node_writes_its_mempool():
    # the mempool and the pending state change together, so only node.py
    # writes a mempool; the simulator's crash empties one through set_tip
    package = os.path.join(REPO_ROOT, "src", "deskchain")
    found = {
        name
        for path, tree in _program_trees().items() if path.startswith(package)
        for name in _mempool_writers(tree, os.path.relpath(path, package)[:-3].replace(os.sep, "."))
    }
    assert found and {name.split(".")[0] for name in found} == {"node"}, found
