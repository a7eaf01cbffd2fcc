"""Static checks that keep code the program does not use out of `src/margsyn`.

Three rules over the source, read with `ast`:

- Each public module-level function or class of `src/margsyn`, and each
  public method or property of its classes, is named somewhere in `src/` or
  `perfbench/` outside its own definition.  Tests do not count: code that
  only tests call belongs in the tests (`tests/conftest.py` holds the
  references they compare against).
- So is each private module-level function, class and constant, so that a
  second implementation that loses its last caller fails too.
- Every name that a `src/margsyn` module imports is used in that module.

A name counts where it is read (`f`, `x.f`) or imported; strings, such as
dictionary keys, do not count.  A read `x.f` counts for the member f of every
class, except where x is known to hold one class: a parameter annotated with
it, or a local name assigned only from calls of its constructor or of
functions annotated to return it.  So a report's `total` field does not keep
an unused `total` property of another class alive.  Dataclass fields are not
checked: the same field names (`epsilon`, `d`, `m`) are read from argparse
namespaces, whose type no annotation gives.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "margsyn").glob("*.py"))
TREES = {path: ast.parse(path.read_text(), str(path))
         for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))}


CLASSES = {node.name for path in PACKAGE for node in TREES[path].body if isinstance(node, ast.ClassDef)}


def annotated_class(expr) -> str | None:
    """The package class an annotation names, written plain or as a string."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value if expr.value in CLASSES else None
    return expr.id if isinstance(expr, ast.Name) and expr.id in CLASSES else None


def return_classes() -> dict[str, str]:
    """Callable name -> the class it returns, for names whose every definition agrees."""
    seen: dict[str, set] = {}
    for path in PACKAGE:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.FunctionDef):
                seen.setdefault(node.name, set()).add(annotated_class(node.returns))
            elif isinstance(node, ast.ClassDef):
                seen.setdefault(node.name, set()).add(node.name)
    return {name: kinds.pop() for name, kinds in seen.items() if len(kinds) == 1 and None not in kinds}


RETURNS = return_classes()


def local_classes(func: ast.FunctionDef) -> dict[str, str]:
    """Local name -> the one class it is known to hold inside func."""
    assigned = {}
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)):
            callee = node.value.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            assigned[id(node.targets[0])] = RETURNS.get(name)
    kinds: dict[str, set] = {}
    for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
        kinds.setdefault(arg.arg, set()).add(annotated_class(arg.annotation))
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            kinds.setdefault(node.id, set()).add(assigned.get(id(node)))
    return {name: k.pop() for name, k in kinds.items() if len(k) == 1 and None not in k}


def references():
    """(name, receiver class or None, node) for every use of a name in src/ and perfbench/.

    The receiver is known only for attribute reads `x.name`; None means any."""
    out = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = local_classes(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, None, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = scope.get(node.value.id) if isinstance(node.value, ast.Name) else None
            out.append((node.attr, receiver, node))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, None, node) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for tree in TREES.values():
        visit(tree, {})
    return out


def public_definitions():
    """(qualified name, owning class or None, node) of each definition the first rule covers."""
    for path in PACKAGE:
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", None, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", node.name, member


def private_definitions():
    """(qualified name, defined name, node) of each private module-level function, class or constant."""
    for path in PACKAGE:
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield f"{path.stem}.{name}", name, node


def unused(definitions) -> list[str]:
    """Qualified names of the (qualified name, defined name, owner, node) definitions
    that are named nowhere outside their own definition."""
    uses = references()
    found = []
    for qualname, defined, owner, node in definitions:
        own = {id(n) for n in ast.walk(node)}
        if not any(name == defined and id(at) not in own and receiver in (None, owner)
                   and (owner is None or isinstance(at, ast.Attribute))
                   for name, receiver, at in uses):
            found.append(qualname)
    return found


def test_every_public_name_is_used_by_the_program():
    names = unused((qualname, node.name, owner, node) for qualname, owner, node in public_definitions())
    assert names == [], ("named nowhere in src/ or perfbench/ outside its own definition; "
                         f"delete it, or move it into tests/conftest.py if a test needs it: {names}")


def test_every_private_module_name_is_used_by_the_program():
    names = unused((qualname, name, None, node) for qualname, name, node in private_definitions())
    assert names == [], ("named nowhere in src/ or perfbench/ outside its own definition; "
                         f"delete it, or move it into tests/conftest.py if a test needs it: {names}")


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    unused = []
    for path in PACKAGE:
        tree = TREES[path]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in imported_names(tree):
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == [], f"imported but unused: {unused}"
