"""Every name a `chainsim` module imports is used in that module, no two
modules import each other, and no function recurses without a stated bound.

`__init__.py` is exempt: its imports are the package's re-exports. A name
that appears only in a string annotation (or a string inside a subscripted
type such as `Callable[..., "tuple[...]"]`) counts as used.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chainsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    return names


def _type_expressions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.Subscript):
            yield node.slice


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for expr in _type_expressions(tree):
        for node in ast.walk(expr):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue  # a string key such as d["two words"]
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def test_the_check_sees_the_modules():
    assert {p.name for p in MODULES} >= {"core.py", "executor.py", "registry.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = _imported(tree) - _used(tree) - {"annotations"}
    assert not dead, f"{path.name} imports unused names: {sorted(dead)}"


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules `tree` imports (the package imports itself only
    relatively), wherever the statement sits: under `if TYPE_CHECKING:` too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import registry
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_module_imports_form_no_cycle():
    """The module import graph is acyclic: no module imports another that
    imports it back, directly or through others. A cycle under
    `TYPE_CHECKING` counts, since it ties the two modules together as much as
    a run-time one does."""
    graph = {p.stem: _package_imports(ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES}
    assert {"core", "executor"} <= graph["scheduler"]
    # Peel off every module that imports none of the modules left, or that
    # none of them imports; what is left lies on a cycle.
    left = dict(graph)
    while True:
        imported = set().union(*left.values())
        ends = [m for m, deps in left.items() if not deps & left.keys() or m not in imported]
        if not ends:
            break
        for m in ends:
            del left[m]
    assert not left, f"import cycle among: {sorted(left)}"


# The self-recursive functions allowed, each with what bounds its depth.
BOUNDED_RECURSION = {
    "_parse_value": "scenario.MAX_NESTING brackets",
}


def _self_recursive(tree: ast.Module) -> set[str]:
    # A method's own name is a class attribute, which a bare name in its body
    # never reaches: there the name is the module's function of that name.
    methods = {
        id(fn)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
    }
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and id(fn) not in methods:
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                ):
                    found.add(fn.name)
    return found


def test_no_unbounded_recursion():
    """A function that calls its own name (a bare `Name`, not an attribute;
    in a method, that name is another function) must be in
    BOUNDED_RECURSION; everything else that nests, such as wrapper
    operations or pair values, is walked from an explicit stack. Mutual
    recursion is not seen: `_parse_op` and `_parse_block` call each other,
    bounded by MAX_NESTING as well."""
    found = set()
    for path in MODULES:
        found |= _self_recursive(ast.parse(path.read_text(encoding="utf-8")))
    assert found == set(BOUNDED_RECURSION)


def _calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every call of `name`, bare or as an attribute (`registry.name`)."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_code_is_registered_only_at_import():
    """Every `register` call in the package sits at module level in
    `registry.py`, outside any function or class. The catalog is then fixed
    once the package is imported, so a scenario that names a code key
    resolves in any process."""
    allowed, stray = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        nested = {
            id(call)
            for scope in ast.walk(tree)
            if isinstance(scope, scopes)
            for call in _calls_to(scope, "register")
        }
        for call in _calls_to(tree, "register"):
            ok = path.name == "registry.py" and id(call) not in nested
            (allowed if ok else stray).append(f"{path.name}:{call.lineno}")
    assert allowed, "the check no longer sees the catalog's registration"
    assert not stray, f"code registered after import at: {stray}"


_GUARDS = {"__setattr__", "__delattr__"}


def test_immutability_has_one_implementation():
    """No class in the package defines `__setattr__` or `__delattr__`: an
    immutable type is a `core._Record`, whose tuple underneath refuses
    assignment, rather than a class that guards its own attributes."""
    guards = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for stmt in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(stmt, ast.FunctionDef):
                    names = {stmt.name}
                else:
                    names = {t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)}
                guards += [f"{path.name}:{cls.name}.{name}" for name in sorted(names & _GUARDS)]
    assert not guards, f"attribute guards outside _Record: {guards}"
