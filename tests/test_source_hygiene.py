"""Code that nothing uses gets deleted: every import is used, every private name is read."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "holderlab"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _names_read(node) -> set[str]:
    """Names and attributes read anywhere under ``node``, and names imported by it."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined(stmt) -> list[str]:
    """Names a module-level statement binds by definition or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    imported = {(alias.asname or alias.name).split(".")[0]
                for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
                and getattr(stmt, "module", None) != "__future__"
                for alias in stmt.names}
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    assert sorted(imported - used) == []


# (statement, names it reads) for every module-level statement of every module
READS = [(stmt, _names_read(stmt)) for tree in MODULES.values() for stmt in tree.body]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_name_is_read_outside_its_definition(module):
    unused = [name for stmt in MODULES[module].body for name in _defined(stmt)
              if name.startswith("_") and not name.startswith("__")
              and not any(name in reads for other, reads in READS if other is not stmt)]
    assert unused == []


# module -> its ``__all__``, for every module that declares one
EXPORTS = {module: ast.literal_eval(stmt.value) for module, tree in MODULES.items()
           for stmt in tree.body if isinstance(stmt, ast.Assign) and _defined(stmt) == ["__all__"]}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_exported_name_is_defined_in_its_module(module):
    defined = {name for stmt in MODULES[module].body for name in _defined(stmt)}
    assert sorted(set(EXPORTS[module]) - defined) == []


# the pipeline's order; a module imports, at module level, only from earlier layers
LAYERS = ["errors", "exponents", "fields", "solvers", "geometry", "lab"]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_module_level_imports_point_to_an_earlier_layer(module):
    imported = {stmt.module or alias.name for stmt in MODULES[module].body
                if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 for alias in stmt.names}
    assert sorted(imported - set(LAYERS[:LAYERS.index(module)])) == []


def _dataclass_keywords(cls) -> dict | None:
    """The keyword arguments of ``cls``'s ``@dataclass`` decorator, or None if it has none."""
    for dec in cls.decorator_list:
        call = dec if isinstance(dec, ast.Call) else None
        if getattr(call.func if call else dec, "id", None) == "dataclass":
            return {kw.arg: ast.literal_eval(kw.value) for kw in (call.keywords if call else [])}
    return None


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_validating_dataclass_is_frozen(module):
    # a check in __post_init__ holds only if no later assignment can bypass it
    unfrozen = [cls.name for cls in ast.walk(MODULES[module]) if isinstance(cls, ast.ClassDef)
                and (keywords := _dataclass_keywords(cls)) is not None
                and not keywords.get("frozen")
                and any(getattr(fn, "name", None) == "__post_init__" for fn in cls.body)]
    assert unfrozen == []


ROOT = SRC.parent.parent
# every call in the package, its tests and its benchmark
CALLS = [node for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
         for path in sorted(folder.glob("*.py"))
         for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Call)]


def _may_set(call, index, name) -> bool:
    """Whether ``call`` can set the parameter ``name``, positional number ``index`` (or None)."""
    return (index is not None and len(call.args) > index
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (name, None) for kw in call.keywords))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_defaulted_parameter_is_set_by_some_call(module):
    never_set = []
    for fn in ast.walk(MODULES[module]):
        # a catalog factory's parameters arrive through ``ClosedForm`` as a dict
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_make_"):
            continue
        positional = [arg.arg for arg in fn.args.posonlyargs + fn.args.args]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]  # bound by the call's receiver
        defaulted = positional[len(positional) - len(fn.args.defaults):] + [
            arg.arg for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]
        calls = [call for call in CALLS
                 if getattr(call.func, "id", getattr(call.func, "attr", None)) == fn.name]
        never_set += [f"{fn.name}({name})" for name in defaulted
                      if not any(_may_set(call, positional.index(name) if name in positional
                                          else None, name) for call in calls)]
    assert never_set == []


def _must_set(call, index, name) -> bool:
    """Whether ``call`` surely sets the parameter ``name``, positional number ``index``."""
    plain = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)),
                 len(call.args))
    return index < plain or any(kw.arg == name for kw in call.keywords)


def _constructions(cls) -> list:
    """Calls of ``cls`` by name anywhere, and calls of ``cls`` in its own classmethods."""
    own = [call for fn in cls.body if isinstance(fn, ast.FunctionDef)
           and any(getattr(dec, "id", None) == "classmethod" for dec in fn.decorator_list)
           for call in ast.walk(fn) if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"]
    return own + [call for call in CALLS
                  if getattr(call.func, "id", getattr(call.func, "attr", None)) == cls.name]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_dataclass_default_is_used_by_some_construction(module):
    # a default that every construction overrides is never read
    always_set = []
    for cls in ast.walk(MODULES[module]):
        if not isinstance(cls, ast.ClassDef) or _dataclass_keywords(cls) is None:
            continue
        fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
        calls = _constructions(cls)
        always_set += [f"{cls.name}.{stmt.target.id}" for index, stmt in enumerate(fields)
                       if stmt.value is not None
                       and all(_must_set(call, index, stmt.target.id) for call in calls)]
    assert always_set == []


ERRORS = [cls.name for cls in MODULES["errors"].body if isinstance(cls, ast.ClassDef)]
# names under the exception of every ``raise`` in every module but errors.py
RAISED = {name for module, tree in MODULES.items() if module != "errors"
          for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None
          for name in _names_read(node.exc)}


@pytest.mark.parametrize("error", [name for name in ERRORS if name != "HolderLabError"])
def test_every_error_type_is_raised_somewhere(error):
    assert error in RAISED
