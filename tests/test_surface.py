"""The library surface: every top-level definition in src/apvar must be
reached from `cli.main`, from a name the acceptance gate imports, or from
a name that perfbench/spans.py wraps.  A name nothing reaches is surface
that no command, gate or benchmark reads; it belongs in tests/oracles.py
or nowhere."""

import ast
from pathlib import Path

from test_cli import benchmark_spans

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "apvar"


def _definitions(tree: ast.Module) -> dict:
    """{name: node} of a module's top-level functions, classes and
    assigned names."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def _relative_imports(node: ast.AST) -> dict:
    """{bound name: (module, name)} of the `from .x import y` under node."""
    out = {}
    for imp in ast.walk(node):
        if isinstance(imp, ast.ImportFrom) and imp.level == 1 and imp.module:
            for alias in imp.names:
                out[alias.asname or alias.name] = (imp.module, alias.name)
    return out


def name_graph() -> tuple[dict, dict]:
    """The edges {(module, name): set of (module, name)} from each
    top-level definition in src/apvar to the definitions its source
    names, through its module's definitions and relative imports; and
    each module's imports {module: {bound name: (module, name)}}."""
    edges, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        defs = _definitions(tree)
        imports[module] = {name: target for name, target
                           in _relative_imports(tree).items()
                           if name not in defs}
        for name, node in defs.items():
            inner = _relative_imports(node)
            local = {**imports[module], **inner}
            refs = set(inner.values())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    if sub.id in defs and sub.id != name:
                        refs.add((module, sub.id))
                    elif sub.id in local:
                        refs.add(local[sub.id])
            edges[module, name] = refs
    return edges, imports


def _resolve(edges: dict, imports: dict, module: str, name: str) -> tuple:
    """The defining (module, name) of `name` as bound in apvar.`module`."""
    while (module, name) not in edges:
        if name not in imports.get(module, {}):
            raise AssertionError(f"apvar.{module} binds no {name!r}")
        module, name = imports[module][name]
    return module, name


def roots(edges: dict, imports: dict) -> set:
    """cli.main, the gate's apvar imports and the names in LAYERS."""
    out = {("cli", "main")}
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for imp in ast.walk(gate):
        if isinstance(imp, ast.ImportFrom) and (imp.module or "").startswith(
                "apvar."):
            module = imp.module.removeprefix("apvar.")
            out |= {_resolve(edges, imports, module, a.name)
                    for a in imp.names}
    for mod_name, layers in benchmark_spans().LAYERS.items():
        module = mod_name.removeprefix("apvar.")
        for _, names in layers.values():
            out |= {_resolve(edges, imports, module, name) for name in names}
    return out


def unreached() -> list:
    edges, imports = name_graph()
    seen, todo = set(), list(roots(edges, imports))
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(edges[node])
    return sorted(f"{m}.{n}" for m, n in edges.keys() - seen
                  if not (n.startswith("__") and n.endswith("__")))


def test_every_definition_is_reached():
    names = unreached()
    assert not names, ("defined in src/apvar but reached from no command, "
                       "gate import or benchmark span: " + ", ".join(names))



def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def private_imports() -> list:
    """Each `from .x import _name, ...` in src/apvar that binds another
    module's single-underscore names, as 'module: from .x import names'."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for imp in ast.walk(ast.parse(path.read_text())):
            if isinstance(imp, ast.ImportFrom) and imp.level:
                names = [a.name for a in imp.names
                         if a.name.startswith("_") and not _dunder(a.name)]
                if names:
                    out.append(f"{path.stem}: from {'.' * imp.level}"
                               f"{imp.module or ''} import {', '.join(names)}")
    return out


def test_no_module_imports_private_names():
    """A module's single-underscore names are its own: what another
    module reads is public, so each fact crosses a module seam by one
    named route."""
    found = private_imports()
    assert not found, ("src/apvar imports private names across modules: "
                       + "; ".join(found))


def package_root_imports() -> list:
    """Each import in src/apvar/__init__.py of a module of the package,
    relative or absolute, as written."""
    out = []
    for imp in ast.walk(ast.parse((SRC / "__init__.py").read_text())):
        if isinstance(imp, ast.ImportFrom) and (
                imp.level or (imp.module or "").split(".")[0] == "apvar"):
            out.append(f"from {'.' * imp.level}{imp.module or ''} import "
                       + ", ".join(a.name for a in imp.names))
        elif isinstance(imp, ast.Import):
            out.extend(f"import {a.name}" for a in imp.names
                       if a.name.split(".")[0] == "apvar")
    return out


def test_package_root_imports_nothing_from_the_package():
    """Each name has one route, through the module that defines it: the
    package root binds no submodule name."""
    found = package_root_imports()
    assert not found, ("src/apvar/__init__.py imports from the package: "
                       + "; ".join(found))
