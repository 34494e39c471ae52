"""The kept public surface: every exported name resolves, and the README
example, the documented use of the API, runs as written."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import cadlab

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"cadlab.{m.name}")
               for m in pkgutil.iter_modules(cadlab.__path__)]
    exported = {}
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names {name!r}"
            exported.setdefault(mod.__name__, set()).add(name)
    # the package re-exports names from its modules' __all__ only
    tree = ast.parse(Path(cadlab.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert hasattr(cadlab, alias.name)
                assert alias.name in exported[f"cadlab.{node.module}"]


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_no_module_imports_a_name_it_never_uses():
    for path in sorted((ROOT / "src" / "cadlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = sorted((line, name) for name, line in imported.items()
                        if name not in used)
        assert not unused, f"{path.name} imports but never uses {unused}"


def _own_scope(fn):
    """The nodes of function ``fn`` outside the functions, lambdas and
    classes nested in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_function_assigns_a_local_it_never_reads():
    # a name read anywhere in the function, nested scopes included, or
    # declared nonlocal or global there, is read; "_" is meant to be unread
    for path in sorted((ROOT / "src" / "cadlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        unread = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {"_"}
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                                 ast.Store):
                    read.add(node.id)
                elif isinstance(node, (ast.Nonlocal, ast.Global)):
                    read.update(node.names)
            unread += [(node.lineno, fn.name, node.id)
                       for node in _own_scope(fn)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Store)
                       and node.id not in read]
        assert not unread, f"{path.name} assigns but never reads {unread}"


def _sources():
    """{file name: syntax tree} of the package's modules, and the names that
    they read, by a name or an attribute."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "cadlab").glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return trees, named


def test_every_private_function_has_a_caller():
    # a module-level function whose name starts with "_" and that no module
    # names, by a name or an attribute, is dead code; a decorated one is
    # reached through its decorator, as the registry runners are
    trees, named = _sources()
    uncalled = sorted((name, node.name) for name, tree in trees.items()
                      for node in tree.body
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.name.startswith("_")
                      and not node.decorator_list
                      and node.name not in named)
    assert not uncalled, f"private functions no module names: {uncalled}"


def test_every_private_constant_is_read():
    # a module-level name that starts with "_", is assigned, and that no
    # module reads is dead code; dunders such as __all__ are read by Python
    trees, named = _sources()
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            unread += [(name, t.id) for target in targets
                       for t in ast.walk(target)
                       if isinstance(t, ast.Name) and t.id.startswith("_")
                       and not t.id.startswith("__") and t.id not in named]
    assert not unread, f"private constants no module reads: {sorted(unread)}"


#: a name cited in docs: the leading dotted name of a double-backquoted
#: span, or the target of a :func:, :meth:, :data: or :class: role
_CITED = re.compile(r"``~?([A-Za-z_][\w.]*)[^`]*``"
                    r"|:(?:func|meth|data|class):`~?([\w.]+)`")


def test_every_private_name_the_docs_cite_exists():
    # a docstring, comment or README line that cites a private name, one
    # whose last dotted part starts with a single "_", must cite one that
    # some module defines by a def, a class or an assignment
    trees, _ = _sources()
    defined = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(t.id for target in targets
                               for t in ast.walk(target)
                               if isinstance(t, ast.Name))
    docs = [*sorted((ROOT / "src" / "cadlab").glob("*.py")), ROOT / "README.md"]
    gone = []
    for path in docs:
        for match in _CITED.finditer(path.read_text()):
            name = match.group(1) or match.group(2)
            last = name.split(".")[-1]
            if (last.startswith("_") and not last.startswith("__")
                    and last not in defined):
                gone.append((path.name, name))
    assert not gone, f"docs cite private names no module defines: {gone}"


def _names(node):
    """The names that ``node`` reads, by a name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_one_function_decides_what_reads_a_gamma_clock_series():
    # which reads take a gamma clock's jump series is one rule, in one
    # function (arrays._series_clock); a second isinstance(..., GammaSpec)
    # would be a second copy of it, free to drift from the first
    trees, _ = _sources()
    checks = sorted(
        (name, fn.name) for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "GammaSpec" in _names(node.args[1])
                for node in _own_scope(fn)))
    assert len(checks) == 1, f"functions that test for a GammaSpec: {checks}"
