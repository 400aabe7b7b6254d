"""The public surface of ``singtrace`` holds only what the package uses.

The guards read the source with ``ast``: every name a module exports in
``__all__`` is referenced somewhere in ``src/singtrace`` (outside
``__init__.py``, which only re-exports), and every parameter with a default
is passed, by keyword or by position, in some call in ``src/singtrace`` to a
callee of that name.  A parameter no caller sets is a fixed value, not an
option.  The census of defaulted parameters is pinned, so a new option is
a deliberate change of this file.  scipy is imported in one function
only, ``Operator.sparse``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "singtrace"

# parameters with a default over every function in src/ (ROADMAP Aim 2)
CENSUS = 35

# (module, function, parameter) defaults that no call in src/ passes
ALLOWED_DEFAULTS = {
    # the console entry point: argparse reads sys.argv when argv is None
    ("cli", "main", "argv"),
}


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _callee(call):
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def _references(tree):
    """Names a module uses: bare names, names it imports, and attributes of
    the package modules it imports whole (``from . import traces``)."""
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module is None
               for alias in node.names}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            refs.add(node.attr)
    return refs


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _functions(tree):
    """(qualified name, callee name, self offset, FunctionDef) of every
    function and method; a class is called by its own name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, 0, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield (f"{node.name}.{item.name}", callee,
                           0 if static else 1, item)


def _defaults(fn):
    """(parameter, index among positional parameters or None) per default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(positional[first + k].arg, first + k)
           for k in range(len(fn.args.defaults))]
    out += [(arg.arg, None)
            for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def test_every_export_is_referenced_in_the_package():
    trees = _trees()
    refs = set().union(*(_references(tree) for name, tree in trees.items()
                         if name != "__init__"))
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in _exports(tree) if name not in refs]
    assert not unused, f"exported but used nowhere in src/: {unused}"


def test_every_default_is_passed_by_some_caller():
    trees = _trees()
    calls = {}
    for name, tree in trees.items():
        if name == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)
    unset = []
    for module, tree in trees.items():
        for qualname, callee, offset, fn in _functions(tree):
            for param, index in _defaults(fn):
                passed = any(
                    any(kw.arg in (param, None) for kw in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index - offset)
                    for call in calls.get(callee, ()))
                if not passed and (module, qualname, param) not in ALLOWED_DEFAULTS:
                    unset.append(f"{module}.{qualname}({param})")
    assert not unset, f"defaults no caller in src/ sets: {unset}"


def test_default_census():
    count = sum(len(node.args.defaults)
                + sum(d is not None for d in node.args.kw_defaults)
                for tree in _trees().values() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef))
    assert count == CENSUS


def _check_name_literals(tree, names):
    """(line, name) of each string literal in ``tree`` that spells a check
    name where it would name a check.  Allowed: the keys of the ``CHECKS``
    display and the plans of ``suite``, and three places where the same
    spelling names something else: a dict display's key or a subscript (a
    value of a record, a sum of a result), the first element of a tuple (a
    memo key's kind) and the first argument of ``add_parser`` (a CLI
    subcommand)."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "suite":
            allowed.update(map(id, ast.walk(node)))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(isinstance(t, ast.Name) and t.id == "CHECKS"
                      for t in node.targets)):
            allowed.update(map(id, node.value.keys))
        elif isinstance(node, ast.Dict):
            allowed.update(map(id, node.keys))
        elif isinstance(node, ast.Subscript):
            allowed.add(id(node.slice))
        elif isinstance(node, ast.Tuple) and node.elts:
            allowed.add(id(node.elts[0]))
        elif (isinstance(node, ast.Call) and _callee(node) == "add_parser"
              and node.args):
            allowed.add(id(node.args[0]))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in names
            and id(node) not in allowed]


def test_no_rule_is_keyed_by_check_name():
    # each rule a check obeys is read from its row of CHECKS
    from singtrace.harness import CHECKS
    trees = _trees()
    found = {module: _check_name_literals(trees[module], set(CHECKS))
             for module in ("harness", "cli")}
    assert found == {"harness": [], "cli": []}
    # the guard sees the forms the rules had before they were rows
    keyed = ast.parse(
        'if "identity-suite" in checks: pass\n'
        'harmonic = set(checks) & {"cutoff", "diag-oracles"}\n'
        'record = CheckRecord("heat", passed=True)\n')
    assert sorted(_check_name_literals(keyed, set(CHECKS))) == [
        (1, "identity-suite"), (2, "cutoff"), (2, "diag-oracles"), (3, "heat")]


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def test_scipy_is_imported_in_operator_sparse_only():
    # the package runs on numpy; scipy serves only Operator.sparse, the
    # oracle view that tests and the benchmark's residuals read
    sites = [(module, qualname)
             for module, tree in _trees().items()
             for qualname, _callee, _offset, fn in _functions(tree)
             for node in ast.walk(fn) if _imports_scipy(node)]
    everywhere = sum(_imports_scipy(node) for tree in _trees().values()
                     for node in ast.walk(tree))
    assert sites == [("operators", "Operator.sparse")]
    assert everywhere == 1
