"""The public surface of ``singtrace`` holds only what the package uses.

The guards read the source with ``ast``: every name a module exports in
``__all__`` is referenced somewhere in ``src/singtrace`` (outside
``__init__.py``, which only re-exports), and every parameter with a default
is passed, by keyword or by position, in some call in ``src/singtrace`` to a
callee of that name.  A parameter no caller sets is a fixed value, not an
option.  The census of defaulted parameters is pinned, so a new option is
a deliberate change of this file.  scipy is imported in one function
only, ``Operator.sparse``, and only ``harness.run`` sets a verdict: each
check and helper states its gates, whose bounds no config sets.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "singtrace"

# parameters with a default over every function in src/ (ROADMAP Aim 2)
CENSUS = 32

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


def _hand_verdicts(tree):
    """(line, form) of each place in ``tree`` that sets a verdict by hand
    rather than stating gates: a call that passes ``passed=`` (to
    ``CheckRecord``, ``dict``, ...), a dict display with a ``"passed"``
    key, and an assignment to an attribute ``passed``.  Allowed: the one
    assignment in ``run``, which derives each record's ``passed``, and the
    key of ``CheckRecord.as_dict``, which writes it."""
    allowed = set()
    for node in ast.walk(tree):
        kind = {"run": ast.Assign, "CheckRecord": ast.Dict}.get(
            getattr(node, "name", None))
        if kind and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            allowed.update(id(n) for n in ast.walk(node) if isinstance(n, kind))
    sites = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call):
            sites += [(node.lineno, f"{_callee(node)}(passed=)")
                      for kw in node.keywords if kw.arg == "passed"]
        elif isinstance(node, ast.Dict):
            sites += [(key.lineno, '{"passed": ...}') for key in node.keys
                      if isinstance(key, ast.Constant) and key.value == "passed"]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            sites += [(node.lineno, ".passed =") for target in targets
                      if isinstance(target, ast.Attribute)
                      and target.attr == "passed"]
    return sites


def test_only_run_sets_a_verdict():
    found = {module: _hand_verdicts(tree) for module, tree in _trees().items()}
    assert found == {module: [] for module in found}
    # the guard sees the forms the verdicts had before they were gates
    by_hand = ast.parse(
        'rec = CheckRecord(passed=ok, values={"degree": 1})\n'
        'out = {"residual_norm": n, "tol": tol, "passed": bool(n <= tol)}\n'
        'out = dict(report, mode="parity_vanishing", passed=vanishes)\n'
        'def check(rec):\n'
        '    rec.passed = False\n')
    assert sorted(_hand_verdicts(by_hand)) == [
        (1, "CheckRecord(passed=)"), (2, '{"passed": ...}'),
        (3, "dict(passed=)"), (5, ".passed =")]


_SETTABLE = {"ctx", "config"}


def _rooted_in(node, names):
    """Whether ``node`` is a name in ``names`` or an attribute, call or
    subscript of one (``ctx.tolerance("x")``, ``config.tolerances["x"]``)."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return isinstance(node, ast.Name) and node.id in names


def _configured_bounds(tree):
    """(line, bound) of each ``Gate(...)`` whose bound mentions the run
    context or the config: by name, or through a local name that a function
    binds to one of their attributes (``tol = ctx.tolerance("x")``)."""
    sites = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = set(_SETTABLE)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                pairs = [(target, node.value)]
                if (isinstance(target, ast.Tuple)
                        and isinstance(node.value, ast.Tuple)):
                    pairs = zip(target.elts, node.value.elts)
                names.update(t.id for t, v in pairs
                             if isinstance(t, ast.Name)
                             and _rooted_in(v, _SETTABLE))
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and _callee(call) == "Gate"):
                continue
            bounds = call.args[2:] + [kw.value for kw in call.keywords
                                      if kw.arg == "bound"]
            sites += [(call.lineno, ast.unparse(bound)) for bound in bounds
                      if any(isinstance(n, ast.Name) and n.id in names
                             for n in ast.walk(bound))]
    return sites


def test_no_gate_bound_is_set_by_a_config():
    # each check states its bounds as constants in its code
    found = {module: _configured_bounds(tree)
             for module, tree in _trees().items()}
    assert found == {module: [] for module in found}
    # the guard sees the forms the bounds had while a config set them
    configured = ast.parse(
        'def heat(ctx):\n'
        '    return Gate("gap", gap, ctx.tolerance("heat_rel") * abs(ch))\n'
        'def chern(ctx):\n'
        '    model, tol = ctx.model, ctx.tolerance("chern_convergence")\n'
        '    return Gate("d", d, max(tol * abs(z), tol))\n'
        'def pairs(ctx):\n'
        '    floor = ctx.tol["concordance_floor"]\n'
        '    return [Gate(a, v, bound=r + floor) for a, v, r in rows]\n'
        'def validated(config):\n'
        '    return Gate("x", x, config.tolerances["x"])\n'
        'def stated(ctx):\n'
        '    verdict = pairing_verdict(ctx.chain, ctx.model)\n'
        '    return Gate("residual_sup", r, verdict.tol)\n')
    assert _configured_bounds(configured) == [
        (2, 'ctx.tolerance(\'heat_rel\') * abs(ch)'),
        (5, "max(tol * abs(z), tol)"), (8, "r + floor"),
        (10, "config.tolerances['x']")]


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
