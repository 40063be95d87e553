"""Static checks on the package sources, built on the standard library's ast:
no module imports a name it never uses, and no function takes a parameter
its body never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pintbasis"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _loaded_names(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out
    unused = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = _loaded_names(tree)
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items()
                   if bound not in used]
    assert not unused, unused


def _functions(tree):
    """(function, is_method) for every def, nested ones included."""
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, id(node) in methods


def test_every_parameter_is_read():
    # dunder methods keep the signature their protocol fixes; lambdas are
    # table guards that share one signature
    unread = []
    for name, tree in _modules():
        for fn, is_method in _functions(tree):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            if is_method and params and params[0].arg in ("self", "cls"):
                params = params[1:]
            read = set()
            for stmt in fn.body:
                read |= _loaded_names(stmt)
            unread += [f"{name}:{fn.lineno} {fn.name}({a.arg})" for a in params
                       if a.arg not in read]
    assert not unread, unread


def test_oracle_shares_no_newton_polygon_code():
    """The oracle is the independent check of the constructions: it imports
    nothing from the Newton-polygon modules or from the constructions'
    mod-p kernel (factor, fq), and from basis only the element and basis
    types, the power basis and triangularize."""
    tree = ast.parse((SRC / "oracle.py").read_text())
    allowed = {"basis": {"BasisElement", "PIntegralBasis", "power_basis", "triangularize"}}
    banned = {"newton", "quartic", "quartic_e", "order2", "tables", "factor", "fq"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module is None:  # from . import newton
                bad = names & (banned | set(allowed))
            else:
                module = node.module.split(".")[-1]
                bad = names - allowed.get(module, names) if module not in banned else names
            if bad:
                found.append(f"oracle.py:{node.lineno} imports {sorted(bad)} from {node.module}")
        elif isinstance(node, ast.Import):
            found += [f"oracle.py:{node.lineno} import {alias.name}" for alias in node.names
                      if alias.name.split(".")[-1] in banned | set(allowed)]
    assert not found, found


TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def _tracer_pins():
    """(layers, span names, object paths) that perfbench/tracer.py reads by
    name: its LAYERS, the span names in GUARDS, CHECKS and in the sets and
    comparisons behind its metrics, and every mods["module"].Attr[.attr] it
    wraps or counts."""
    tree = ast.parse(TRACER.read_text())
    layers, spans, paths, wrapped = (), set(), set(), set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("GUARDS", "CHECKS"):
            spans |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS":
            layers = ast.literal_eval(node.value)

    def module_attr(node):
        # mods["fq"].FqField -> "fq.FqField"
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "mods"):
            return f"{node.value.slice.value}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if module_attr(node):
            paths.add(module_attr(node))
        if isinstance(node, ast.Compare):  # s[0] == "oracle.is_integral"
            spans |= {c.value for c in node.comparators
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ("calls", "total_ms"):
            spans |= {c.value for c in ast.walk(node.args[0])
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
        elif name in ("_wrap", "_count") and isinstance(node.args[1], ast.Attribute):
            wrapped.add(node.args[0].value)
        elif name == "_patch" and module_attr(node.args[0]):
            paths.add(f"{module_attr(node.args[0])}.{node.args[1].value}")
    return layers, spans - wrapped, paths


def _own_public_function(mod, attr):
    """The test the tracer applies before it wraps mod.attr."""
    fn = getattr(mod, attr, None)
    return (not attr.startswith("_") and callable(fn) and not isinstance(fn, type)
            and fn.__module__ == mod.__name__)


def test_tracer_names_resolve():
    """Every name the benchmark's tracer wraps or counts resolves to a public
    function or attribute of its module, so a rename fails here instead of
    making a per-layer metric read 0.  The tracer wraps only functions
    defined in the module it traces (not imported ones)."""
    import importlib

    layers, spans, paths = _tracer_pins()
    assert {"cli", "fq", "newton", "order2"} <= set(layers)
    assert {"factor.integer_roots", "oracle.is_ring_closed", "oracle.is_integral",
            "fq.factor_fqpoly", "newton.phi_expand", "basis.triangularize",
            "quartic.make_context"} <= spans
    assert {"fq.FqField.elem", "intpoly.IntPoly.discriminant",
            "quartic.IterationStep"} <= paths
    bad = []
    for layer in layers:  # each layer has a function of its own to time
        mod = importlib.import_module(f"pintbasis.{layer}")
        if not any(_own_public_function(mod, attr) for attr in vars(mod)):
            bad.append(layer)
    for name in sorted(spans):
        module, attr = name.split(".")
        if not _own_public_function(importlib.import_module(f"pintbasis.{module}"), attr):
            bad.append(name)
    for path in sorted(paths):
        module, *attrs = path.split(".")
        obj = importlib.import_module(f"pintbasis.{module}")
        for attr in attrs:
            obj = None if attr.startswith("_") else getattr(obj, attr, None)
        if obj is None:
            bad.append(path)
    assert not bad, bad
