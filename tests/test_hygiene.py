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


def test_one_development_per_phi():
    """Outside newton, only the second-order polygon and the polygon command
    develop f in phi; every other route reads the development from the
    PhiRegularity record of its lift, so a hand-rolled development fails
    here."""
    allowed = {("order2.py", "second_order_basis"), ("cli.py", "cmd_polygon")}
    found = []
    for name, tree in _modules():
        if name in ("newton.py", "__init__.py"):
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (name, fn.name) in allowed:
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "phi_expand"):
                    found.append(f"{name}:{node.lineno} {fn.name}")
    assert not found, found


def _calls(callee):
    """(module file, dotted path of the enclosing defs and classes, line)
    for every call of a function or method named callee in src/."""
    found = []

    def visit(node, name, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == callee):
                found.append((name, scope, child.lineno))
            visit(child, name, inner)

    for name, tree in _modules():
        visit(tree, name, "")
    return found


def test_no_phi_index_in_the_library():
    """Ore's index check reads ind_phi(f) from the PhiRegularity record of
    each lift; no module in src/ develops f again to compute it."""
    assert not _calls("phi_index"), _calls("phi_index")


def test_one_factorization_per_analysis():
    """Only the analysis of (f, p) in newton (LocalAnalysis) factors f mod p;
    every route, check and command reads the lifts and their multiplicities
    from the analysis, so a second factorization fails here."""
    found = [c for c in _calls("factor_mod_p")
             if c[0] != "newton.py" or not c[1].startswith("LocalAnalysis.")]
    assert not found, found


def test_one_prime_check_and_one_residual_factorization():
    """p is checked prime where cli.main parses it and where a LocalAnalysis
    is built, which every library route does; the kernels take it as
    checked.  Each residual polynomial is factored by its SideData, on first
    use, and its separability is read off that factorization (no gcd)."""
    allowed = {("cli.py", "main"), ("newton.py", "LocalAnalysis.__init__")}
    found = [c for c in _calls("check_prime") if c[:2] not in allowed]
    found += [c for c in _calls("factor_fqpoly") if c[:2] != ("newton.py", "SideData.factors")]
    found += [c for c in _calls("gcd") if c[:2] == ("newton.py", "SideData.separable")]
    assert not found, found


def test_fractions_stay_out_of_polygon_geometry():
    """Polygon geometry is integer geometry: floors, side heights and lengths
    and the slope as text.  The local linear algebra is integer too: the
    Hermite form over Z_(p), the trace form and its determinant.  The
    tables give the paper's literal nu as a (num, den) pair, which the
    second-order step cross-checks as floor(2 nu), in integers.  No module
    in src/ imports fractions."""
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if "fractions" in modules:
                found.append(f"{name}:{node.lineno}")
    assert not found, found


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


def _verdict_pattern():
    """The pattern perfbench/checks.py reads the last line of verify with:
    the string passed to re.compile in its _VERDICT assignment."""
    import re

    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "_VERDICT":
            return re.compile(ast.literal_eval(node.value.args[0]))
    raise AssertionError("perfbench/checks.py assigns no _VERDICT")


def test_verify_line_matches_the_benchmark_parser():
    """The last line of verify -f is what the benchmark's checker parses
    with _VERDICT: on seeded inputs of the generic and the quartic routes it
    matches with status ok, the input's p and the index basis --json
    prints.  A change to that line fails here instead of turning every
    verify-mixed answer into a wrong one."""
    import io
    import json
    import random

    from pintbasis.cli import _corpus_quartic, main
    from pintbasis.intpoly import IntPoly

    def run(argv):
        buf = io.StringIO()
        return main(argv, stdout=buf), buf.getvalue()

    pattern = _verdict_pattern()
    rng = random.Random(22)
    X = IntPoly([0, 1])
    paths = []
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        if rng.random() < 0.5:  # a quartic of verify --corpus, p | disc f
            f = _corpus_quartic(rng, p)
        else:  # a power of x+r perturbed by multiples of p
            n = rng.randint(2, 7)
            f = (X + rng.randint(-3, 3)) ** n + p * IntPoly(
                [rng.randint(-3, 3) for _ in range(n - 1)]) + p ** rng.randint(1, 3)
        argv = ["-f", f.render("x"), "-p", str(p)]
        code, out = run(["basis", *argv, "--json"])
        if code == 2:  # a reducible or irregular input
            continue
        index = json.loads(out)["index_valuation"]
        code, out = run(["verify", *argv])
        m = pattern.match(out.splitlines()[-1])
        assert code == 0 and m is not None, out
        assert (int(m.group(1)), m.group(2), int(m.group(4))) == (p, "ok", index), out
        paths.append((m.group(3), index))
    assert len(paths) >= 20 and sum(index > 0 for _, index in paths) >= 10, paths
    assert {"generic", "quartic"} <= {path for path, _ in paths}, paths


def test_one_transform_and_one_finisher():
    """In the quartic builders every fired row becomes a basis in _finish,
    the only caller of _regular_basis, triangularize and _transport, and
    every transformed quartic f(p^k x + m)/p^(4k) is analysed through
    _transformed, which carries disc f over.  The entry points that take
    (a, b, c) analyse the input quartic itself."""
    allowed = {"_regular_basis": {"_finish"}, "triangularize": {"_finish"},
               "_transport": {"_finish"},
               "LocalAnalysis": {"_transformed", "classify", "quartic_p_integral_basis"}}
    found = []
    for name, tree in _modules():
        if name not in ("quartic.py", "quartic_e.py"):
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in allowed and getattr(top, "name", None) not in allowed[called]:
                    found.append(f"{name}:{node.lineno} {called}")
    assert not found, found


PERFBENCH = SRC.parent.parent / "perfbench"


def _package_imports(tree, package_level):
    """(names, modules) for the imports of pintbasis names in a module tree:
    {bound name: (module, attr)} and {bound name: module} for the names
    bound to modules.  package_level is the relative level that means the
    package itself (1 inside it, None for the absolute imports of
    perfbench)."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if package_level is not None and node.level == package_level:
            module = node.module
        elif package_level is None and (node.module or "").split(".")[0] == "pintbasis":
            module = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            if module:
                names[alias.asname or alias.name] = (module, alias.name)
            else:  # from . import order2
                modules[alias.asname or alias.name] = alias.name
    return names, modules


def _references(node, names, modules, own):
    """The (module, name) pairs a node refers to: names of its own module
    (own), imported names, and attributes of imported modules."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id in names:
                refs.add(names[n.id])
            elif n.id in own:
                refs.add(own[n.id])
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules):
            refs.add((modules[n.value.id], n.attr))
    return refs


def _defined_names(top):
    """The names a top-level statement binds other than by import: a def or
    class, or the targets of an assignment."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, ast.Assign):
        targets = top.targets
    elif isinstance(top, ast.AnnAssign):
        targets = [top.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_top_level_name_is_reachable():
    """Every top-level def, class and assigned name in src/ is reachable
    from cli.main, from a name the package exports, or from a name that
    perfbench imports or the tracer pins: the references of each reached
    definition are followed through its module's imports, so a helper
    that nothing reaches fails here."""
    defined, refs, roots = set(), {}, {("cli", "main")}
    for name, tree in _modules():
        module = name[:-3]
        names, modules = _package_imports(tree, 1)
        own = {n: (module, n) for top in tree.body for n in _defined_names(top)}
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            keys = [own[n] for n in _defined_names(top)]
            if not keys:  # a statement that runs on import
                keys = [(module, None)]
                roots.add(keys[0])
            for key in keys:
                refs.setdefault(key, set()).update(_references(top, names, modules, own))
            defined.update(k for k in keys if k[1] is not None)
        for alias, source in names.items():  # a re-export refers to its source
            refs.setdefault((module, alias), set()).add(source)
        if module == "__init__":
            roots |= set(own.values()) | set(names.values())
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names, modules = _package_imports(tree, None)
        roots |= set(names.values()) | _references(tree, names, modules, {})
    _layers, spans, paths = _tracer_pins()
    roots |= {tuple(name.split(".")[:2]) for name in spans | paths}
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo += refs.get(key, ())
    dead = sorted(f"{module}.{name}" for module, name in defined - seen)
    assert not dead, dead


def test_every_export_is_in_the_readme():
    """The README's Library API table has one line per name the package
    exports, and names nothing else, so an export comes with its line."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.partition("\n## Library API\n")[2].partition("\n## ")[0]
    listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
    assert sorted(listed) == sorted(exported), (sorted(set(listed) - exported),
                                                sorted(exported - set(listed)))
