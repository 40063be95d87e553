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
