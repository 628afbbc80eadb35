"""Every function in the package, and every defaulted parameter, has a
caller outside the tests.

The checks are name-based: a function or method counts as used when its name
appears as a ``Name``, an ``Attribute`` or an import alias anywhere in the
package or in ``bench/``.  A method that shares its name with something else
can therefore slip past.  ``ConstacyclicCode.complement`` does: it shares
its name with ``DefiningSet.complement``, and only acceptance criterion 7
calls it, in the identity dual = reverse of complement.  The checks catch
helpers whose name nothing but the tests mentions.

A defaulted parameter counts as set when some call of a function of that
name in the package or in ``bench/`` passes it, by keyword or by position.
"""

import ast
import pathlib

import constacyclic

SRC = pathlib.Path(constacyclic.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# name -> why it stays without a caller in the package or bench/
ALLOWED = {
    "twisted_shift": "the constacyclic shift a cyclic-window lower-bound "
                     "engine rotates supports with",
    "reverse": "documented set-algebra API of ConstacyclicCode",
    "intersect": "documented set-algebra API of ConstacyclicCode",
    "is_subcode": "documented set-algebra API of ConstacyclicCode",
    "min_distance": "documented API of WeightEnumerator",
    "monic": "Poly normalization the tests use as a reference",
}


def _trees(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def _referenced(trees):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def _exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_function_has_a_caller():
    package = _trees(sorted(SRC.glob("*.py")))
    used = _referenced(package + _trees(sorted(BENCH.glob("*.py"))))
    used |= _exported() | set(ALLOWED) | {"console_main"}
    dead = [f"{path.name}:{node.lineno} {node.name}"
            for path, tree in package for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in used]
    assert not dead, f"functions only the tests call: {dead}"


# (function, parameter) -> why its default stays although no call in the
# package or bench/ sets it
PARAMETER_ALLOWED = {
    ("main", "argv"): "the entry point: console_main calls it bare, "
                      "embedding code and the tests pass an argument list",
    ("exhaustive_enumerator", "op_budget"): "the engine's hard cap; the "
                                            "default is the package budget",
    ("check_witness", "residue"): "tests validate bch_search witnesses in "
                                  "other residue classes with it",
}


def _call_sites(trees):
    """Callee name -> [(positional count, keyword names)], with None for
    a count or a keyword set that *args or **kwargs leave open."""
    sites = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            sites.setdefault(name, []).append(
                (None if starred else len(node.args),
                 None if None in keywords else keywords))
    return sites


def _defaulted_parameters(tree):
    """(function node, name, position or None) for every parameter with a
    default; the position omits the self or cls of a method."""
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = id(node) in methods and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        first = len(positional) - len(args.defaults)
        for index in range(first, len(positional)):
            yield node, positional[index].arg, index - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node, arg.arg, None


def test_every_parameter_has_a_caller():
    package = _trees(sorted(SRC.glob("*.py")))
    sites = _call_sites(package + _trees(sorted(BENCH.glob("*.py"))))

    def passed(name, param, position):
        return any(
            (keywords is None or param in keywords)
            or (position is not None and (count is None or position < count))
            for count, keywords in sites.get(name, ()))

    unset = [f"{path.name}:{node.lineno} {node.name}({param})"
             for path, tree in package
             for node, param, position in _defaulted_parameters(tree)
             if (node.name, param) not in PARAMETER_ALLOWED
             and not passed(node.name, param, position)]
    assert not unset, f"parameters only the tests set: {unset}"
