"""Every function in the package has a caller outside the tests.

The check is name-based: a function or method counts as used when its name
appears as a ``Name``, an ``Attribute`` or an import alias anywhere in the
package or in ``bench/``.  A method that shares its name with something else
(``order``, ``sub``, ``total``) can therefore slip past; the check catches
helpers whose name nothing but the tests mentions.
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
