"""The package has two monomial orders, ``poly.GREVLEX`` and
``poly.ELIMINATE_LAST``, and only ``poly`` builds them.  Only the functions
that run under both orders take one as a parameter; everything else is
grevlex.  Only ``MonomialOrder.key`` and the Groebner kernel's packed layout
ask which order they have."""
from __future__ import annotations

import ast
import os

import clusterufd

PACKAGE = os.path.dirname(os.path.abspath(clusterufd.__file__))

TREES = {}
for _name in sorted(os.listdir(PACKAGE)):
    if _name.endswith(".py"):
        with open(os.path.join(PACKAGE, _name), encoding="utf-8") as _fh:
            TREES[_name] = ast.parse(_fh.read())

# the functions that run under either order
TAKE_AN_ORDER = {"groebner.buchberger", "groebner._widening",
                 "groebner._Packing.__init__", "poly.Polynomial.leading",
                 "groebner.GroebnerBasis.__init__"}


def functions(node, prefix: str):
    """(qualified name, definition) of every function, methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{child.name}", child
            yield from functions(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}.{child.name}")


def parameters(fn) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [p.arg for p in (a.vararg, a.kwarg) if p is not None]


def test_orders_are_built_only_in_poly():
    building = {module for module, tree in TREES.items()
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "MonomialOrder"}
    assert building == {"poly.py"}


def test_packed_layout_lives_in_the_kernel():
    """Only the order's tuple key and the Groebner kernel's packed layout
    read which order they have."""
    reading = {name for module, tree in TREES.items()
               for name, fn in functions(tree, module[:-3])
               for node in ast.walk(fn) if isinstance(node, ast.Attribute)
               and node.attr == "eliminate_last"
               and isinstance(node.ctx, ast.Load)}
    assert reading == {"poly.MonomialOrder.key", "groebner._Packing.__init__"}


def test_order_parameters():
    taking = {name for module, tree in TREES.items()
              for name, fn in functions(tree, module[:-3])
              if "order" in parameters(fn)}
    assert taking == TAKE_AN_ORDER
