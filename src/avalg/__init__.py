"""Free averaging algebras: words, enumeration, trees and the operad.

``import avalg`` runs no layer's code.  A public name, or a layer such as
``avalg.trees``, is imported on first use (PEP 562) through the ordinary
import system, so ``from avalg import X`` and ``avalg.X`` behave as if the
names were imported here, and threads that race to a name get one module.
Each layer reads the names of its code that most commands never run from
a module of their own the same way (:func:`_forward`).
"""

import importlib

_LAYERS = {
    "words": (
        "AveragingWord",
        "Bracket",
        "BracketedWord",
        "Letter",
        "Violation",
        "WordAnalysis",
        "analyze",
        "parse_word",
        "peel",
        "render_word",
        "validate_averaging",
    ),
    "algebra": (
        "LinearCombination",
        "apply_p",
        "diamond",
        "parse_lincomb",
        "reduce",
        "rewrite_reduce",
        "universal_map",
    ),
    "enumeration": (
        "census",
        "closed_form",
        "collapse_runs",
        "compositions",
        "expand_runs",
        "reduce_to_v1",
        "schroeder",
        "series",
        "univariate",
    ),
    "instances": (
        "FiniteAlgebra",
        "build_instance",
        "check_averaging",
        "check_reynolds",
    ),
    "trees": (
        "AveragingTree",
        "enumerate_schroeder",
        "is_averaging_tree",
        "phi",
        "phi_inverse",
        "psi",
        "psi_inverse",
    ),
    "operad": ("OperadElement", "compose", "tree_apply", "tree_product"),
}

# where each name lives; a layer, under its own name, is that module
_HOME = {layer: layer for layer in _LAYERS}
_HOME.update((name, layer) for layer, names in _LAYERS.items() for name in names)

__all__ = [name for names in _LAYERS.values() for name in names]

__version__ = "0.1.0"


def _forward(namespace: dict) -> None:
    """Give the module whose globals are ``namespace`` the PEP 562 hooks for
    the names of its ``_HOME`` table: a name is read from the module
    ``avalg.<home>`` on first use and kept in ``namespace``, so later reads
    are plain global lookups.  A name that is its own home is that module."""
    homes = namespace["_HOME"]

    def __getattr__(name):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{home}")
        value = namespace[name] = module if home == name else getattr(module, name)
        return value

    def __dir__():
        return sorted({*namespace, *homes})

    namespace.update(__getattr__=__getattr__, __dir__=__dir__)


_forward(globals())
