"""Free averaging algebras: words, enumeration, trees and the operad.

``import avalg`` runs no layer's code.  A public name, or a layer such as
``avalg.trees``, is imported on first use (PEP 562) through the ordinary
import system, so ``from avalg import X`` and ``avalg.X`` behave as if the
names were imported here, and threads that race to a name get one module.
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

_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAYERS, *__all__})
