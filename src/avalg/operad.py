"""The averaging operad on averaging trees.

Arity-n space: formal combinations of averaging trees with n leaves.  The
partial composition grafts through the word bijection: replace the i-th x
of the word behind ``tau`` by the word behind ``sigma`` and reduce to normal
form.  Reduction sends monomials to monomials, so composing basis trees
yields a basis tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .algebra import _collect, apply_p, diamond, reduce
from .trees import (
    LEAF,
    AveragingTree,
    UnreducedBinaryTree,
    _phi,
    _phi_inverse,
    _tree_key,
    phi,
    phi_inverse,
)
from .words import BracketedWord, substitute_letters

__all__ = [
    "IDENTITY",
    "compose",
    "tree_product",
    "tree_apply",
    "OperadElement",
    "compose_elements",
]

IDENTITY = AveragingTree(LEAF)

TreeLike = Union[AveragingTree, UnreducedBinaryTree]


def _as_tree(t: TreeLike) -> AveragingTree:
    return t if isinstance(t, AveragingTree) else AveragingTree(t)


def _splice(w: BracketedWord, index: int, replacement: BracketedWord) -> BracketedWord:
    """Replace the ``index``-th letter (1-based, reading order) by a word."""
    position = itertools.count(1)
    return substitute_letters(
        w, lambda f: replacement.factors if next(position) == index else (f,)
    )


def compose(tau: TreeLike, index: int, sigma: TreeLike) -> AveragingTree:
    """Partial composition: graft ``sigma`` into the i-th leaf of ``tau``."""
    tau, sigma = _as_tree(tau), _as_tree(sigma)
    if not 1 <= index <= tau.arity:
        raise IndexError(f"leaf index {index} out of range 1..{tau.arity}")
    spliced = _splice(_phi_inverse(tau.tree), index, _phi_inverse(sigma.tree))
    # the reduced word is normal; the tree check certifies it and counts leaves
    result = AveragingTree(_phi(reduce(spliced).word))
    if result.arity != tau.arity + sigma.arity - 1:
        raise AssertionError(
            f"composition has {result.arity} leaves, expected {tau.arity + sigma.arity - 1}"
        )
    return result


def tree_product(p: TreeLike, q: TreeLike) -> AveragingTree:
    """The free-algebra product transported to trees."""
    return phi(diamond(phi_inverse(_as_tree(p)), phi_inverse(_as_tree(q))))


def tree_apply(t: TreeLike) -> AveragingTree:
    """The averaging operator transported to trees."""
    return phi(apply_p(phi_inverse(_as_tree(t))))


@dataclass(frozen=True)
class OperadElement:
    """Exact-rational combination of averaging trees of one arity."""

    arity: int
    terms: tuple  # tuple[tuple[AveragingTree, Fraction], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("operad arities start at 1; the arity-0 space is zero")
        for t, _ in self.terms:
            if t.arity != self.arity:
                raise ValueError("all trees in a component share its arity")

    @staticmethod
    def from_terms(arity: int, pairs) -> "OperadElement":
        return OperadElement(arity, _collect(pairs, _as_tree, _tree_key))

    @staticmethod
    def of(t: TreeLike, coeff=1) -> "OperadElement":
        t = _as_tree(t)
        return OperadElement.from_terms(t.arity, [(t, coeff)])

    def __add__(self, other: "OperadElement") -> "OperadElement":
        if other.arity != self.arity:
            raise ValueError("can only add elements of equal arity")
        return OperadElement.from_terms(self.arity, list(self.terms) + list(other.terms))

    def scale(self, c) -> "OperadElement":
        return OperadElement.from_terms(self.arity, [(t, Fraction(c) * ci) for t, ci in self.terms])


def compose_elements(a: OperadElement, index: int, b: OperadElement) -> OperadElement:
    """Bilinear extension of :func:`compose`."""
    pairs = []
    for t, ct in a.terms:
        for s, cs in b.terms:
            pairs.append((compose(t, index, s), ct * cs))
    return OperadElement.from_terms(a.arity + b.arity - 1, pairs)
