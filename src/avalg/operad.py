"""The averaging operad on averaging trees.

Arity-n space: formal combinations of averaging trees with n leaves.  The
partial composition ``tau o_i sigma`` is the averaging-algebra homomorphism
that sends the i-th x of the word behind ``tau`` to the word behind
``sigma`` and every other x to itself, read back as a tree.  Reduction sends
monomials to monomials, so composing basis trees yields a basis tree.

Only the path from the root of ``tau`` to its i-th leaf is evaluated, with
the free algebra's own rules (``algebra._merge`` and ``algebra._apply_p``)
on nodes that hold vertices.  The factors off the path are normal and come
through as the vertices they are; relations fire only where ``sigma``'s
factors meet their neighbours at the graft, and the operator is applied
once per bracket level on the way up (path copying).  The new vertices are
frozen with ``algebra._freeze`` into ``phi``'s hash-consed comb encoding
(``trees._comb``, ``trees._chain``).  The transported product and operator
are compositions into the generators ``x x`` and ``[x]``.
"""

from __future__ import annotations

from typing import Union

from ._record import InputError, Record
from .algebra import _Node, _apply_p, _freeze, _merge
from .trees import (
    LEAF,
    AveragingTree,
    Bi,
    Uni,
    UnreducedBinaryTree,
    _averaging_leaves,
    _bi,
    _chain,
    _comb,
    _strip,
    _tree_key,
    _uni,
)

__all__ = [
    "IDENTITY",
    "compose",
    "tree_product",
    "tree_apply",
    "OperadElement",
    "compose_elements",
]

IDENTITY = AveragingTree(LEAF)
_PRODUCT = AveragingTree(_bi(LEAF, LEAF))  # x x
_OPERATOR = AveragingTree(_uni(LEAF))  # [x]

TreeLike = Union[AveragingTree, UnreducedBinaryTree]


def _as_tree(t: TreeLike) -> AveragingTree:
    return t if isinstance(t, AveragingTree) else AveragingTree(t)


class LeafIndexError(InputError, IndexError):
    """A leaf index outside a tree's arity; an IndexError too, as it always was."""


def compose(tau: TreeLike, index: int, sigma: TreeLike) -> AveragingTree:
    """Partial composition: graft ``sigma`` into the i-th leaf of ``tau``."""
    tau, sigma = _as_tree(tau), _as_tree(sigma)
    if not 1 <= index <= tau.arity:
        raise LeafIndexError(f"leaf index {index} out of range 1..{tau.arity}")
    # the tree check certifies the new vertices on the path and counts leaves
    result = AveragingTree(_graft(tau.tree, index, sigma.tree))
    if result.arity != tau.arity + sigma.arity - 1:
        raise AssertionError(
            f"composition has {result.arity} leaves, expected {tau.arity + sigma.arity - 1}"
        )
    return result


def _graft(tree: UnreducedBinaryTree, index: int,
           sigma: UnreducedBinaryTree) -> UnreducedBinaryTree:
    """The vertex of the normal form of ``tree``'s word with its ``index``-th
    letter replaced by ``sigma``'s word; both trees are averaging trees.

    Descends by the leaf counts of the certification marks, noting at each
    bracket level the comb before the path's factor, the factors after it and
    the power of the bracket around the level (0 at the top).  Then climbs
    back with the rules of the free algebra (``algebra._merge`` and
    ``algebra._apply_p``) on a value per level: its prefix comb as one entry,
    the factors after it as vertices, and nodes for the brackets a rule may
    edit.  Since ``tree`` is normal, brackets meet only at the graft, where
    ``sigma``'s end factors join their neighbours; above it the path's factor
    is a bracket between letters.
    """
    _averaging_leaves(tree)  # the descent reads the marks; free once marked
    levels = []
    power = 0
    while True:
        prefix, suffix = None, []
        while isinstance(tree, Bi):
            left = tree.left._leaves
            if index <= left:
                suffix.append(tree.right)
                tree = tree.left
            else:
                index -= left
                prefix, tree = tree.left, tree.right
                break
        suffix.reverse()
        levels.append((prefix, suffix, power))
        if not isinstance(tree, Uni):
            break
        power, tree = _strip(tree)
    value = []  # sigma's factors; the value of a level's bracket further up
    while isinstance(sigma, Bi):
        value.append(sigma.right)
        sigma = sigma.left
    value.append(sigma)
    value.reverse()
    prefix, suffix, power = levels.pop()
    if prefix is not None:
        last = prefix.right if isinstance(prefix, Bi) else prefix
        if isinstance(last, Uni) and isinstance(value[0], Uni):
            value[0] = _merged(last, value[0])
            prefix = prefix.left if isinstance(prefix, Bi) else None
    if suffix and isinstance(suffix[0], Uni) and isinstance(value[-1], (Uni, _Node)):
        value[-1] = _merged(value[-1], suffix.pop(0))
    while True:
        value = value + suffix if prefix is None else [prefix, *value, *suffix]
        if not power:
            return _comb(_freeze(value, _chain))
        for end in (0, -1):
            if isinstance(value[end], Uni):
                value[end] = _thaw(value[end])
        node = _apply_p(value)
        node.power += power - 1
        value = [node]
        prefix, suffix, power = levels.pop()


def _thaw(t: Uni) -> _Node:
    """A node for the bracket that ``t`` tops, with its right spine thawed so
    that a merge can append at its foot; each core keeps the comb before its
    last factor as one entry."""
    power, core = _strip(t)
    node = cell = _Node(None, power, None)
    while isinstance(core, Bi) and isinstance(core.right, Uni):
        power, inner = _strip(core.right)
        cell.core = [core.left, _Node(None, power, None)]
        cell, core = cell.core[1], inner
    cell.core = node.bottom = [core]
    return node


def _merged(a: Union[Uni, _Node], b: Uni) -> _Node:
    """The node of the product of two brackets."""
    if isinstance(a, Uni):
        a = _thaw(a)
    _merge(a, _thaw(b))
    return a


def tree_product(p: TreeLike, q: TreeLike) -> AveragingTree:
    """The free-algebra product transported to trees: ``x x`` o (p, q)."""
    return compose(compose(_PRODUCT, 2, q), 1, p)


def tree_apply(t: TreeLike) -> AveragingTree:
    """The averaging operator transported to trees: ``[x]`` o t."""
    return compose(_OPERATOR, 1, t)


class OperadElement(Record):
    """Exact-rational combination of averaging trees of one arity.  Its
    coefficients come from :mod:`avalg._lincomb` and ``fractions``, imported
    where they are used, so ``compose`` loads neither."""

    __slots__ = _fields = ("arity", "terms")  # terms: tuple[tuple[AveragingTree, Fraction], ...]

    def __init__(self, arity: int, terms: tuple):
        if arity < 1:
            raise InputError("operad arities start at 1; the arity-0 space is zero")
        for t, _ in terms:
            if t.arity != arity:
                raise InputError("all trees in a component share its arity")
        Record.__init__(self, arity, terms)

    @staticmethod
    def from_terms(arity: int, pairs) -> "OperadElement":
        from ._lincomb import _collect

        return OperadElement(arity, _collect(pairs, _as_tree, _tree_key))

    @staticmethod
    def of(t: TreeLike, coeff=1) -> "OperadElement":
        t = _as_tree(t)
        return OperadElement.from_terms(t.arity, [(t, coeff)])

    def __add__(self, other: "OperadElement") -> "OperadElement":
        if other.arity != self.arity:
            raise InputError("can only add elements of equal arity")
        return OperadElement.from_terms(self.arity, list(self.terms) + list(other.terms))

    def scale(self, c) -> "OperadElement":
        from fractions import Fraction

        return OperadElement.from_terms(self.arity, [(t, Fraction(c) * ci) for t, ci in self.terms])


def compose_elements(a: OperadElement, index: int, b: OperadElement) -> OperadElement:
    """Bilinear extension of :func:`compose`."""
    pairs = []
    for t, ct in a.terms:
        for s, cs in b.terms:
            pairs.append((compose(t, index, s), ct * cs))
    return OperadElement.from_terms(a.arity + b.arity - 1, pairs)
