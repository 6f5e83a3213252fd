"""Tree models of averaging words.

Two kinds of trees appear:

* *Schroeder trees*: planar reduced trees whose vertices carry ``w`` and
  whose leaves carry ``w`` or ``i``; under each vertex the odd branches are
  ``i``-leaves and the even branches are not.  Counting them by the number
  of ``w`` decorations recovers the large Schroeder numbers, in bijection
  with the indecomposable words of :mod:`avalg.enumeration`.

* *Unreduced binary trees*: every vertex has one or two inputs.  The
  averaging trees are those whose bracketed subtrees are ladders or fat
  trees and whose bi-vertices obey the right-subtree condition; they
  correspond bijectively to averaging words on one generator, with leaves
  matching x's and uni-vertices matching bracket layers.

Text forms: Schroeder trees as ``w(...)`` / ``i`` / ``o``; binary trees as
``L`` / ``U(t)`` / ``B(l,r)``.  The Schroeder trees and the exhaustive tree
families live in :mod:`avalg._families`, and their names are read from there
on first use.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Tuple, Union

from . import _forward
from ._record import InputError, Record
from .words import (
    AveragingWord,
    BracketedWord,
    _X,
    _close,
    _evaluate,
    _layers,
    _normal,
    _trusted,
    certified,
    letters_of,
    raw,
)

__all__ = [
    "TLeaf",
    "Uni",
    "Bi",
    "LEAF",
    "UnreducedBinaryTree",
    "AveragingTree",
    "leaf_count",
    "uni_count",
    "bracketed_power",
    "is_bracketed",
    "subtrees",
    "lf",
    "is_lft",
    "is_fat",
    "is_averaging_tree",
    "phi",
    "phi_inverse",
    "enumerate_unreduced",
    "enumerate_averaging_trees",
    "SLeaf",
    "SNode",
    "SchroederTree",
    "IOTA",
    "OMEGA",
    "is_schroeder",
    "omega_count",
    "enumerate_schroeder",
    "psi",
    "psi_inverse",
    "render_binary_tree",
    "parse_binary_tree",
    "render_schroeder_tree",
    "parse_schroeder_tree",
    "TreeSyntaxError",
]

_HOME = dict.fromkeys((
    "enumerate_unreduced", "enumerate_averaging_trees", "SLeaf", "SNode", "SchroederTree",
    "IOTA", "OMEGA", "is_schroeder", "omega_count", "enumerate_schroeder", "psi",
    "psi_inverse", "render_schroeder_tree", "parse_schroeder_tree"), "_families")
_forward(globals())


class TreeSyntaxError(InputError):
    pass


# ---------------------------------------------------------------------------
# Unreduced binary trees

# Every node carries its hash, computed once from its children's hashes, so
# hashing a tree is O(1).  Only int and tuple-of-int hashes are used, which do
# not depend on PYTHONHASHSEED, so an unpickled tree hashes as a fresh one.

class _Node(Record):
    """What the vertex classes share: a weak-reference slot (see ``_NODES``),
    the stored hash, the certification mark (see ``Uni``), one equality and
    the text form (``repr`` too, so any depth shows).  Neither the hash nor
    the mark is a field."""

    __slots__ = ("__weakref__", "_hash", "_leaves")

    def __eq__(self, other) -> bool:
        """A pair whose children are shared (one vertex twice, or two vertices
        built over the same children) is equal at once, and a pair whose
        stored hashes differ unequal; otherwise the texts are compared, which
        any depth renders."""
        kind = self.__class__
        if other.__class__ is not kind:
            return NotImplemented
        if kind is Uni:
            if self.child is other.child:
                return True
        elif self.left is other.left and self.right is other.right:
            return True
        return self._hash == other._hash and render_binary_tree(self) == render_binary_tree(other)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render_binary_tree(self)

    def __repr__(self) -> str:
        return f"parse_binary_tree({render_binary_tree(self)!r})"

    def __reduce__(self):
        """Pickled as its text, so any depth pickles; the mark is dropped."""
        return parse_binary_tree, (render_binary_tree(self),)


class TLeaf(Record):
    __slots__ = ()
    _hash = 0x5EAF
    _leaves = 1  # a leaf is an averaging tree with one leaf; see ``Uni``

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "L"


class Uni(_Node):
    """A uni-vertex.  ``_leaves`` (on ``Bi`` too) is the certification mark:
    0 until the subtree from here down has passed the averaging conditions
    as a whole, then its leaf count, which :func:`_averaging_leaves` reads
    instead of walking the subtree again.  Only that walk sets it, and only
    after the whole tree it was asked about passed.  The mark is a cache: a
    vertex built by the constructors or unpickled starts unmarked, and an
    :class:`AveragingTree` certifies its tree again when it is built or
    unpickled.  Neither slot is compared or shown."""

    __slots__ = _fields = ("child",)

    def __init__(self, child: "UnreducedBinaryTree"):
        _set_child(self, child)
        _set_hash(self, hash((1, child._hash)))
        _set_leaves(self, 0)


class Bi(_Node):
    """A bi-vertex.  ``_leaves`` is the certification mark, as on ``Uni``:
    set only once the subtree from here down has passed."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "UnreducedBinaryTree", right: "UnreducedBinaryTree"):
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((2, left._hash, right._hash)))
        _set_leaves(self, 0)


_set_child, _set_left, _set_right = Uni.child.__set__, Bi.left.__set__, Bi.right.__set__
_set_hash, _set_leaves = _Node._hash.__set__, _Node._leaves.__set__


UnreducedBinaryTree = Union[TLeaf, Uni, Bi]
LEAF = TLeaf()


def leaf_count(t: UnreducedBinaryTree) -> int:
    return sum(isinstance(s, TLeaf) for s in subtrees(t))


def uni_count(t: UnreducedBinaryTree) -> int:
    return sum(isinstance(s, Uni) for s in subtrees(t))


def bracketed_power(t: UnreducedBinaryTree) -> int:
    """Length of the uni-vertex chain at the root."""
    return _strip(t)[0]


def is_bracketed(t: UnreducedBinaryTree) -> bool:
    return isinstance(t, Uni)


def _strip(t: UnreducedBinaryTree) -> Tuple[int, UnreducedBinaryTree]:
    power = 0
    while isinstance(t, Uni):
        power += 1
        t = t.child
    return power, t


def subtrees(t: UnreducedBinaryTree) -> Iterator[UnreducedBinaryTree]:
    """Every subtree rooted at a vertex or leaf, the whole tree included, in
    pre-order.  The stack holds the subtrees still to visit, so any depth
    walks."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Uni):
            stack.append(s.child)
        elif isinstance(s, Bi):
            stack += (s.right, s.left)


def lf(t: UnreducedBinaryTree) -> UnreducedBinaryTree:
    """Replace the right subtree of every bi-vertex by a leaf.  Only the path
    of children and left subtrees down to a leaf survives; it is walked down
    and rebuilt bottom-up, so any depth works."""
    path = []
    while not isinstance(t, TLeaf):
        path.append(type(t))
        t = t.child if isinstance(t, Uni) else t.left
    for kind in reversed(path):
        t = Uni(t) if kind is Uni else Bi(t, LEAF)
    return t


def _bi_vertices(t: UnreducedBinaryTree) -> Iterator[Bi]:
    for s in subtrees(t):
        if isinstance(s, Bi):
            yield s


def is_lft(t: UnreducedBinaryTree) -> bool:
    """Left factor tree: bi right subtrees are leaves; at most one of the
    tree and the bi left subtrees is bracketed."""
    bracketed = 1 if is_bracketed(t) else 0
    for v in _bi_vertices(t):
        if not isinstance(v.right, TLeaf):
            return False
        if is_bracketed(v.left):
            bracketed += 1
    return bracketed <= 1


def is_fat(t: UnreducedBinaryTree) -> bool:
    """Bracketed with >= 2 leaves, left-factor shape, right power at most 1."""
    if not is_bracketed(t) or leaf_count(t) < 2:
        return False
    _, core = _strip(t)
    assert isinstance(core, Bi)
    return is_lft(lf(t)) and bracketed_power(core.right) <= 1


def is_averaging_tree(t: UnreducedBinaryTree) -> bool:
    """The two conditions carving averaging trees out of binary trees.

    (a) every bracketed subtree is a ladder or a fat tree;
    (b) at every bi-vertex the right subtree is trivial or bracketed, and in
        the bracketed case the left subtree is trivial or is a bi-vertex
        with trivial right subtree.
    """
    return _averaging_leaves(t) > 0


def _averaging_leaves(t: UnreducedBinaryTree) -> int:
    """Leaf count of ``t`` if it is an averaging tree, else 0, in one linear walk
    over the vertices not yet certified.

    On a bracket chain over a bi-vertex core, :func:`is_fat` amounts to two
    checks: the core's left spine of bi-vertices ends in a leaf without
    meeting a uni-vertex, and the core's right subtree has bracketed power
    at most 1.  Each chain is checked once, at its top, and a bi-vertex lies
    on the left spine of at most one core.

    Every condition reads one vertex and what lies below it, so a subtree of
    an averaging tree is one: the walk stops at marked vertices (see
    ``Uni``), and a chain meeting a marked uni-vertex passed its check there.
    Only when the whole of ``t`` has passed are the vertices it entered
    marked, children before parents.
    """
    if t._leaves:
        return t._leaves
    entered = []  # the unmarked vertices, each before those below it
    stack = [t]
    while stack:
        s = stack.pop()
        entered.append(s)
        if isinstance(s, Uni):
            core = s.child
            while isinstance(core, Uni) and not core._leaves:
                entered.append(core)
                core = core.child
            if isinstance(core, Bi):
                spine, right = core.left, core.right
                while isinstance(spine, Bi):
                    spine = spine.left
                if isinstance(spine, Uni):
                    return 0
                if isinstance(right, Uni) and isinstance(right.child, Uni):
                    return 0
                if not core._leaves:
                    stack.append(core)
        else:
            left, right = s.left, s.right
            if not isinstance(right, TLeaf):
                if not isinstance(right, Uni):
                    return 0
                if not (isinstance(left, TLeaf)
                        or (isinstance(left, Bi) and isinstance(left.right, TLeaf))):
                    return 0
            if not right._leaves:
                stack.append(right)
            if not left._leaves:
                stack.append(left)
    for s in reversed(entered):
        leaves = s.child._leaves if isinstance(s, Uni) else s.left._leaves + s.right._leaves
        object.__setattr__(s, "_leaves", leaves)
    return t._leaves


class InvalidAveragingTree(InputError):
    pass


class AveragingTree(Record):
    """An unreduced binary tree certified to satisfy the averaging conditions.
    ``arity``, its leaf count, is neither compared nor shown."""

    _fields = ("tree",)
    __slots__ = ("tree", "arity")

    def __init__(self, tree: UnreducedBinaryTree):
        _set_tree(self, tree)
        self.__post_init__()

    def __post_init__(self):
        leaves = _averaging_leaves(self.tree)
        if not leaves:
            raise InvalidAveragingTree(f"not an averaging tree: {render_binary_tree(self.tree)}")
        _set_arity(self, leaves)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.tree, other.tree
        return a is b or a == b

    def __hash__(self) -> int:
        return self.tree._hash

    def __str__(self) -> str:
        return render_binary_tree(self.tree)


_set_tree, _set_arity = AveragingTree.tree.__set__, AveragingTree.arity.__set__


# ---------------------------------------------------------------------------
# The bijection with averaging words on one generator

def phi(w: Union[AveragingWord, BracketedWord]) -> AveragingTree:
    """Word to tree: letters to leaves, bracket layers to uni-vertices,
    juxtaposition peels the last factor into the right branch.

    A raw word is checked to be averaging; an :class:`AveragingWord` already
    is, so it is not scanned again.
    """
    if letters_of(raw(w)) != {"x"}:
        raise InputError("the tree bijection needs words over the single letter x")
    return AveragingTree(_phi(certified(w).word))


# Hash-consing (Filliatre & Conchon, 2006): the vertices ``_phi`` builds are
# shared through a weak table, so equal trees from the bijection are one
# object and ``==`` between them ends at the identity check.  A key holds the
# ids of the children; the vertex keeps its children alive and its entry goes
# when the vertex dies, so the ids in a live key are never reused.  Sharing is
# invisible except to ``is``: trees built directly, unpickled, or raced for by
# two threads are equal, just not shared.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _uni(child: UnreducedBinaryTree) -> Uni:
    key = (id(child),)
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = Uni(child)
    return node


def _bi(left: UnreducedBinaryTree, right: UnreducedBinaryTree) -> Bi:
    key = (id(left), id(right))
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = Bi(left, right)
    return node


# A word is a left comb of bi-vertices over its factors (``_comb``), each a
# leaf (a letter) or the top of a uni-chain (``_chain``: a bracket whose
# power is the chain's length); a bracket's core begins with a letter and is
# never one bracket.  An entry of a comb may itself be a comb.  ``_phi``
# evaluates a word into the same comb; ``operad.compose`` freezes into it.

def _comb(entries) -> UnreducedBinaryTree:
    t = entries[0]
    for f in entries[1:]:
        t = _bi(t, f)
    return t


def _chain(core, power: int) -> Uni:
    t = _comb(core)
    for _ in range(power):
        t = _uni(t)
    return t


def _phi(v: BracketedWord) -> UnreducedBinaryTree:
    """The tree of ``v``: its evaluation with every letter a leaf,
    juxtaposition a bi-vertex and each bracket layer a uni-vertex."""
    return _evaluate(v, lambda symbol: LEAF, _bi, _layers(_uni))


def phi_inverse(t: Union[AveragingTree, UnreducedBinaryTree]) -> AveragingWord:
    """Tree to word, walking the tree once; total on averaging trees by
    construction, so only the word of a raw tree is scanned."""
    if isinstance(t, AveragingTree):
        return _normal(_phi_inverse(t.tree))
    return AveragingWord(_phi_inverse(t))


def _phi_inverse(t: UnreducedBinaryTree) -> BracketedWord:
    """The word of ``t``: leaves to x, each uni-chain to one bracket whose
    power is its length, bi-vertices to juxtaposition, read left to right.
    One walk over every vertex; the stack holds a frame per open chain, so
    any depth converts."""
    frames = []  # (enclosing factors, their subtrees left, the open chain's power)
    factors, todo = [], [t]
    while True:
        while todo:
            s = todo.pop()
            if isinstance(s, Bi):
                todo += (s.right, s.left)
            elif isinstance(s, Uni):
                power, core = _strip(s)
                frames.append((factors, todo, power))
                factors, todo = [], [core]
            else:
                factors.append(_X)
        core = _trusted(tuple(factors))
        if not frames:
            return core
        factors, todo, power = frames.pop()
        factors.append(_close(core, power))


def _tree_key(t: AveragingTree):
    """Canonical tree order: (arity, uni-vertex count, rendered text)."""
    text = render_binary_tree(t.tree)
    return (t.arity, text.count("U"), text)


# ---------------------------------------------------------------------------
# Text forms

def render_binary_tree(t: UnreducedBinaryTree) -> str:
    """``L`` / ``U(t)`` / ``B(l,r)``.  Iterative: the stack holds the subtrees
    and the closing text still to write, so any depth renders."""
    parts = []
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            parts.append(s)
        elif isinstance(s, Uni):
            parts.append("U(")
            stack += (")", s.child)
        elif isinstance(s, Bi):
            parts.append("B(")
            stack += (")", s.right, ",", s.left)
        else:
            parts.append("L")
    return "".join(parts)


def parse_binary_tree(text: str) -> UnreducedBinaryTree:
    return _read_term(text, {"L": LEAF}, {"U": (1, Uni), "B": (2, Bi)})


def _read_term(text: str, leaves: dict, heads: dict):
    """Read the whole of ``text`` as one term ``leaf | head(term, ...)``.

    ``leaves`` maps a character to its value; ``heads`` maps a character to
    its arity (None for any number of terms) and the constructor its terms
    are passed to.  One loop with an explicit stack, so any depth reads.
    """
    stack = []  # (arity, constructor, terms read so far) of each open head
    pos = _skip(text, 0)
    while True:
        if pos >= len(text):
            raise TreeSyntaxError("unexpected end of tree term")
        ch = text[pos]
        if ch in heads:
            arity, make = heads[ch]
            stack.append((arity, make, []))
            pos = _skip(text, _expect(text, pos + 1, "("))
            continue
        if ch not in leaves:
            raise TreeSyntaxError(f"unexpected character {ch!r} at position {pos}")
        term, pos = leaves[ch], _skip(text, pos + 1)
        # a finished term closes each head it completes, innermost first
        while stack:
            arity, make, terms = stack[-1]
            terms.append(term)
            if (len(terms) < arity) if arity else text.startswith(",", pos):
                pos = _skip(text, _expect(text, pos, ","))
                break
            stack.pop()
            pos = _skip(text, _expect(text, pos, ")"))
            term = make(*terms)
        if not stack:
            if pos != len(text):
                raise TreeSyntaxError(f"trailing input at position {pos}")
            return term


def _skip(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text: str, pos: int, ch: str) -> int:
    if pos >= len(text) or text[pos] != ch:
        raise TreeSyntaxError(f"expected {ch!r} at position {pos}")
    return pos + 1
