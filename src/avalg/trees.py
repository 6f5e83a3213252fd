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
``L`` / ``U(t)`` / ``B(l,r)``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Tuple, Union

from .enumeration import compositions
from .words import (
    AveragingWord,
    Bracket,
    BracketedWord,
    Letter,
    letters_of,
    raw,
    word,
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


class TreeSyntaxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Unreduced binary trees

# Every node carries its hash, computed once from its children's hashes, so
# hashing a tree is O(1).  Only int and tuple-of-int hashes are used, which do
# not depend on PYTHONHASHSEED, so an unpickled tree hashes as a fresh one.

class _Node:
    """Gives the slotted vertex classes a weak-reference slot (see ``_NODES``)."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class TLeaf:
    _hash = 0x5EAF

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "L"


@dataclass(frozen=True, slots=True)
class Uni(_Node):
    child: "UnreducedBinaryTree"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((1, self.child._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render_binary_tree(self)


@dataclass(frozen=True, slots=True)
class Bi(_Node):
    left: "UnreducedBinaryTree"
    right: "UnreducedBinaryTree"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((2, self.left._hash, self.right._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render_binary_tree(self)


UnreducedBinaryTree = Union[TLeaf, Uni, Bi]
LEAF = TLeaf()


def leaf_count(t: UnreducedBinaryTree) -> int:
    if isinstance(t, TLeaf):
        return 1
    if isinstance(t, Uni):
        return leaf_count(t.child)
    return leaf_count(t.left) + leaf_count(t.right)


def uni_count(t: UnreducedBinaryTree) -> int:
    if isinstance(t, TLeaf):
        return 0
    if isinstance(t, Uni):
        return 1 + uni_count(t.child)
    return uni_count(t.left) + uni_count(t.right)


def bracketed_power(t: UnreducedBinaryTree) -> int:
    """Length of the uni-vertex chain at the root."""
    power = 0
    while isinstance(t, Uni):
        power += 1
        t = t.child
    return power


def is_bracketed(t: UnreducedBinaryTree) -> bool:
    return isinstance(t, Uni)


def _strip(t: UnreducedBinaryTree) -> Tuple[int, UnreducedBinaryTree]:
    power = 0
    while isinstance(t, Uni):
        power += 1
        t = t.child
    return power, t


def subtrees(t: UnreducedBinaryTree) -> Iterator[UnreducedBinaryTree]:
    """Every subtree rooted at a vertex or leaf, the whole tree included."""
    yield t
    if isinstance(t, Uni):
        yield from subtrees(t.child)
    elif isinstance(t, Bi):
        yield from subtrees(t.left)
        yield from subtrees(t.right)


def lf(t: UnreducedBinaryTree) -> UnreducedBinaryTree:
    """Replace the right subtree of every bi-vertex by a leaf."""
    if isinstance(t, TLeaf):
        return t
    if isinstance(t, Uni):
        return Uni(lf(t.child))
    return Bi(lf(t.left), LEAF)


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
    """Leaf count of ``t`` if it is an averaging tree, else 0, in one linear walk.

    On a bracket chain over a bi-vertex core, :func:`is_fat` amounts to two
    checks: the core's left spine of bi-vertices ends in a leaf without
    meeting a uni-vertex, and the core's right subtree has bracketed power
    at most 1.  Each chain is checked once, at its top, and a bi-vertex lies
    on the left spine of at most one core.
    """
    leaves = 0
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Uni):
            core = s.child
            while isinstance(core, Uni):
                core = core.child
            if isinstance(core, Bi):
                spine, right = core.left, core.right
                while isinstance(spine, Bi):
                    spine = spine.left
                if isinstance(spine, Uni):
                    return 0
                if isinstance(right, Uni) and isinstance(right.child, Uni):
                    return 0
            stack.append(core)
        elif isinstance(s, Bi):
            left, right = s.left, s.right
            if not isinstance(right, TLeaf):
                if not isinstance(right, Uni):
                    return 0
                if not (isinstance(left, TLeaf)
                        or (isinstance(left, Bi) and isinstance(left.right, TLeaf))):
                    return 0
            stack.append(right)
            stack.append(left)
        else:
            leaves += 1
    return leaves


class InvalidAveragingTree(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class AveragingTree:
    """An unreduced binary tree certified to satisfy the averaging conditions."""

    tree: UnreducedBinaryTree
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        leaves = _averaging_leaves(self.tree)
        if not leaves:
            raise InvalidAveragingTree(f"not an averaging tree: {render_binary_tree(self.tree)}")
        object.__setattr__(self, "arity", leaves)

    def __hash__(self) -> int:
        return self.tree._hash

    def __str__(self) -> str:
        return render_binary_tree(self.tree)


def _tree_of(t: Union[AveragingTree, UnreducedBinaryTree]) -> UnreducedBinaryTree:
    return t.tree if isinstance(t, AveragingTree) else t


# ---------------------------------------------------------------------------
# The bijection with averaging words on one generator

def phi(w: Union[AveragingWord, BracketedWord]) -> AveragingTree:
    """Word to tree: letters to leaves, bracket layers to uni-vertices,
    juxtaposition peels the last factor into the right branch.

    A raw word is checked to be averaging; an :class:`AveragingWord` already
    is, so it is not scanned again.
    """
    v = raw(w)
    symbols = letters_of(v)
    if symbols != {"x"}:
        raise ValueError("the tree bijection needs words over the single letter x")
    if not isinstance(w, AveragingWord):
        AveragingWord(v)  # reject non-averaging input early
    return AveragingTree(_phi(v))


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


def _phi(v: BracketedWord) -> UnreducedBinaryTree:
    acc = None
    for f in v.factors:
        if isinstance(f, Letter):
            t = LEAF
        else:
            t = _phi(f.core)
            for _ in range(f.power):
                t = _uni(t)
        acc = t if acc is None else _bi(acc, t)
    return acc


def phi_inverse(t: Union[AveragingTree, UnreducedBinaryTree]) -> AveragingWord:
    """Tree to word; total on averaging trees by construction."""
    return AveragingWord(_phi_inverse(_tree_of(t)))


_X = Letter("x")


def _phi_inverse(t: UnreducedBinaryTree) -> BracketedWord:
    # bi-vertices concatenate, read left to right; bracket cores recurse
    factors = []
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Bi):
            stack.append(s.right)
            stack.append(s.left)
        elif isinstance(s, Uni):
            power, core = _strip(s)
            factors.append(Bracket(_phi_inverse(core), power))
        else:
            factors.append(_X)
    return BracketedWord(tuple(factors))


# ---------------------------------------------------------------------------
# Exhaustive tree families

@lru_cache(maxsize=None)
def _unreduced_exact(leaves: int, unis: int) -> tuple:
    """All unreduced binary trees with the given leaf and uni-vertex counts."""
    if leaves < 1 or unis < 0:
        return ()
    out = []
    if unis == 0 and leaves == 1:
        out.append(LEAF)
    if unis >= 1:
        out.extend(Uni(t) for t in _unreduced_exact(leaves, unis - 1))
    if leaves >= 2:
        for l_leaves in range(1, leaves):
            for l_unis in range(unis + 1):
                lefts = _unreduced_exact(l_leaves, l_unis)
                rights = _unreduced_exact(leaves - l_leaves, unis - l_unis)
                out.extend(Bi(a, b) for a in lefts for b in rights)
    return tuple(out)


def enumerate_unreduced(max_leaves: int, max_unis: int) -> list:
    out = []
    for leaves in range(1, max_leaves + 1):
        for unis in range(max_unis + 1):
            out.extend(_unreduced_exact(leaves, unis))
    return out


def enumerate_averaging_trees(max_leaves: int, max_unis: int) -> list:
    """Averaging trees within the bounds, via the word bijection."""
    from .words import iter_averaging_words

    out = [
        AveragingTree(_phi(raw(w)))
        for w in iter_averaging_words(max_leaves, max_unis)
    ]
    out.sort(key=lambda t: (t.arity, uni_count(t.tree), render_binary_tree(t.tree)))
    return out


# ---------------------------------------------------------------------------
# Schroeder trees

IOTA = "iota"
OMEGA = "omega"


@dataclass(frozen=True)
class SLeaf:
    decoration: str

    def __post_init__(self):
        if self.decoration not in (IOTA, OMEGA):
            raise ValueError("leaf decoration must be iota or omega")

    def __str__(self) -> str:
        return render_schroeder_tree(self)


@dataclass(frozen=True)
class SNode:
    branches: tuple  # >= 2 branches; the vertex itself is decorated omega

    def __post_init__(self):
        branches = tuple(self.branches)
        if len(branches) < 2:
            raise ValueError("an internal vertex needs at least two branches")
        object.__setattr__(self, "branches", branches)

    def __str__(self) -> str:
        return render_schroeder_tree(self)


SchroederTree = Union[SLeaf, SNode]
_IOTA_LEAF = SLeaf(IOTA)
_OMEGA_LEAF = SLeaf(OMEGA)


def is_schroeder(t: SchroederTree) -> bool:
    """The alternating branch condition at every vertex, or the omega leaf."""
    if isinstance(t, SLeaf):
        return t.decoration == OMEGA
    for pos, branch in enumerate(t.branches):
        if pos % 2 == 0:
            if branch != _IOTA_LEAF:
                return False
        else:
            if branch == _IOTA_LEAF:
                return False
            if isinstance(branch, SNode) and not is_schroeder(branch):
                return False
    return True


def omega_count(t: SchroederTree) -> int:
    if isinstance(t, SLeaf):
        return 1 if t.decoration == OMEGA else 0
    return 1 + sum(omega_count(b) for b in t.branches)


@lru_cache(maxsize=None)
def enumerate_schroeder(n: int) -> tuple:
    """All Schroeder trees with n omega decorations, by the grafting recursion."""
    if n < 1:
        return ()
    if n == 1:
        return (_OMEGA_LEAF,)
    out = []
    for k in range(1, n):
        for parts in compositions(n - 1, k):
            choices = [enumerate_schroeder(p) for p in parts]
            for picks in _product(choices):
                branches = []
                for sub in picks:
                    branches.append(_IOTA_LEAF)
                    branches.append(sub)
                out.append(SNode(tuple(branches)))
                out.append(SNode(tuple(branches) + (_IOTA_LEAF,)))
    return tuple(out)


def _product(choices):
    if not choices:
        yield ()
        return
    for first in choices[0]:
        for rest in _product(choices[1:]):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# The bijection with indecomposable words (cap 1, powers all 1)

def _check_indecomposable(v: BracketedWord) -> Bracket:
    if len(v.factors) != 1 or not isinstance(v.factors[0], Bracket):
        raise ValueError("the word must be a single bracket (indecomposable)")
    b = v.factors[0]
    if b.power != 1:
        raise ValueError("bracket powers must all be 1 under the idempotent convention")
    return b


def psi(w: Union[AveragingWord, BracketedWord]) -> SchroederTree:
    """Indecomposable word to Schroeder tree: odd factors x to iota leaves,
    even factors recursively; [x] is the omega leaf."""
    v = raw(w)
    AveragingWord(v)
    b = _check_indecomposable(v)
    core = b.core
    if core.factors == (Letter("x"),):
        return _OMEGA_LEAF
    branches = []
    for pos, f in enumerate(core.factors):
        if pos % 2 == 0:
            if not isinstance(f, Letter):
                raise ValueError("odd positions of the content must be x")
            branches.append(_IOTA_LEAF)
        else:
            if not isinstance(f, Bracket):
                raise ValueError("even positions of the content must be brackets")
            branches.append(psi(word(f)))
    return SNode(tuple(branches))


def psi_inverse(t: SchroederTree) -> AveragingWord:
    if not is_schroeder(t):
        raise ValueError("not a Schroeder tree")
    return AveragingWord(_psi_inverse(t))


def _psi_inverse(t: SchroederTree) -> BracketedWord:
    if isinstance(t, SLeaf):
        return word(Bracket(word(Letter("x")), 1))
    content = []
    for pos, branch in enumerate(t.branches):
        if pos % 2 == 0:
            content.append(Letter("x"))
        else:
            content.extend(_psi_inverse(branch).factors)
    return word(Bracket(BracketedWord(tuple(content)), 1))


# ---------------------------------------------------------------------------
# Text forms

def render_binary_tree(t: UnreducedBinaryTree) -> str:
    if isinstance(t, TLeaf):
        return "L"
    if isinstance(t, Uni):
        return f"U({render_binary_tree(t.child)})"
    return f"B({render_binary_tree(t.left)},{render_binary_tree(t.right)})"


def parse_binary_tree(text: str) -> UnreducedBinaryTree:
    tree, pos = _parse_binary(text, _skip(text, 0))
    pos = _skip(text, pos)
    if pos != len(text):
        raise TreeSyntaxError(f"trailing input at position {pos}")
    return tree


def _parse_binary(text: str, pos: int):
    if pos >= len(text):
        raise TreeSyntaxError("unexpected end of tree term")
    ch = text[pos]
    if ch == "L":
        return LEAF, pos + 1
    if ch == "U":
        pos = _expect(text, pos + 1, "(")
        child, pos = _parse_binary(text, _skip(text, pos))
        pos = _expect(text, _skip(text, pos), ")")
        return Uni(child), pos
    if ch == "B":
        pos = _expect(text, pos + 1, "(")
        left, pos = _parse_binary(text, _skip(text, pos))
        pos = _expect(text, _skip(text, pos), ",")
        right, pos = _parse_binary(text, _skip(text, pos))
        pos = _expect(text, _skip(text, pos), ")")
        return Bi(left, right), pos
    raise TreeSyntaxError(f"unexpected character {ch!r} at position {pos}")


def render_schroeder_tree(t: SchroederTree) -> str:
    if isinstance(t, SLeaf):
        return "i" if t.decoration == IOTA else "o"
    return "w(" + ",".join(render_schroeder_tree(b) for b in t.branches) + ")"


def parse_schroeder_tree(text: str) -> SchroederTree:
    tree, pos = _parse_schroeder(text, _skip(text, 0))
    pos = _skip(text, pos)
    if pos != len(text):
        raise TreeSyntaxError(f"trailing input at position {pos}")
    return tree


def _parse_schroeder(text: str, pos: int):
    if pos >= len(text):
        raise TreeSyntaxError("unexpected end of tree term")
    ch = text[pos]
    if ch == "i":
        return _IOTA_LEAF, pos + 1
    if ch == "o":
        return _OMEGA_LEAF, pos + 1
    if ch == "w":
        pos = _expect(text, pos + 1, "(")
        branches = []
        while True:
            branch, pos = _parse_schroeder(text, _skip(text, pos))
            branches.append(branch)
            pos = _skip(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            pos = _expect(text, pos, ")")
            break
        return SNode(tuple(branches)), pos
    raise TreeSyntaxError(f"unexpected character {ch!r} at position {pos}")


def _skip(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text: str, pos: int, ch: str) -> int:
    if pos >= len(text) or text[pos] != ch:
        raise TreeSyntaxError(f"expected {ch!r} at position {pos}")
    return pos + 1
