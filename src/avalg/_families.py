"""The bracketed words, the unreduced trees and the Schroeder trees, each
declared once by its case split in the engine of :mod:`avalg._engine`,
which counts, walks, unranks and draws them; the random bracketed words of
the benchmark's own sampler, the exhaustive averaging trees, and the
bijection ``psi`` from the indecomposable words to the Schroeder trees.

Of the commands only ``schroeder-trees`` runs this code, so
:mod:`avalg.words` and :mod:`avalg.trees` read these names from here on
first use.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence, Union

from ._engine import Family, _itself, _prefix
from ._record import InputError, Record
from .trees import LEAF, AveragingTree, Bi, Uni, _phi, _read_term, _tree_key
from .words import (_X, AveragingWord, Bracket, BracketedWord, Letter, _close, _normal, _trusted,
                    certified, letters_of, parse_word, raw, render_word)


# ---------------------------------------------------------------------------
# Bracketed words: every one over x up to a size, and random ones

# A family is named by ``(kind, size)``, the size being arity plus degree:
# the "word"s, the "core"s (words that are not a lone bracket, which the
# power form folds into the bracket around them) and the one-factor
# "factor"s, ``x`` or ``[u]^p`` around a core.  A word splits by the size of
# its first factor, and what follows, or a lone factor, is the rest.

def _split_bracketed(key: tuple) -> Iterator[tuple]:
    kind, size = key
    if kind == "factor":
        if size == 1:
            yield (), None, lambda: (_X,)
        for power in range(1, size):
            yield (("core", size - power),), None, lambda core, power=power: (
                _close(_trusted(core), power),)
        return
    for k in range(1, size):
        yield (("factor", k),), ("word", size - k), _prefix
    if kind == "word" or size == 1:
        yield (), ("factor", size), lambda: _itself


BRACKETED = Family(_split_bracketed)


def iter_bracketed_words(max_size: int) -> Iterator[BracketedWord]:
    """Every canonical bracketed word over ``x`` with size <= ``max_size``."""
    for size in range(1, max_size + 1):
        yield from map(_trusted, BRACKETED.walk(("word", size)))


def random_bracketed_word(rng, alphabet: Sequence[str] = ("x", "y"), max_size: int = 10,
                          max_power: int = 3) -> BracketedWord:
    """A random canonical bracketed word; not necessarily an averaging word."""
    letters = [Letter(symbol) for symbol in alphabet]
    if not letters or max_size < 1 or max_power < 1:
        raise InputError("random_bracketed_word needs a nonempty alphabet, max_size >= 1"
                         " and max_power >= 1")

    def gen(budget: int) -> tuple:
        """A random word within ``budget``, and the budget it leaves."""
        factors = []
        while budget > 0:
            if rng.random() < 0.55 or budget < 3:
                factors.append(rng.choice(letters))
                budget -= 1
            else:
                power = rng.randint(1, min(max_power, budget - 1))
                given = rng.randint(1, budget - power)
                core, unused = gen(given)
                factors.append(_close(core, power))
                budget -= power + given - unused
            if rng.random() < 0.25:
                break
        return _trusted(tuple(factors)), budget

    return gen(rng.randint(1, max_size))[0]


# ---------------------------------------------------------------------------
# Exhaustive tree families

# A family is named by ``(leaves, unis)``: a leaf, ``Uni(t)`` or ``Bi(l, r)``.

def _split_unreduced(key: tuple) -> Iterator[tuple]:
    leaves, unis = key
    if key == (1, 0):
        yield (), None, lambda: LEAF
    if unis:
        yield ((leaves, unis - 1),), None, Uni
    for l_leaves in range(1, leaves):
        for l_unis in range(unis + 1):
            yield ((l_leaves, l_unis), (leaves - l_leaves, unis - l_unis)), None, Bi


UNREDUCED = Family(_split_unreduced)


def enumerate_unreduced(max_leaves: int, max_unis: int) -> list:
    """The unreduced trees within the bounds, by leaves, then uni-vertices.
    Every smaller family is a head (or a head's head) of the largest, so
    once its heads are held, each is read off its group, not built twice."""
    keys = [(leaves, unis) for leaves in range(1, max_leaves + 1) for unis in range(max_unis + 1)]
    for heads, *_ in UNREDUCED.branches(keys[-1]) if keys else ():
        for head in heads:
            UNREDUCED.group(head)
    return [t for key in keys for t in UNREDUCED.walk(key)]


def enumerate_averaging_trees(max_leaves: int, max_unis: int) -> list:
    """Averaging trees within the bounds, via the word bijection."""
    from ._grammar import iter_averaging_words  # here only: schroeder-trees runs without it

    out = [
        AveragingTree(_phi(raw(w)))
        for w in iter_averaging_words(max_leaves, max_unis)
    ]
    out.sort(key=_tree_key)
    return out


# ---------------------------------------------------------------------------
# Schroeder trees

IOTA = "iota"
OMEGA = "omega"


class SNode(Record):
    """Equality, hashing, ``repr`` and pickles read the rendered text, which
    is unique to the tree (``parse_schroeder_tree`` inverts it), so any depth
    compares, hashes, shows and pickles."""

    __slots__ = _fields = ("branches",)  # >= 2 branches; the vertex itself is decorated omega

    def __init__(self, branches: tuple):
        branches = tuple(branches)
        if len(branches) < 2:
            raise InputError("an internal vertex needs at least two branches")
        for b in branches:
            if b.__class__ is not SLeaf and b.__class__ is not SNode:
                raise TypeError(f"not a Schroeder tree: {b!r}")
        Record.__init__(self, branches)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not SNode:
            return NotImplemented
        return render_schroeder_tree(self) == render_schroeder_tree(other)

    def __hash__(self) -> int:
        return hash(render_schroeder_tree(self))

    def __str__(self) -> str:
        return render_schroeder_tree(self)

    def __repr__(self) -> str:
        return f"parse_schroeder_tree({str(self)!r})"

    def __reduce__(self):
        return parse_schroeder_tree, (render_schroeder_tree(self),)


class SLeaf(Record):
    __slots__ = _fields = ("decoration",)

    def __init__(self, decoration: str):
        if decoration not in (IOTA, OMEGA):
            raise InputError("leaf decoration must be iota or omega")
        Record.__init__(self, decoration)

    __str__, __repr__ = SNode.__str__, SNode.__repr__


SchroederTree = Union[SLeaf, SNode]
_IOTA_LEAF = SLeaf(IOTA)
_OMEGA_LEAF = SLeaf(OMEGA)

# Under each vertex the branches alternate iota leaf, other, iota leaf, ...
# In the text that is local: a vertex opens on ``i``, and after a comma comes
# ``i`` exactly when the branch before it is not ``i``.  A lone ``i`` is not
# a tree either.
_BREAKS_ALTERNATION = re.compile(r"^i$|w\((?!i)|i,i|[o)],(?!i)")


def is_schroeder(t: SchroederTree) -> bool:
    """The alternating branch condition at every vertex, or the omega leaf,
    read off the rendered text."""
    return not _BREAKS_ALTERNATION.search(render_schroeder_tree(t))


def omega_count(t: SchroederTree) -> int:
    text = render_schroeder_tree(t)
    return text.count("w") + text.count("o")


# A family is named by its number ``n`` of omega decorations: the omega leaf
# at 1, past it a vertex over ``k`` trees, by ``k``, by the composition of
# ``n - 1`` they make and by the trees, each without and with the trailing
# iota leaf (the family ``_TAIL``).  A branch is one n-ary product: nested
# binary ones would interleave the composition with the trees.

_TAIL = "tail"


def _split_schroeder(key) -> Iterator[tuple]:
    if key == _TAIL:
        yield (), None, lambda: ()
        yield (), None, lambda: (_IOTA_LEAF,)
    elif key == 1:
        yield (), None, lambda: _OMEGA_LEAF
    else:
        from .enumeration import compositions  # here only: the other families run without it

        for k in range(1, key):
            for parts in compositions(key - 1, k):
                yield (*parts, _TAIL), None, _graft


def _graft(*picks) -> SNode:
    """The vertex over the trees ``picks[:-1]``, each after an iota leaf,
    then the tail ``picks[-1]``: a Schroeder tree by construction, so built
    without the constructor's checks."""
    branches = []
    for sub in picks[:-1]:
        branches += (_IOTA_LEAF, sub)
    node = _new(SNode)
    _set_branches(node, (*branches, *picks[-1]))
    return node


_new, _set_branches = object.__new__, SNode.branches.__set__


SCHROEDER = Family(_split_schroeder)


def enumerate_schroeder(n: int) -> tuple:
    """All Schroeder trees with n omega decorations, by the grafting recursion."""
    return tuple(SCHROEDER.walk(n))


# ---------------------------------------------------------------------------
# The bijection with indecomposable words (cap 1, powers all 1)

def psi(w: Union[AveragingWord, BracketedWord]) -> SchroederTree:
    """Indecomposable word to Schroeder tree: odd factors x to iota leaves,
    even factors recursively; [x] is the omega leaf.  The tree's text is a
    token-for-token translation of the word's text, read back as a tree."""
    if letters_of(raw(w)) != {"x"}:
        raise InputError("the tree bijection needs words over the single letter x")
    v = certified(w).word
    if len(v.factors) != 1 or not isinstance(v.factors[0], Bracket):
        raise InputError("the word must be a single bracket (indecomposable)")
    text = render_word(v)
    if "^" in text:
        raise InputError("bracket powers must all be 1 under the idempotent convention")
    # a certified word's contents begin with x and never hold two adjacent
    # brackets, so they alternate unless two letters meet, the one place
    # render_word writes a space
    if " " in text:
        raise InputError("even positions of the content must be brackets")
    text = _FACTOR_GAP.sub(",", text.replace("[x]", "o")).translate(_WORD_TO_SCHROEDER)
    return parse_schroeder_tree(text)


def psi_inverse(t: SchroederTree) -> AveragingWord:
    text = render_schroeder_tree(t)
    if _BREAKS_ALTERNATION.search(text):
        raise InputError("not a Schroeder tree")
    return _normal(parse_word(text.translate(_SCHROEDER_TO_WORD)))


# The two text forms match token for token, so the word of a Schroeder tree
# is a translation of its text: w( to [, i to x, o to [x], the comma to a
# space and ) to ].  Back the other way, [x] is o, [ is w(, x is i and ] is
# ), with a comma between two adjacent factors.
_SCHROEDER_TO_WORD = str.maketrans({"w": "[", "(": None, "i": "x", "o": "[x]", ",": " ", ")": "]"})
_WORD_TO_SCHROEDER = str.maketrans({"[": "w(", "x": "i", "]": ")"})
_FACTOR_GAP = re.compile(r"(?<=[ox\]])(?=[ox\[])")




# ---------------------------------------------------------------------------
# Text forms

def render_schroeder_tree(t: SchroederTree) -> str:
    """``i`` / ``o`` / ``w(b,...)``.  Iterative: the stack holds the branch
    iterators of the open vertices, so any depth renders."""
    parts = []
    stack = []
    branches = enumerate((t,))
    while True:
        for k, s in branches:
            if k:
                parts.append(",")
            if isinstance(s, SLeaf):
                parts.append("i" if s.decoration == IOTA else "o")
            else:
                parts.append("w(")
                stack.append(branches)
                branches = enumerate(s.branches)
                break
        else:
            if not stack:
                return "".join(parts)
            parts.append(")")
            branches = stack.pop()


def parse_schroeder_tree(text: str) -> SchroederTree:
    return _read_term(
        text, {"i": _IOTA_LEAF, "o": _OMEGA_LEAF}, {"w": (None, lambda *bs: SNode(bs))}
    )
