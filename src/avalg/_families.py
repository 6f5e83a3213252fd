"""The families built outside the counting grammar of :mod:`avalg._grammar`:
the exhaustive and random bracketed words, the exhaustive unreduced and
averaging trees, and the Schroeder trees with their bijection ``psi`` to the
indecomposable words.

Of the commands only ``schroeder-trees`` runs this code, so
:mod:`avalg.words` and :mod:`avalg.trees` read these names from here on
first use.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterator, Sequence, Union

from ._record import InputError, Record
from .trees import LEAF, AveragingTree, Bi, Uni, _phi, _read_term, _tree_key
from .words import (_X, AveragingWord, Bracket, BracketedWord, Letter, _close, _normal, _trusted,
                    certified, letters_of, parse_word, raw, render_word)


# ---------------------------------------------------------------------------
# Bracketed words: every one over x up to a size, and random ones

@lru_cache(maxsize=None)
def _all_words_exact(size: int) -> tuple:
    """All canonical bracketed words with ``arity + degree == size >= 1``."""
    out = []
    for k in range(1, size + 1):
        for f in _all_factors_exact(k):
            if k == size:
                out.append(_trusted((f,)))
            else:
                for rest in _all_words_exact(size - k):
                    out.append(_trusted((f,) + rest.factors))
    return tuple(out)


@lru_cache(maxsize=None)
def _all_factors_exact(size: int) -> tuple:
    out = []
    if size == 1:
        out.append(_X)
    for power in range(1, size):
        for core in _all_words_exact(size - power):
            if len(core.factors) == 1 and isinstance(core.factors[0], Bracket):
                continue  # that shape is already produced at a higher power
            out.append(_close(core, power))
    return tuple(out)


def iter_bracketed_words(max_size: int) -> Iterator[BracketedWord]:
    """Every canonical bracketed word over ``x`` with size <= ``max_size``."""
    for size in range(1, max_size + 1):
        yield from _all_words_exact(size)


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

@lru_cache(maxsize=None)
def _unreduced_exact(leaves: int, unis: int) -> tuple:
    """All unreduced binary trees with ``leaves >= 1`` leaves and ``unis >= 0``
    uni-vertices."""
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


@lru_cache(maxsize=None)
def enumerate_schroeder(n: int) -> tuple:
    """All Schroeder trees with n omega decorations, by the grafting recursion."""
    if n < 1:
        return ()
    if n == 1:
        return (_OMEGA_LEAF,)
    from .enumeration import compositions  # here only: the other families run without it

    out = []
    for k in range(1, n):
        for parts in compositions(n - 1, k):
            choices = [enumerate_schroeder(p) for p in parts]
            for picks in itertools.product(*choices):
                branches = []
                for sub in picks:
                    branches.append(_IOTA_LEAF)
                    branches.append(sub)
                out.append(SNode(tuple(branches)))
                out.append(SNode(tuple(branches) + (_IOTA_LEAF,)))
    return tuple(out)


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
