"""Bracketed words over a finite alphabet and averaging normal forms.

A bracketed word is a nonempty sequence of factors, where a factor is either
a letter of the alphabet or a bracketed subword ``[w]^s`` (an ``s``-fold
application of the unary operator to ``w``).  Iterated brackets are kept in
canonical power form: the core of a bracket is never itself a single bracket,
so ``[[w]]`` is stored as ``[w]^2``.

An *averaging word* is a bracketed word containing no subword of the shapes
``[u][v]`` (adjacent brackets), ``[[u]v]`` with ``v`` nonempty (a bracket at
the head of a bracket's content), or ``[u[v]^s]`` with ``s >= 2`` and ``u``
nonempty (content ending in a repeated bracket).  Averaging words are the
normal forms of the free averaging algebra; see :mod:`avalg.algebra`.

Concrete text syntax::

    word   := factor+
    factor := IDENT | '[' word ']' power?
    power  := '^' POSINT
    IDENT  := [A-Za-z][A-Za-z0-9_]*

Whitespace between factors is ignored.  The renderer emits a single space
only between two adjacent letters (otherwise they would lex as one
identifier), which keeps ``parse_word(render_word(w)) == w`` exact.

Images of the letters extend uniquely along juxtaposition and brackets;
``_evaluate`` is that one fold, which ``depth``, ``letters_of``,
``substitute_letters``, ``trees.phi`` and ``algebra.universal_map`` run.
"""

from __future__ import annotations

import math
import operator
import re
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterator, Sequence, Union

from ._record import BudgetExceeded, InputError, Record, printed  # BudgetExceeded: re-exported

__all__ = [
    "Letter",
    "Bracket",
    "BracketedWord",
    "Factor",
    "AveragingWord",
    "WordAnalysis",
    "Violation",
    "ForbiddenPattern",
    "WordSyntaxError",
    "InvalidAveragingWord",
    "letter",
    "bracket",
    "word",
    "parse_word",
    "render_word",
    "analyze",
    "validate_averaging",
    "peel",
    "factor_at",
    "depth",
    "breadth",
    "head_index",
    "tail_index",
    "degree",
    "arity",
    "word_size",
    "word_key",
    "letters_of",
    "iter_bracketed_words",
    "iter_averaging_words",
    "random_bracketed_word",
    "random_averaging_word",
]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# The tokens of parse_word, one per match and numbered by ``lastindex``:
# 1 an identifier, 2 '[', 3 ']' with an optional '^' and its digits (group
# 4, possibly empty), 5 any other character.  Whitespace runs match with no
# group.  Every character belongs to some token, so the matches tile the text.
_TOKEN_RE = re.compile(rf"({_IDENT_RE.pattern})|(\[)|(\](?:\^(\d*))?)|\s+|(.)", re.DOTALL)


class WordSyntaxError(InputError):
    """Raised on malformed word text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# what one request may build: the words a census generates, the trees
# schroeder-trees lists, the uni-vertices of a tree built from a word
DEFAULT_BUDGET = 10**7


# The letters, brackets and words are on the hot paths of every layer, so
# each has its own equality and hash in place of Record's generic ones.

class Letter(Record):
    __slots__ = _fields = ("symbol",)

    def __init__(self, symbol: str):
        if not _IDENT_RE.fullmatch(symbol):
            raise InputError(f"letter symbol {symbol!r} is not an identifier")
        _set_symbol(self, symbol)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbol == other.symbol

    def __hash__(self) -> int:
        return hash((self.symbol,))

    def __str__(self) -> str:
        return self.symbol


class Bracket(Record):
    """``power``-fold bracket around ``core``, kept in canonical power form."""

    __slots__ = _fields = ("core", "power")

    def __init__(self, core: "BracketedWord", power: int = 1):
        if type(power) is not int:
            raise TypeError(f"bracket power must be an int, not {type(power).__name__}")
        if power < 1:
            raise InputError("bracket power must be >= 1")
        try:
            factors = core.factors
        except AttributeError:
            raise TypeError(f"bracket core must be a BracketedWord, not {core!r}") from None
        # Collapse [[w]^p]^q into [w]^(p+q); the inner value is already canonical.
        if len(factors) == 1 and isinstance(factors[0], Bracket):
            inner = factors[0]
            core, power = inner.core, power + inner.power
        _set_core(self, core)
        _set_power(self, power)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.power == other.power and self.core == other.core

    def __hash__(self) -> int:
        return hash((self.core, self.power))

    def __str__(self) -> str:
        return render_word(word(self))


class BracketedWord(Record):
    """Equality, hashing and ``repr`` read the rendered text, which is unique
    to the word (``parse_word`` inverts it), so any depth compares, hashes
    and shows."""

    __slots__ = _fields = ("factors",)  # tuple[Factor, ...], nonempty

    def __init__(self, factors: tuple):
        _set_factors(self, factors)
        self.__post_init__()

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise InputError("a bracketed word has at least one factor")
        for f in factors:
            if not isinstance(f, (Letter, Bracket)):
                raise TypeError(f"not a word factor: {f!r}")
        _set_factors(self, factors)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not BracketedWord:
            return NotImplemented
        return render_word(self) == render_word(other)

    def __hash__(self) -> int:
        return hash(render_word(self))

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"parse_word({render_word(self)!r})"


Factor = Union[Letter, Bracket]


# the slots' setters, past the frozen __setattr__
_set_factors = BracketedWord.factors.__set__
_set_symbol = Letter.symbol.__set__
_set_core = Bracket.core.__set__
_set_power = Bracket.power.__set__
_new = object.__new__


def _trusted(factors: tuple) -> BracketedWord:
    """The word on ``factors``, a nonempty tuple of letters and canonical
    brackets that is well-formed by construction; the public constructor's
    copy and checks are skipped."""
    w = _new(BracketedWord)
    _set_factors(w, factors)
    return w


def _letter(symbol: str) -> Letter:
    """The letter ``symbol``, an identifier by construction, unchecked."""
    f = _new(Letter)
    _set_symbol(f, symbol)
    return f


def _close(core: BracketedWord, power: int) -> Bracket:
    """The bracket ``[core]^power`` of a canonical word and a power >= 1,
    both well-formed by construction, unchecked; ``[[w]^p]^q`` folds into
    ``[w]^(p+q)``, as :class:`Bracket` folds it."""
    factors = core.factors
    if len(factors) == 1 and type(factors[0]) is Bracket:
        inner = factors[0]
        core, power = inner.core, inner.power + power
    b = _new(Bracket)
    _set_core(b, core)
    _set_power(b, power)
    return b


def letter(symbol: str) -> Letter:
    return Letter(symbol)


def word(*factors: Factor) -> BracketedWord:
    return BracketedWord(tuple(factors))


def bracket(core: Union[BracketedWord, Factor, "AveragingWord"], power: int = 1) -> Bracket:
    """Bracket ``core`` ``power`` times; accepts a word or a single factor."""
    core = raw(core)
    if isinstance(core, (Letter, Bracket)):
        core = word(core)
    return Bracket(core, power)


# ---------------------------------------------------------------------------
# Basic measures

def breadth(w: BracketedWord) -> int:
    """Number of factors in the standard decomposition."""
    return len(w.factors)


def head_index(w: BracketedWord) -> int:
    """0 if the first factor is a letter, 1 if it is a bracket."""
    return 0 if isinstance(w.factors[0], Letter) else 1


def tail_index(w: BracketedWord) -> int:
    return 0 if isinstance(w.factors[-1], Letter) else 1


def depth(w: BracketedWord) -> int:
    """Maximal bracket nesting; a power-``s`` bracket adds ``s`` levels."""
    return _evaluate(w, lambda symbol: 0, max, operator.add)


def _counts(w: BracketedWord) -> tuple:
    """(bracket pairs, letters) of ``w`` in one walk; powers count with
    multiplicity.  Not :func:`_evaluate`, which took 4.2 ms against 1.1 ms
    over the 426 words of an ``algebra`` pass (best of 15): every
    ``rewrite_reduce`` call reads ``word_size`` for its default budget."""
    pairs = letters = 0
    todo = [w]
    while todo:
        for f in todo.pop().factors:
            if isinstance(f, Bracket):
                pairs += f.power
                todo.append(f.core)
            else:
                letters += 1
    return pairs, letters


def degree(w: BracketedWord) -> int:
    """Total number of balanced bracket pairs (powers count with multiplicity)."""
    return _counts(w)[0]


def arity(w: BracketedWord) -> int:
    """Total number of letter occurrences."""
    return _counts(w)[1]


def word_size(w: BracketedWord) -> int:
    """Letters plus bracket pairs; the node count of the word."""
    return sum(_counts(w))


def letters_of(w: BracketedWord) -> set:
    """The set of letter symbols occurring in ``w``."""
    return _evaluate(w, lambda symbol: {symbol}, operator.ior, lambda letters, power: letters)


def word_key(w: Union[BracketedWord, "AveragingWord"]):
    """Canonical sort key: (degree, arity, rendered text)."""
    w = raw(w)
    return (*_counts(w), render_word(w))


# ---------------------------------------------------------------------------
# Parsing and rendering

def parse_word(text: str) -> BracketedWord:
    """Parse the concrete syntax into a canonical-power-form word.  One pass
    over :data:`_TOKEN_RE`'s tokens with an explicit stack, so any depth
    parses.  The tokens are checked as they are read, so the factors are
    built without the public constructors' checks."""
    stack = []  # (factors enclosing an open bracket, offset of its '[')
    factors = []
    letters = {}  # one Letter per distinct symbol
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == 1:
            symbol = m.group()
            f = letters.get(symbol)
            if f is None:
                f = letters[symbol] = _letter(symbol)
            factors.append(f)
        elif kind == 2:
            stack.append((factors, m.start()))
            factors = []
        elif kind == 3:
            if not stack:
                raise WordSyntaxError("unmatched ']'", m.start())
            if not factors:
                raise WordSyntaxError("empty bracket content", m.start())
            digits = m.group(4)
            power = 1
            if digits is not None:
                if not digits:
                    raise WordSyntaxError("expected an integer after '^'", m.start(4))
                try:
                    power = int(digits)
                except ValueError:  # more digits than the int-to-text limit
                    raise WordSyntaxError("power too long to read", m.start(4)) from None
                if power == 0:
                    raise WordSyntaxError("zero power", m.start(4))
            f = _close(_trusted(tuple(factors)), power)
            factors = stack.pop()[0]
            factors.append(f)
        elif kind == 5:
            raise WordSyntaxError(f"unexpected character {m.group()!r}", m.start())
    if stack:
        raise WordSyntaxError("unclosed '['", stack[-1][1])
    if not factors:
        raise WordSyntaxError("empty word", 0)
    return _trusted(tuple(factors))


def render_word(w: Union[BracketedWord, "AveragingWord"]) -> str:
    """Deterministic inverse of :func:`parse_word`.

    A space separates two adjacent letters; everything else is unspaced and
    nested brackets collapse into ``^s``.  Iterative, so any depth renders.
    """
    parts = []
    stack = []  # (factors left to render, text that closes their bracket)
    factors, close = iter(raw(w).factors), ""
    prev_letter = False
    while True:
        for f in factors:
            if isinstance(f, Letter):
                parts.append(" " + f.symbol if prev_letter else f.symbol)
                prev_letter = True
            else:
                parts.append("[")
                stack.append((factors, close))
                factors = iter(f.core.factors)
                close = "]" if f.power == 1 else printed("a bracket power has", "]^{}".format, f.power)
                prev_letter = False
                break
        else:
            parts.append(close)
            if not stack:
                return "".join(parts)
            factors, close = stack.pop()
            prev_letter = False


# ---------------------------------------------------------------------------
# Structural analysis

class WordAnalysis(Record):
    """Standard and block decompositions plus the basic indices.

    ``block_factors`` groups maximal letter runs and single brackets, each
    packaged as a word; on averaging words the two kinds strictly alternate.
    """

    __slots__ = _fields = ("depth", "breadth", "head", "tail", "standard_factors",
                           "block_factors")

    def __init__(self, depth: int, breadth: int, head: int, tail: int,
                 standard_factors: tuple, block_factors: tuple):
        Record.__init__(self, depth, breadth, head, tail, standard_factors, block_factors)


def analyze(w: BracketedWord) -> WordAnalysis:
    blocks = []
    run: list = []
    for f in w.factors:
        if isinstance(f, Letter):
            run.append(f)
        else:
            if run:
                blocks.append(BracketedWord(tuple(run)))
                run = []
            blocks.append(word(f))
    if run:
        blocks.append(BracketedWord(tuple(run)))
    return WordAnalysis(
        depth=depth(w),
        breadth=breadth(w),
        head=head_index(w),
        tail=tail_index(w),
        standard_factors=w.factors,
        block_factors=tuple(blocks),
    )


# ---------------------------------------------------------------------------
# Averaging words

class ForbiddenPattern(Enum):
    ADJACENT_BRACKETS = "AdjacentBrackets"
    BRACKET_HEADED = "BracketHeaded"
    POWER_TAIL = "PowerTail"


class Violation(Record):
    """Leftmost-innermost occurrence of a forbidden pattern.

    ``path`` is a factor-index path from the top word; every index but the
    last descends into a bracket core.  The final index addresses the left
    bracket of an adjacent pair, or the bracket whose content is offending.
    """

    __slots__ = _fields = ("pattern", "path")

    def __init__(self, pattern: ForbiddenPattern, path: tuple):
        Record.__init__(self, pattern, path)


def factor_at(w: BracketedWord, path: Sequence[int]) -> Factor:
    """Resolve a :class:`Violation` path to the factor it addresses."""
    f = w.factors[path[0]]
    for idx in path[1:]:
        if not isinstance(f, Bracket):
            raise InputError(f"path {tuple(path)} passes through the letter {f.symbol!r}")
        f = f.core.factors[idx]
    return f


def _scan_violation(w: BracketedWord) -> Union[Violation, None]:
    """The leftmost-innermost violation in ``w``, or None.  Iterative, so any
    depth scans: a bracket is checked once its core has been scanned clean,
    before the factor after it is visited."""
    stack = []  # (factors, their iterator, index of the bracket entered)
    factors = w.factors
    it = enumerate(factors)
    while True:
        for idx, f in it:
            if isinstance(f, Bracket):
                stack.append((factors, it, idx))
                factors = f.core.factors
                it = enumerate(factors)
                break
        else:
            if not stack:
                return None
            core = factors
            factors, it, idx = stack.pop()
            if len(core) >= 2:
                if isinstance(core[0], Bracket):
                    pattern = ForbiddenPattern.BRACKET_HEADED
                    break
                last = core[-1]
                if isinstance(last, Bracket) and last.power >= 2:
                    pattern = ForbiddenPattern.POWER_TAIL
                    break
            if idx + 1 < len(factors) and isinstance(factors[idx + 1], Bracket):
                pattern = ForbiddenPattern.ADJACENT_BRACKETS
                break
    # only a violation leaves the loop; the bracket at idx is where it lies
    return Violation(pattern, tuple([frame[2] for frame in stack]) + (idx,))


class InvalidAveragingWord(InputError):
    def __init__(self, violation: Violation):
        super().__init__(
            f"forbidden pattern {violation.pattern.value} at path {violation.path}"
        )
        self.violation = violation


class AveragingWord(Record):
    """A bracketed word certified free of the three forbidden patterns."""

    __slots__ = _fields = ("word",)

    def __init__(self, word: BracketedWord):
        _set_word(self, word)
        self.__post_init__()

    def __post_init__(self):
        found = _scan_violation(self.word)
        if found is not None:
            raise InvalidAveragingWord(found)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word

    def __hash__(self) -> int:
        return hash((self.word,))

    def __str__(self) -> str:
        return render_word(self.word)


_set_word = AveragingWord.word.__set__


def validate_averaging(w: BracketedWord) -> Union[AveragingWord, Violation]:
    """Accept ``w`` as an averaging word or report the leftmost-innermost violation."""
    found = _scan_violation(w)
    if found is not None:
        return found
    return _normal(w)


def raw(w: Union[BracketedWord, AveragingWord]) -> BracketedWord:
    return w.word if isinstance(w, AveragingWord) else w


def certified(w: Union[BracketedWord, AveragingWord]) -> AveragingWord:
    """``w`` itself if already certified; a plain word is scanned first."""
    return w if isinstance(w, AveragingWord) else AveragingWord(w)


def _normal(w: BracketedWord) -> AveragingWord:
    """Wrap a word that is normal by construction, without scanning it."""
    out = _new(AveragingWord)
    _set_word(out, w)
    return out


def substitute_letters(w: BracketedWord, factors_for: Callable) -> BracketedWord:
    """Replace each letter of ``w``, in reading order, by ``factors_for(letter)``,
    a nonempty tuple of factors: the evaluation into factor lists, where a
    bracket closes its core's list (``_close`` collapses stacked brackets
    into one power)."""
    return _trusted(tuple(_evaluate(
        w, lambda symbol: list(factors_for(_letter(symbol))), operator.iadd,
        lambda core, power: [_close(_trusted(tuple(core)), power)])))


def _evaluate(w: BracketedWord, image: Callable, multiply: Callable, apply: Callable,
              memo: Union[dict, None] = None):
    """The image of ``w`` under the homomorphism that sends each letter to
    ``image(symbol)``: juxtaposition folds left with ``multiply``, and a
    bracket ``[u]^s`` is ``apply(image of u, s)``, its ``s`` layers at once
    (see :func:`_layers`).  An explicit stack, so any depth evaluates.

    With ``memo``, a dict kept by the caller across calls, each bracket
    object's image is stored under its ``id`` and reused wherever the same
    object occurs again.  The caller keeps those brackets alive while the
    memo lives, and ``multiply`` and ``apply`` must not change their
    arguments, since an image is then handed out more than once."""
    stack = []
    factors, result, bracket = iter(w.factors), None, None
    while True:
        f = next(factors, None)
        if f is None:
            if not stack:
                return result
            piece = apply(result, bracket.power)
            if memo is not None:
                memo[id(bracket)] = piece
            factors, result, bracket = stack.pop()
        elif isinstance(f, Letter):
            try:
                piece = image(f.symbol)
            except KeyError:
                raise KeyError(f"letter {f.symbol!r} has no assigned image") from None
        elif memo is not None and id(f) in memo:
            piece = memo[id(f)]
        else:
            stack.append((factors, result, bracket))
            factors, result, bracket = iter(f.core.factors), None, f
            continue
        result = piece if result is None else multiply(result, piece)


def _layers(once: Callable) -> Callable:
    """The ``apply`` of :func:`_evaluate` that runs ``once`` per layer."""
    def apply(value, power: int):
        for _ in range(power):
            value = once(value)
        return value
    return apply


def peel(w: Union[AveragingWord, BracketedWord]) -> tuple:
    """Split a breadth-1 bracket ``[w']^s`` into ``(w', s)``.

    The core of a canonical averaging bracket always has head index 0, so the
    pair is unique.
    """
    v = certified(w).word
    if len(v.factors) != 1 or not isinstance(v.factors[0], Bracket):
        raise InputError("peel needs a word that is a single bracket factor")
    b = v.factors[0]
    return _normal(b.core), b.power


# ---------------------------------------------------------------------------
# Exhaustive enumeration (single-letter alphabet)

_X = Letter("x")  # the one generator of the enumerators below and of the tree bijection


@lru_cache(maxsize=None)
def _all_words_exact(size: int) -> tuple:
    """All canonical bracketed words with ``arity + degree == size >= 1``."""
    out = []
    for k in range(1, size + 1):
        for f in _all_factors_exact(k):
            if k == size:
                out.append(word(f))
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
            out.append(Bracket(core, power))
    return tuple(out)


def iter_bracketed_words(max_size: int) -> Iterator[BracketedWord]:
    """Every canonical bracketed word over ``x`` with size <= ``max_size``."""
    for size in range(1, max_size + 1):
        yield from _all_words_exact(size)


# ---------------------------------------------------------------------------
# Averaging words over x: one recursion counts, walks and unranks them
#
# A family is named by ``(a, d, head, core)`` under ``caps = (power_cap,
# run_cap)``: the averaging words over ``x`` of arity ``a`` and degree ``d``
# whose first factor is a letter (head 0) or a bracket (head 1), in which
# runs have at most ``run_cap`` letters and brackets ``[u]^s`` have
# ``s <= power_cap``.  With ``core`` set, a word also does not end in a
# bracket of power >= 2, as the core ``u`` of a bracket must not; a core has
# head 0.  Only the counts, with the branches that hold words, and the
# bracket groups, which stand inside larger words, are memoised; words are
# walked, never held.


def _split_family(family: tuple, caps: tuple) -> Iterator[tuple]:
    """The case split of a family: each way its words begin, as ``(first,
    rest)``.  ``first`` is a run length ``r`` (a run of ``r`` letters) or
    ``(ba, bd, top)``, the brackets of arity ``ba`` and degree ``bd`` with
    power at most ``top``; ``rest`` is the family of what follows, or None
    when ``first`` is the whole word."""
    a, d, head, core = family
    power_cap, run_cap = caps
    if a > run_cap * (2 * d + 1):
        return  # a word of degree d has at most 2d + 1 runs
    if head == 0:
        for r in range(1, min(a, run_cap) + 1):
            if r < a:
                yield r, (a - r, d, 1, core)
            elif d == 0:
                yield r, None
        return
    for ba in range(1, a + 1):
        for bd in range(1, d + 1):
            if (ba, bd) != (a, d):
                yield (ba, bd, min(bd, power_cap)), (a - ba, d - bd, 0, core)
            else:
                yield (ba, bd, 1 if core else min(bd, power_cap)), None


@lru_cache(maxsize=None)
def _branches(family: tuple, caps: tuple) -> tuple:
    """The branches of a family's split that hold words, as ``(first, rest,
    firsts, rests)``: ``firsts`` first factors (one run, or a bracket
    ``[u]^s`` for each core ``u`` of each power ``s``), each followed by any
    of the ``rests`` words of ``rest`` (1 when ``rest`` is None).  Memoised,
    so a walk never visits an empty branch."""
    out = []
    for first, rest in _split_family(family, caps):
        rests = 1 if rest is None else _count_family(rest, caps)
        if not rests:
            continue
        if type(first) is int:
            firsts = 1
        else:
            a, d, top = first
            firsts = sum(_count_family((a, d - s, 0, True), caps) for s in range(1, top + 1))
        if firsts:
            out.append((first, rest, firsts, rests))
    return tuple(out)


@lru_cache(maxsize=None)
def _count_family(family: tuple, caps: tuple) -> int:
    """The number of words in a family."""
    return sum(firsts * rests for _, _, firsts, rests in _branches(family, caps))


@lru_cache(maxsize=None)
def _bracket_group(a: int, d: int, s: int, caps: tuple) -> tuple:
    """The brackets ``[u]^s`` of arity ``a`` and degree ``d``, built once for
    every word that contains them."""
    return tuple(_close(_trusted(core), s) for core in _walk_family((a, d - s, 0, True), caps))


def _walk_family(family: tuple, caps: tuple) -> Iterator[tuple]:
    """The factor tuples of a family's words, one at a time, in the order of
    its split: each first factor (a run, or a bracket as a 1-tuple) with
    each rest.  The words come through chained C iterators, so Python code
    runs once per first factor, not once per word."""

    def pieces():
        for first, rest, _, _ in _branches(family, caps):
            if type(first) is int:
                heads = ((_X,) * first,)
            else:
                a, d, top = first
                heads = chain.from_iterable(zip(_bracket_group(a, d, s, caps)) for s in range(1, top + 1))
            if rest is None:
                yield heads
            elif rest[2:] == (0, True):
                # a core rest: its words are the cores u of the memoised
                # brackets [u], read off them rather than walked once per head
                held = _bracket_group(rest[0], rest[1] + 1, 1, caps)
                for head in heads:
                    yield map(head.__add__, map(_core_factors, held))
            else:
                for head in heads:
                    yield map(head.__add__, _walk_family(rest, caps))

    return chain.from_iterable(pieces())


_core_factors = operator.attrgetter("core.factors")


def _unrank_family(family: tuple, caps: tuple, rank: int) -> tuple:
    """The factor tuple of the word at ``rank`` in :func:`_walk_family`'s
    order, found by descending through the counts; no family is built, only
    that word."""
    if not 0 <= rank < _count_family(family, caps):
        raise IndexError(f"rank {rank} is outside the family {family}")
    factors = []
    while family is not None:
        for first, rest, firsts, rests in _branches(family, caps):
            if rank < firsts * rests:
                break
            rank -= firsts * rests
        index, rank = divmod(rank, rests)
        family = rest
        if type(first) is int:
            factors.extend((_X,) * first)
            continue
        a, d, top = first
        for s in range(1, top + 1):
            cores = (a, d - s, 0, True)
            if index < _count_family(cores, caps):
                break
            index -= _count_family(cores, caps)
        factors.append(_close(_trusted(_unrank_family(cores, caps, index)), s))
    return tuple(factors)


def _draw(rng, families: Sequence[tuple], caps: tuple) -> tuple:
    """The factor tuple of a word drawn uniformly from the union of
    ``families``: a rank below their summed counts, unranked in the family
    it falls in (the recursive method of uniform random generation)."""
    counts = [_count_family(family, caps) for family in families]
    rank = rng.randrange(sum(counts))
    for family, count in zip(families, counts):
        if rank < count:
            return _unrank_family(family, caps, rank)
        rank -= count


def iter_averaging_words(max_arity: int, max_degree: int) -> Iterator[AveragingWord]:
    """Every averaging word over ``x`` within the given arity/degree bounds."""
    caps = (math.inf, math.inf)
    for a in range(1, max_arity + 1):
        for d in range(0, max_degree + 1):
            for head in (0, 1):
                for factors in _walk_family((a, d, head, False), caps):
                    yield _normal(_trusted(factors))


# ---------------------------------------------------------------------------
# Random generation (seeded; used heavily by the test suite)

def random_bracketed_word(rng, alphabet: Sequence[str] = ("x", "y"), max_size: int = 10,
                          max_power: int = 3) -> BracketedWord:
    """A random canonical bracketed word; not necessarily an averaging word."""

    def gen(budget: int) -> BracketedWord:
        factors = []
        while budget > 0:
            if rng.random() < 0.55 or budget < 3:
                factors.append(Letter(rng.choice(alphabet)))
                budget -= 1
            else:
                power = rng.randint(1, min(max_power, budget - 1))
                core = gen(rng.randint(1, budget - power))
                b = Bracket(core, power)
                factors.append(b)
                budget -= power + word_size(core)
            if rng.random() < 0.25:
                break
        return BracketedWord(tuple(factors))

    return gen(rng.randint(1, max_size))


def random_averaging_word(rng, alphabet: Sequence[str] = ("x", "y"),
                          max_depth: int = 4, max_run: int = 2) -> AveragingWord:
    """A random averaging word of degree (hence depth) <= ``max_depth`` with
    runs of at most ``max_run`` letters: a degree ``d`` uniform in ``0 ..
    max_depth``, a word uniform among those of degree ``d`` over ``x`` (drawn
    by :func:`_draw`), and each letter uniform from ``alphabet``."""
    if max_depth < 0 or max_run < 1:
        raise InputError("random_averaging_word needs max_depth >= 0 and max_run >= 1")
    letters = [Letter(symbol) for symbol in alphabet]
    d = rng.randint(0, max_depth)
    # a word of degree d has at most 2d + 1 runs
    families = [(a, d, head, False) for a in range(1, max_run * (2 * d + 1) + 1) for head in (0, 1)]
    shape = _trusted(_draw(rng, families, (math.inf, max_run)))
    return AveragingWord(substitute_letters(shape, lambda _: (rng.choice(letters),)))
