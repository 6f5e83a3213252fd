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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, Sequence, Union

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
_POWER_RE = re.compile(r"\d+")


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class Letter:
    symbol: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.symbol):
            raise ValueError(f"letter symbol {self.symbol!r} is not an identifier")

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True, slots=True)
class Bracket:
    """``power``-fold bracket around ``core``, kept in canonical power form."""

    core: "BracketedWord"
    power: int = 1

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("bracket power must be >= 1")
        # Collapse [[w]^p]^q into [w]^(p+q); the inner value is already canonical.
        core, power = self.core, self.power
        if len(core.factors) == 1 and isinstance(core.factors[0], Bracket):
            inner = core.factors[0]
            object.__setattr__(self, "core", inner.core)
            object.__setattr__(self, "power", power + inner.power)

    def __str__(self) -> str:
        return render_word(word(self))


@dataclass(frozen=True, slots=True)
class BracketedWord:
    factors: tuple  # tuple[Factor, ...], nonempty

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("a bracketed word has at least one factor")
        for f in factors:
            if not isinstance(f, (Letter, Bracket)):
                raise TypeError(f"not a word factor: {f!r}")
        object.__setattr__(self, "factors", factors)

    def __str__(self) -> str:
        return render_word(self)


Factor = Union[Letter, Bracket]


_set_factors = BracketedWord.factors.__set__  # the slot's setter, past the frozen __setattr__


def _trusted(factors: tuple) -> BracketedWord:
    """The word on ``factors``, a nonempty tuple of letters and canonical
    brackets that is well-formed by construction; the public constructor's
    copy and checks are skipped."""
    w = object.__new__(BracketedWord)
    _set_factors(w, factors)
    return w


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
    """Maximal bracket nesting; a power-``s`` bracket adds ``s`` levels.
    Iterative, like the other measures, so any depth counts."""
    deepest, todo = 0, [(w, 0)]
    while todo:
        v, above = todo.pop()
        for f in v.factors:
            if isinstance(f, Bracket):
                level = above + f.power
                deepest = max(deepest, level)
                todo.append((f.core, level))
    return deepest


def degree(w: BracketedWord) -> int:
    """Total number of balanced bracket pairs (powers count with multiplicity)."""
    pairs, todo = 0, [w]
    while todo:
        for f in todo.pop().factors:
            if isinstance(f, Bracket):
                pairs += f.power
                todo.append(f.core)
    return pairs


def arity(w: BracketedWord) -> int:
    """Total number of letter occurrences."""
    letters, todo = 0, [w]
    while todo:
        for f in todo.pop().factors:
            if isinstance(f, Bracket):
                todo.append(f.core)
            else:
                letters += 1
    return letters


def word_size(w: BracketedWord) -> int:
    """Letters plus bracket pairs; the node count of the word."""
    size, todo = 0, [w]
    while todo:
        for f in todo.pop().factors:
            if isinstance(f, Bracket):
                size += f.power
                todo.append(f.core)
            else:
                size += 1
    return size


def letters_of(w: BracketedWord) -> set:
    """The set of letter symbols occurring in ``w``."""
    out, todo = set(), [w]
    while todo:
        for f in todo.pop().factors:
            if isinstance(f, Bracket):
                todo.append(f.core)
            else:
                out.add(f.symbol)
    return out


def word_key(w: Union[BracketedWord, "AveragingWord"]):
    """Canonical sort key: (degree, arity, rendered text)."""
    w = raw(w)
    return (degree(w), arity(w), render_word(w))


# ---------------------------------------------------------------------------
# Parsing and rendering

def parse_word(text: str) -> BracketedWord:
    """Parse the concrete syntax into a canonical-power-form word.  One loop
    with an explicit stack, so any depth parses."""
    stack = []  # (factors enclosing an open bracket, offset of its '[')
    factors = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "[":
            stack.append((factors, i))
            factors = []
            i += 1
        elif ch == "]":
            if not stack:
                raise WordSyntaxError("unmatched ']'", i)
            if not factors:
                raise WordSyntaxError("empty bracket content", i)
            core = BracketedWord(tuple(factors))
            factors = stack.pop()[0]
            i += 1
            power = 1
            if i < n and text[i] == "^":
                m = _POWER_RE.match(text, i + 1)
                if not m:
                    raise WordSyntaxError("expected an integer after '^'", i + 1)
                power = int(m.group())
                if power == 0:
                    raise WordSyntaxError("zero power", i + 1)
                i = m.end()
            factors.append(Bracket(core, power))
        else:
            m = _IDENT_RE.match(text, i)
            if not m:
                raise WordSyntaxError(f"unexpected character {ch!r}", i)
            factors.append(Letter(m.group()))
            i = m.end()
    if stack:
        raise WordSyntaxError("unclosed '['", stack[-1][1])
    if not factors:
        raise WordSyntaxError("empty word", 0)
    return BracketedWord(tuple(factors))


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
                factors, close = iter(f.core.factors), "]" if f.power == 1 else f"]^{f.power}"
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

@dataclass(frozen=True)
class WordAnalysis:
    """Standard and block decompositions plus the basic indices.

    ``block_factors`` groups maximal letter runs and single brackets, each
    packaged as a word; on averaging words the two kinds strictly alternate.
    """

    depth: int
    breadth: int
    head: int
    tail: int
    standard_factors: tuple
    block_factors: tuple


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


@dataclass(frozen=True)
class Violation:
    """Leftmost-innermost occurrence of a forbidden pattern.

    ``path`` is a factor-index path from the top word; every index but the
    last descends into a bracket core.  The final index addresses the left
    bracket of an adjacent pair, or the bracket whose content is offending.
    """

    pattern: ForbiddenPattern
    path: tuple


def factor_at(w: BracketedWord, path: Sequence[int]) -> Factor:
    """Resolve a :class:`Violation` path to the factor it addresses."""
    f = w.factors[path[0]]
    for idx in path[1:]:
        if not isinstance(f, Bracket):
            raise ValueError(f"path {tuple(path)} passes through the letter {f.symbol!r}")
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


class InvalidAveragingWord(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(
            f"forbidden pattern {violation.pattern.value} at path {violation.path}"
        )
        self.violation = violation


@dataclass(frozen=True)
class AveragingWord:
    """A bracketed word certified free of the three forbidden patterns."""

    word: BracketedWord

    def __post_init__(self):
        found = _scan_violation(self.word)
        if found is not None:
            raise InvalidAveragingWord(found)

    def __str__(self) -> str:
        return render_word(self.word)


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
    out = object.__new__(AveragingWord)
    object.__setattr__(out, "word", w)
    return out


def substitute_letters(w: BracketedWord, factors_for: Callable) -> BracketedWord:
    """Replace each letter of ``w``, in reading order, by ``factors_for(letter)``,
    a nonempty tuple of factors."""
    factors = []
    for f in w.factors:
        if isinstance(f, Letter):
            factors.extend(factors_for(f))
        else:
            factors.append(Bracket(substitute_letters(f.core, factors_for), f.power))
    return _trusted(tuple(factors))


def peel(w: Union[AveragingWord, BracketedWord]) -> tuple:
    """Split a breadth-1 bracket ``[w']^s`` into ``(w', s)``.

    The core of a canonical averaging bracket always has head index 0, so the
    pair is unique.
    """
    v = certified(w).word
    if len(v.factors) != 1 or not isinstance(v.factors[0], Bracket):
        raise ValueError("peel needs a word that is a single bracket factor")
    b = v.factors[0]
    return _normal(b.core), b.power


# ---------------------------------------------------------------------------
# Exhaustive enumeration (single-letter alphabet)

@lru_cache(maxsize=None)
def _all_words_exact(sym: str, size: int) -> tuple:
    """All canonical bracketed words with ``arity + degree == size``."""
    if size < 1:
        return ()
    out = []
    for k in range(1, size + 1):
        for f in _all_factors_exact(sym, k):
            if k == size:
                out.append(word(f))
            else:
                for rest in _all_words_exact(sym, size - k):
                    out.append(_trusted((f,) + rest.factors))
    return tuple(out)


@lru_cache(maxsize=None)
def _all_factors_exact(sym: str, size: int) -> tuple:
    out = []
    if size == 1:
        out.append(Letter(sym))
    for power in range(1, size):
        for core in _all_words_exact(sym, size - power):
            if len(core.factors) == 1 and isinstance(core.factors[0], Bracket):
                continue  # that shape is already produced at a higher power
            out.append(Bracket(core, power))
    return tuple(out)


def iter_bracketed_words(max_size: int, symbol: str = "x") -> Iterator[BracketedWord]:
    """Every canonical bracketed word over one letter with size <= ``max_size``."""
    for size in range(1, max_size + 1):
        yield from _all_words_exact(symbol, size)


@lru_cache(maxsize=None)
def _averaging_factors(sym: str, a: int, d: int, power_cap: Union[int, float],
                       run_cap: Union[int, float], head: int) -> tuple:
    """Factor tuples of the averaging words over ``sym`` of arity ``a``, degree ``d``.

    A word alternates runs of at most ``run_cap`` letters with brackets
    ``[core]^s``, ``s <= power_cap``, where a core is a word with head 0
    that does not end in a bracket of power >= 2.  ``head`` selects the
    first factor as in :func:`head_index`.  Every word comes out once.
    """
    out = []
    if head == 0:
        for r in range(1, min(a, run_cap) + 1):
            run = (Letter(sym),) * r
            if r == a:
                if d == 0:
                    out.append(run)
            else:
                rests = _averaging_factors(sym, a - r, d, power_cap, run_cap, 1)
                out.extend(run + rest for rest in rests)
        return tuple(out)
    for ba in range(1, a + 1):
        for bd in range(1, d + 1):
            brackets = _averaging_brackets(sym, ba, bd, power_cap, run_cap)
            if (ba, bd) == (a, d):
                out.extend((b,) for b in brackets)
            else:
                rests = _averaging_factors(sym, a - ba, d - bd, power_cap, run_cap, 0)
                out.extend((b,) + rest for b in brackets for rest in rests)
    return tuple(out)


@lru_cache(maxsize=None)
def _averaging_brackets(sym: str, a: int, d: int, power_cap: Union[int, float],
                        run_cap: Union[int, float]) -> tuple:
    """The brackets ``[core]^s`` of arity ``a`` and degree ``d`` that may stand
    in an averaging word, built once for every word that contains them."""
    return tuple(
        Bracket(_trusted(core), s)
        for s in range(1, min(d, power_cap) + 1)
        for core in _averaging_factors(sym, a, d - s, power_cap, run_cap, 0)
        if not (isinstance(core[-1], Bracket) and core[-1].power >= 2)
    )


def iter_averaging_words(
    max_arity: int, max_degree: int, symbol: str = "x"
) -> Iterator[AveragingWord]:
    """Every averaging word over one letter within the given arity/degree bounds."""
    for a in range(1, max_arity + 1):
        for d in range(0, max_degree + 1):
            for head in (0, 1):
                for factors in _averaging_factors(symbol, a, d, math.inf, math.inf, head):
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
            if factors and rng.random() < 0.25:
                break
        if not factors:
            factors.append(Letter(rng.choice(alphabet)))
        return BracketedWord(tuple(factors))

    return gen(rng.randint(1, max_size))


def random_averaging_word(rng, alphabet: Sequence[str] = ("x", "y"),
                          max_depth: int = 4, max_run: int = 2) -> AveragingWord:
    """A random averaging word of depth <= ``max_depth``."""

    def run() -> list:
        return [Letter(rng.choice(alphabet)) for _ in range(rng.randint(1, max_run))]

    def core_shaped(d: int) -> BracketedWord:
        # head 0; tail a letter or a final power-1 bracket
        factors = run()
        for _ in range(rng.randint(0, 2)):
            if d < 1 or rng.random() < 0.5:
                break
            factors.append(tilde_bracket(d))
            factors.extend(run())
        if d >= 1 and rng.random() < 0.5:
            factors.append(Bracket(core_shaped(d - 1), 1))
        return BracketedWord(tuple(factors))

    def tilde_bracket(d: int) -> Bracket:
        power = rng.randint(1, d)
        return Bracket(core_shaped(d - power), power)

    def gen(d: int) -> BracketedWord:
        factors: list = []
        if d >= 1 and rng.random() < 0.35:
            factors.append(tilde_bracket(d))
        pairs = rng.randint(0 if factors else 1, 2)
        for _ in range(pairs):
            factors.extend(run())
            if d >= 1 and rng.random() < 0.5:
                factors.append(tilde_bracket(d))
            else:
                break
        if not factors:
            factors.extend(run())
        return BracketedWord(tuple(factors))

    return AveragingWord(gen(max_depth))
