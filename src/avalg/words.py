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
The exhaustive and random words live in :mod:`avalg._grammar` (averaging
words) and :mod:`avalg._families` (bracketed words); their exhaustive
families are declared in the engine of :mod:`avalg._engine`.
"""

from __future__ import annotations

import operator
import re
from enum import Enum
from itertools import groupby, islice
from typing import Callable, Sequence, Union

from . import _forward
from ._record import BudgetExceeded, InputError, Record, printed

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

_HOME = {"iter_averaging_words": "_grammar", "random_averaging_word": "_grammar",
         "iter_bracketed_words": "_families", "random_bracketed_word": "_families"}
_forward(globals())

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# The tokens of parse_word, one per match of its one group: an identifier,
# '[', ']' with an optional '^' and its digits (possibly none), or any other
# character that is not whitespace.  So the matches skip exactly the
# whitespace.
_TOKEN_RE = re.compile(rf"({_IDENT_RE.pattern}|\[|\](?:\^\d*)?|\S)")


class WordSyntaxError(InputError):
    """Raised on malformed word text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Letter(Record):
    __slots__ = _fields = ("symbol",)

    def __init__(self, symbol: str):
        if not _IDENT_RE.fullmatch(symbol):
            raise InputError(f"letter symbol {symbol!r} is not an identifier")
        _set_symbol(self, symbol)

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
            closed = _close(core, power)  # folds [[w]^p]^q into [w]^(p+q)
        except AttributeError:
            raise TypeError(f"bracket core must be a BracketedWord, not {core!r}") from None
        _set_core(self, closed.core)
        _set_power(self, closed.power)

    def __str__(self) -> str:
        return render_word(word(self))


class BracketedWord(Record):
    """Equality, hashing and ``repr`` read the rendered text, unique to the
    word, so any depth works; a word with a power past the int-to-text limit
    compares and hashes by :func:`_tokens`.  A pickle is the flat tuple of
    :func:`_tokens`, read back by the text's checking reader, so any depth
    pickles, and the powers travel as binary ints, past any text limit."""

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
        try:
            return render_word(self) == render_word(other)
        except BudgetExceeded:
            return _tokens(self) == _tokens(other)

    def __hash__(self) -> int:
        try:
            return hash(render_word(self))
        except BudgetExceeded:
            return hash(_tokens(self))

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"parse_word({render_word(self)!r})"

    def __reduce__(self):
        return _read, (_tokens(self),)


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
    """Parse the concrete syntax into a canonical-power-form word: the
    tokens of ``_TOKEN_RE``, read by :func:`_read`."""
    return _read(_TOKEN_RE.findall(text), text)


def _offset(text, i: int) -> int:
    """Where the ``i``-th token of ``text`` starts, for an error message; a
    pickle's tokens have no text, and their place is ``i``."""
    if text is None:
        return i
    return next(islice(_TOKEN_RE.finditer(text), i, None)).start()


def _read(tokens, text=None) -> BracketedWord:
    """The word of ``tokens``: a pickle's, from :func:`_tokens`, or those of
    ``text``, where a '[' and a ']' with its power are text too.  Each token
    is checked as it is read, so the factors are built without the public
    constructors' checks.  An explicit stack, so any depth reads."""
    stack = []  # (factors enclosing an open bracket, index of its '[')
    factors = []
    letters = {}  # one Letter per distinct symbol
    for i, token in enumerate(tokens):
        if type(token) is str and (text is None or token[0] not in "[]"):
            f = letters.get(token)
            if f is None:
                if not _IDENT_RE.fullmatch(token):
                    message = (f"letter symbol {token!r} is not an identifier" if text is None
                               else f"unexpected character {token!r}")
                    raise WordSyntaxError(message, _offset(text, i))
                f = letters[token] = _letter(token)
            factors.append(f)
        elif token is None or token == "[":
            stack.append((factors, i))
            factors = []
        else:
            if not stack:
                raise WordSyntaxError("unmatched ']'", _offset(text, i))
            if not factors:
                raise WordSyntaxError("empty bracket content", _offset(text, i))
            if type(token) is str:
                token = _power(token, text, i)
            if type(token) is not int or token < 1:
                raise WordSyntaxError(f"bracket power {token!r} is not an int >= 1", _offset(text, i))
            f = _close(_trusted(tuple(factors)), token)
            factors = stack.pop()[0]
            factors.append(f)
    if stack:
        raise WordSyntaxError("unclosed '['", _offset(text, stack[-1][1]))
    if not factors:
        raise WordSyntaxError("empty word", 0)
    return _trusted(tuple(factors))


def _power(token: str, text: str, i: int) -> int:
    """The power of ``token``, the ``i``-th of ``text``: 1 for a bare ']', else
    its digits after '^', whose place an error names."""
    if token == "]":
        return 1
    digits = token[2:]
    try:
        power = int(digits)
    except ValueError:  # no digits, or more than the int-to-text limit
        message = "power too long to read" if digits else "expected an integer after '^'"
        raise WordSyntaxError(message, _offset(text, i) + 2) from None
    if not power:
        raise WordSyntaxError("zero power", _offset(text, i) + 2)
    return power


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


def _tokens(w: BracketedWord) -> tuple:
    """The text of ``w`` as tokens, no power rendered: each letter's symbol,
    None for a '[' and the power of its bracket for the ']'.  Tokens, like
    the text, tell words apart; iterative, so any depth reads."""
    tokens = []
    stack = []  # (factors left around an open bracket, its power)
    factors = iter(w.factors)
    while True:
        for f in factors:
            if type(f) is Letter:
                tokens.append(f.symbol)
            else:
                tokens.append(None)
                stack.append((factors, f.power))
                factors = iter(f.core.factors)
                break
        else:
            if not stack:
                return tuple(tokens)
            factors, power = stack.pop()
            tokens.append(power)


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
    for letters, group in groupby(w.factors, key=lambda f: type(f) is Letter):
        group = tuple(group)
        blocks += [_trusted(group)] if letters else [_trusted((f,)) for f in group]
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


class _PathIndexError(InputError, IndexError):
    """A path that addresses no factor; an IndexError too, as it always was."""


def factor_at(w: BracketedWord, path: Sequence[int]) -> Factor:
    """Resolve a :class:`Violation` path to the factor it addresses."""
    try:
        f = w.factors[path[0]]
        for idx in path[1:]:
            if not isinstance(f, Bracket):
                raise InputError(f"path {tuple(path)} passes through the letter {f.symbol!r}")
            f = f.core.factors[idx]
    except IndexError:
        raise _PathIndexError(f"path {tuple(path)} addresses no factor") from None
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


# the one generator of the tree bijection and of the enumerators
_X = Letter("x")
