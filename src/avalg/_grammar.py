"""The averaging words over ``x``, declared by their case split in the
engine of :mod:`avalg._engine`, which counts, walks, unranks and draws them.

The exhaustive and random averaging words of :mod:`avalg.words` and the
census of :mod:`avalg.enumeration` come from here, with the run collapse
behind the run-cap reduction.  Of the commands only ``census`` runs this
code, so the two layers read these names from here on first use.
"""

from __future__ import annotations

import itertools
import math
import re
from itertools import chain
from typing import Iterator, Sequence, Union

from ._engine import Family, _itself, _prefix
from ._record import DEFAULT_BUDGET, BudgetExceeded, InputError
from .enumeration import (Cap, Census, CountTable, _check_cap, _check_sizes,
                          iter_schroeder_numbers, reduce_to_v1)
from .words import (_IDENT_RE, _X, AveragingWord, Bracket, BracketedWord, Letter, _close, _normal,
                    _trusted, parse_word, raw, render_word, substitute_letters)


# ---------------------------------------------------------------------------
# Averaging words over x
#
# A word family is named by ``(a, d, head, core, caps)``: the factor tuples
# of the averaging words over ``x`` of arity ``a`` and degree ``d`` whose
# first factor is a letter (head 0) or a bracket (head 1), in which, with
# ``caps = (power_cap, run_cap)``, runs have at most ``run_cap`` letters and
# brackets ``[u]^s`` have ``s <= power_cap``.  With ``core`` set, a word also
# does not end in a bracket of power >= 2, as the core ``u`` of a bracket
# must not; a core has head 0.  A family splits by its words' first factor,
# a run of letters or one of the brackets ``("[]", a, d, s, caps)`` of one
# arity, degree and power (one-factor words), and what follows is the rest.

def _split_words(key: tuple) -> Iterator[tuple]:
    if key[0] == "[]":
        _, a, d, s, caps = key
        yield ((a, d - s, 0, True, caps),), None, lambda core: (_close(_trusted(core), s),)
        return
    a, d, head, core, caps = key
    power_cap, run_cap = caps
    if a > run_cap * (2 * d + 1):
        return  # a word of degree d has at most 2d + 1 runs
    if head == 0:
        for r in range(1, min(a, run_cap) + 1):
            run = (_X,) * r
            if r < a:
                yield (), (a - r, d, 1, core, caps), lambda run=run: run.__add__
            elif d == 0:
                yield (), None, lambda run=run: run
        return
    for ba in range(1, a + 1):
        for bd in range(1, d + 1):
            last = (ba, bd) == (a, d)
            top = 1 if last and core else min(bd, power_cap)
            for s in range(1, top + 1):
                if last:
                    yield (("[]", ba, bd, s, caps),), None, _itself
                else:
                    yield (("[]", ba, bd, s, caps),), (a - ba, d - bd, 0, core, caps), _prefix


WORDS = Family(_split_words)


def iter_averaging_words(max_arity: int, max_degree: int) -> Iterator[AveragingWord]:
    """Every averaging word over ``x`` within the given arity/degree bounds."""
    caps = (math.inf, math.inf)
    for a in range(1, max_arity + 1):
        for d in range(0, max_degree + 1):
            for head in (0, 1):
                for factors in WORDS.walk((a, d, head, False, caps)):
                    yield _normal(_trusted(factors))


# ---------------------------------------------------------------------------
# Random generation (seeded; used heavily by the test suite)

def random_averaging_word(rng, alphabet: Sequence[str] = ("x", "y"),
                          max_depth: int = 4, max_run: int = 2) -> AveragingWord:
    """A random averaging word of degree (hence depth) <= ``max_depth`` with
    runs of at most ``max_run`` letters: a degree ``d`` uniform in ``0 ..
    max_depth``, a word uniform among those of degree ``d`` over ``x`` (drawn
    by :meth:`Family.draw`), and each letter uniform from ``alphabet``."""
    letters = [Letter(symbol) for symbol in alphabet]
    if not letters or max_depth < 0 or max_run < 1:
        raise InputError("random_averaging_word needs a nonempty alphabet, max_depth >= 0"
                         " and max_run >= 1")
    d = rng.randint(0, max_depth)
    # a word of degree d has at most 2d + 1 runs
    caps = (math.inf, max_run)
    families = [(a, d, head, False, caps) for a in range(1, max_run * (2 * d + 1) + 1)
                for head in (0, 1)]
    shape = _trusted(WORDS.draw(rng, families))
    return _normal(substitute_letters(shape, lambda _: (rng.choice(letters),)))


# ---------------------------------------------------------------------------
# Word generation under the idempotent convention

def _cell_factors(cap: Cap, n: int, m: int) -> Iterator[tuple]:
    """Factor tuples of the words of degree n and arity m, in generation
    order, walked one at a time.  At power 1 no word ends in a bracket of
    power >= 2, so the families are named as cores, whose counts the
    brackets' cores share."""
    caps = (1, cap)
    return chain(WORDS.walk((m, n, 0, True, caps)), WORDS.walk((m, n, 1, True, caps)))


def _canonical(found) -> tuple:
    """Factor tuples as words, in canonical (rendered) order."""
    return tuple(sorted(map(_trusted, found), key=render_word))


def averaging_words_v(run_cap: Cap, n: int, m: int) -> tuple:
    """The words of degree n and arity m, canonical order (no trivial word)."""
    return _canonical(_cell_factors(_check_cap(run_cap), n, m))


def indecomposable_words_v(run_cap: Cap, n: int, m: int = -1) -> tuple:
    """Indecomposable words of degree n (all arities when m is omitted).

    Omitting the arity needs a finite run cap, since an indecomposable word
    of degree n has at most 2n - 1 runs of at most cap letters each.
    """
    cap = _check_cap(run_cap)
    if m < 0 and cap == math.inf:
        raise InputError("an explicit arity is required when the run cap is infinite")
    arities = [m] if m >= 0 else range(1, int(cap) * max(2 * n - 1, 1) + 1)
    out = []
    for mm in arities:
        out.extend(_canonical(WORDS.walk(("[]", mm, n, 1, (1, cap)))))
    return tuple(out)


# ---------------------------------------------------------------------------
# The census

def census(run_cap: Cap, max_degree: int, max_arity: int, include_one: bool = False,
           list_words: bool = False, budget: int = DEFAULT_BUDGET) -> Census:
    """Exhaustively generate and count the idempotent-convention words.

    The trivial word contributes 1 at cell (0, 0) when ``include_one`` is
    set.  Raises :class:`BudgetExceeded` when the total number of words to
    generate, predicted by :func:`reduce_to_v1`, would exceed ``budget``.
    Every cell is checked against that prediction.
    """
    cap = _check_cap(run_cap)
    _check_sizes(max_degree, max_arity)
    # At cap 1, x is the one word of degree 0, and the 2 s_n words of degree
    # n >= 1 have arity at most 2n + 1.  Every cap keeps them, so those that
    # fit the box bound the census from below before the series is solved,
    # and count it exactly when the cap is 1 and every degree fits.  Past the
    # budget the sum stops at degree 128 (under 1 ms), so a refusal does not
    # cost what the box does: degree 3200 alone takes 40 s.
    top = min(max_degree, (max_arity - 1) // 2)
    held, summed = int(top >= 0), 0
    numbers = itertools.islice(iter_schroeder_numbers(), 1, None)
    while summed < top and not (held > budget and summed >= 128):
        summed += 1
        held += 2 * next(numbers)
    if held > budget:
        at_least = "" if cap == 1 and summed == max_degree else "at least "
        raise BudgetExceeded(f"census would generate {at_least}{held} words (budget {budget})")
    cells = [(n, m) for n in range(max_degree + 1) for m in range(1, max_arity + 1)]
    expected = reduce_to_v1(cap, max_degree, max_arity, include_one=False)
    predicted = sum(expected.counts.values())
    if predicted > budget:
        raise BudgetExceeded(
            f"census would generate {predicted} words (budget {budget})"
        )

    tables = {name: {} for name in "abcdi"}
    words = {} if list_words else None
    for n, m in cells:
        a = b = i = 0
        texts = [] if words is not None else None
        for f in _cell_factors(cap, n, m):
            a += 1
            if type(f[-1]) is Bracket and type(f[0]) is Bracket:
                b += 1
                i += len(f) == 1
            if texts is not None:
                texts.append(render_word(_trusted(f)))
        if a != expected.count(n, m):
            raise AssertionError(
                f"census generated {a} words of degree {n} and arity {m},"
                f" the series predicts {expected.count(n, m)}"
            )
        for name, count in zip("abcdi", (a, b, a - b, b - i, i)):
            if count:
                tables[name][(n, m)] = count
        if texts:
            words[(n, m)] = tuple(sorted(texts))
    if include_one:
        tables["a"][(0, 0)] = 1

    def table(name: str, with_one: bool = False) -> CountTable:
        return CountTable(tables[name], cap, with_one, max_degree, max_arity)

    return Census(
        a=table("a", include_one),
        b=table("b"),
        c=table("c"),
        d=table("d"),
        i=table("i"),
        words=words,
    )


# ---------------------------------------------------------------------------
# Run collapse: the bijection behind the run-cap reduction

# A maximal run of letters: the renderer puts one space between two adjacent
# letters and nowhere else.  Compiled on first use, which the census is not.
_RUN = rf"{_IDENT_RE.pattern}(?: {_IDENT_RE.pattern})*"


def collapse_runs(w: Union[BracketedWord, AveragingWord]) -> tuple:
    """Replace each maximal x-run by a single x; return (collapsed, run lengths).

    Runs are read left to right in the text, and never span a bracket
    boundary; a run of mixed letters keeps its last one.  Together with the
    composition the collapsed word determines the original uniquely.
    """
    lengths = []

    def last(run) -> str:
        letters = run.group().split(" ")
        lengths.append(len(letters))
        return letters[-1]

    return parse_word(re.sub(_RUN, last, render_word(w))), tuple(lengths)


def expand_runs(w: Union[BracketedWord, AveragingWord], parts: Sequence[int]) -> BracketedWord:
    """Inverse of :func:`collapse_runs`: the i-th letter becomes a run."""
    w = raw(w)
    parts = list(parts)
    if any(p < 1 for p in parts):
        raise InputError("run lengths must be positive")
    it = iter(parts)

    def run(f: Letter) -> tuple:
        try:
            return (f,) * next(it)
        except StopIteration:
            raise InputError("composition has fewer parts than letters") from None

    out = substitute_letters(w, run)
    if next(it, None) is not None:
        raise InputError("composition has more parts than letters")
    return out
