"""Laws on averaging words drawn uniformly past the enumerated sizes.

The enumerations stop near size 12 and ``random_averaging_word`` is biased
towards its own shapes.  Here a word of degree 20-30 is drawn uniformly
among all averaging words over ``x`` of its arity and degree: a rank below
their number picks it, and ``words._unrank_family`` builds it by descending
through the memoised counts, never through the family itself.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from avalg.algebra import apply_p, diamond, reduce, rewrite_reduce
from avalg.trees import phi, phi_inverse, psi, psi_inverse
from avalg.words import (
    AveragingWord,
    Bracket,
    _count_family,
    _trusted,
    _unrank_family,
    arity,
    degree,
    word,
)

CAPS = (math.inf, math.inf)  # the grammar of iter_averaging_words
IDEMPOTENT = (1, 1)  # powers 1 and runs of one letter: the words psi takes
_LAWS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def uniform_words(draw, degrees=(20, 30), arities=(1, 10)):
    """An averaging word of a drawn degree and arity, uniform among them."""
    d, a = draw(st.integers(*degrees)), draw(st.integers(*arities))
    head_0 = _count_family((a, d, 0, False), CAPS)
    # hypothesis leans towards the ends of a range, a seeded RNG does not
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rank = rng.randrange(head_0 + _count_family((a, d, 1, False), CAPS))
    if rank < head_0:
        factors = _unrank_family((a, d, 0, False), CAPS, rank)
    else:
        factors = _unrank_family((a, d, 1, False), CAPS, rank - head_0)
    w = AveragingWord(_trusted(factors))  # scanned, so a wrong rank path shows
    assert (degree(w.word), arity(w.word)) == (d, a)
    return w


@st.composite
def uniform_indecomposable_words(draw, degrees=(20, 30)):
    """A word ``[u]`` of a drawn degree with powers 1 and runs of one letter,
    uniform among them: the core ``u`` is unranked across all arities."""
    d = draw(st.integers(*degrees))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # a core of degree d - 1 has at most 2(d - 1) + 1 letters
    counts = [_count_family((a, d - 1, 0, True), IDEMPOTENT) for a in range(1, 2 * d)]
    rank = rng.randrange(sum(counts))
    for a, count in enumerate(counts, 1):
        if rank < count:
            break
        rank -= count
    core = _unrank_family((a, d - 1, 0, True), IDEMPOTENT, rank)
    w = AveragingWord(word(Bracket(_trusted(core))))
    assert (degree(w.word), arity(w.word)) == (d, a)
    return w


@_LAWS
@given(uniform_words(), uniform_words(), uniform_words())
def test_diamond_is_associative(u, v, w):
    assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w))


@_LAWS
@given(uniform_words(), uniform_words())
def test_averaging_identity(u, v):
    pu, pv = apply_p(u), apply_p(v)
    assert diamond(pu, pv) == apply_p(diamond(u, pv)) == apply_p(diamond(pu, v))


@_LAWS
@given(uniform_words(), uniform_words())
def test_reduce_agrees_with_rewriting(u, v):
    # juxtaposed, bracketed side by side and bracket-headed, none normal
    # in general
    for unreduced in (
        word(*u.word.factors, *v.word.factors),
        word(Bracket(u.word), Bracket(v.word)),
        word(Bracket(word(Bracket(u.word), *v.word.factors))),
    ):
        assert reduce(unreduced) == rewrite_reduce(unreduced)


@_LAWS
@given(uniform_words())
def test_tree_bijection_round_trip(w):
    assert phi_inverse(phi(w)) == w


@_LAWS
@given(uniform_indecomposable_words())
def test_schroeder_bijection_round_trip(w):
    assert psi_inverse(psi(w)) == w
