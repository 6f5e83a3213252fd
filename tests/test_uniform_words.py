"""Laws on averaging words drawn uniformly past the enumerated sizes.

The enumerations stop near size 12, and ``random_averaging_word`` keeps to
degree 4 or so.  Here a word of degree 20-40 is drawn uniformly among all
averaging words over ``x`` of its arity and degree by ``_grammar._draw``: a
rank below their number picks it, and ``_grammar._unrank_family`` builds it by
descending through the memoised counts, never through the family itself.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from avalg.algebra import apply_p, diamond, reduce, rewrite_reduce, universal_map
from avalg.instances import standard_fixtures
from avalg.operad import compose
from avalg.trees import phi, phi_inverse, psi, psi_inverse
from avalg._grammar import _draw
from avalg.words import AveragingWord, Bracket, _trusted, arity, degree, word
from test_algebra import universal_map_by_definition

CAPS = (math.inf, math.inf)  # the grammar of iter_averaging_words
IDEMPOTENT = (1, 1)  # powers 1 and runs of one letter: the words psi takes
FIXTURES = standard_fixtures()
_LAWS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def uniform_words(draw, degrees=(20, 30), arities=(1, 10)):
    """An averaging word of a drawn degree and arity, uniform among them."""
    d, a = draw(st.integers(*degrees)), draw(st.integers(*arities))
    # hypothesis leans towards the ends of a range, a seeded RNG does not
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    factors = _draw(rng, [(a, d, 0, False), (a, d, 1, False)], CAPS)
    w = AveragingWord(_trusted(factors))  # scanned, so a wrong rank path shows
    assert (degree(w.word), arity(w.word)) == (d, a)
    return w


@st.composite
def uniform_indecomposable_words(draw, degrees=(20, 30)):
    """A word ``[u]`` of a drawn degree with powers 1 and runs of one letter,
    uniform among them: the core ``u`` is drawn across all arities."""
    d = draw(st.integers(*degrees))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # a core of degree d - 1 has at most 2(d - 1) + 1 letters
    core = _draw(rng, [(a, d - 1, 0, True) for a in range(1, 2 * d)], IDEMPOTENT)
    w = AveragingWord(word(Bracket(_trusted(core))))
    assert degree(w.word) == d
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


@_LAWS
@given(uniform_words(degrees=(20, 40)), st.lists(st.integers(-2, 2), min_size=8, max_size=8))
def test_universal_map_agrees_with_its_definition(w, entries):
    for name, target in sorted(FIXTURES.items()):
        assignment = {"x": target.element(entries[:target.dim])}
        expected = universal_map_by_definition(assignment, target, w)
        assert universal_map(assignment, target, w) == expected, name


@_LAWS
@given(uniform_words(degrees=(20, 40)), uniform_words(degrees=(20, 40)),
       uniform_words(degrees=(20, 40)), st.data())
def test_operad_sequential_axiom(u, v, w, data):
    lam, mu, nu = phi(u), phi(v), phi(w)
    i = data.draw(st.integers(1, lam.arity))
    j = data.draw(st.integers(1, mu.arity))
    assert compose(compose(lam, i, mu), i - 1 + j, nu) == compose(lam, i, compose(mu, j, nu))


@_LAWS
@given(uniform_words(degrees=(20, 40), arities=(2, 10)), uniform_words(degrees=(20, 40)),
       uniform_words(degrees=(20, 40)), st.data())
def test_operad_parallel_axiom(u, v, w, data):
    lam, mu, nu = phi(u), phi(v), phi(w)
    i = data.draw(st.integers(1, lam.arity - 1))
    k = data.draw(st.integers(i + 1, lam.arity))
    assert compose(compose(lam, i, mu), k - 1 + mu.arity, nu) == compose(compose(lam, k, nu), i, mu)
