"""Laws on members drawn uniformly past the enumerated sizes.

The enumerations stop near size 12, and ``random_averaging_word`` keeps to
degree 4 or so.  Here a word of degree 20-40 is drawn uniformly among all
averaging words over ``x`` of its arity and degree by ``_grammar.WORDS.draw``:
a rank below their number picks it, and the engine's ``unrank`` builds it by
descending through the memoised counts, never through the family itself.
Bracketed words of size 40-80, unreduced trees of 50-200 vertices and
Schroeder trees of 50-200 omegas are drawn the same way.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from avalg.algebra import apply_p, diamond, reduce, rewrite_reduce, universal_map
from avalg.instances import standard_fixtures
from avalg.operad import compose
from avalg.trees import (AveragingTree, SLeaf, SNode, is_averaging_tree, leaf_count, phi,
                         phi_inverse, psi, psi_inverse, uni_count)
from avalg._families import BRACKETED, UNREDUCED
from avalg._engine import Family, _prefix
from avalg._grammar import WORDS
from avalg.words import (AveragingWord, Bracket, Letter, _trusted, arity, degree,
                         substitute_letters, word, word_size)
from test_algebra import universal_map_by_definition
from test_trees import averaging_by_definition, word_by_definition

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
    factors = WORDS.draw(rng, [(a, d, 0, False, CAPS), (a, d, 1, False, CAPS)])
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
    core = WORDS.draw(rng, [(a, d - 1, 0, True, IDEMPOTENT) for a in range(1, 2 * d)])
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


@st.composite
def uniform_bracketed_words(draw, sizes=(40, 80)):
    """A canonical bracketed word of a drawn size, uniform among those over
    ``x``, then each letter x or y."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = rng.randint(*sizes)
    shape = _trusted(BRACKETED.draw(rng, [("word", size)]))
    assert word_size(shape) == size
    return substitute_letters(shape, lambda _: (Letter(rng.choice("xy")),))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(uniform_bracketed_words())
def test_reduce_agrees_with_rewriting_on_uniform_bracketed_words(w):
    assert reduce(w) == rewrite_reduce(w)


@st.composite
def uniform_unreduced_trees(draw):
    """An unreduced tree of 50-200 vertices, uniform among those of its
    drawn numbers of leaves and uni-vertices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    leaves, unis = rng.randint(25, 99), rng.randint(1, 3)
    t = UNREDUCED.draw(rng, [(leaves, unis)])
    assert (leaf_count(t), uni_count(t)) == (leaves, unis)
    return t


@_LAWS
@given(uniform_unreduced_trees())
def test_averaging_trees_agree_with_their_definition_on_uniform_trees(t):
    assert is_averaging_tree(t) == averaging_by_definition(t)
    w = word_by_definition(t)
    if is_averaging_tree(t):
        assert phi_inverse(AveragingTree(t)).word == w
    v = reduce(w)  # its normal form, whose tree is an averaging tree
    assert phi_inverse(phi(v)) == v


# The Schroeder trees declared as sequences of subtrees, by the size of the
# first: the same family as ``enumerate_schroeder``'s in another order, with
# O(n^2) branches where the declaration that keeps that order has one per
# composition of n - 1.
IOTA, OMEGA = SLeaf("iota"), SLeaf("omega")


def _split_schroeder_sequences(key):
    if key == "tail":
        yield (), None, lambda: ()
        yield (), None, lambda: (IOTA,)
    elif key[0] == "tree":
        n = key[1]
        if n == 1:
            yield (), None, lambda: OMEGA
        else:
            yield (("seq", n - 1), "tail"), None, lambda seq, tail: SNode(seq + tail)
    else:
        m = key[1]
        for p in range(1, m):
            yield (("tree", p),), ("seq", m - p), lambda t: _prefix((IOTA, t))
        yield (("tree", m),), None, lambda t: (IOTA, t)


SCHROEDER_SEQUENCES = Family(_split_schroeder_sequences)


@_LAWS
@given(st.integers(0, 2**32 - 1))
def test_schroeder_bijection_round_trip_on_uniform_trees(seed):
    rng = random.Random(seed)
    n = rng.randint(50, 200)
    t = SCHROEDER_SEQUENCES.draw(rng, [("tree", n)])
    w = psi_inverse(t)
    assert degree(w.word) == n and psi(w) == t
