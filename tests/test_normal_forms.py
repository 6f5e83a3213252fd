"""Outputs that are normal by construction, checked by an independent scan.

The product, the operator, reduction, the tree bijections, ``peel``, the
word enumeration and operad composition wrap their results as averaging
words without scanning them again.  Each test here scans those outputs with
``validate_averaging`` on the plain word, so a construction that breaks
normality fails.  ``reduce`` on seeded random words is checked against the
scanning oracle ``rewrite_reduce`` in ``test_algebra.py``; here it is
scanned on hypothesis words and the deep and long families.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalg.algebra import apply_p, diamond, reduce
from avalg.operad import compose
from avalg.trees import enumerate_schroeder, phi, phi_inverse, psi_inverse
from avalg.words import (
    AveragingWord,
    Bracket,
    BracketedWord,
    Letter,
    iter_averaging_words,
    parse_word,
    peel,
    random_bracketed_word,
    raw,
    render_word,
    validate_averaging,
)

WORDS = list(iter_averaging_words(5, 3))
DEEP_AND_LONG = ("[x]" * 200, "x[x]" * 200)


def assert_normal(out):
    assert isinstance(out, AveragingWord)
    scanned = validate_averaging(raw(out))
    assert isinstance(scanned, AveragingWord), f"{render_word(out)}: {scanned}"


def assert_peel_normal(w):
    if len(raw(w).factors) == 1 and isinstance(raw(w).factors[0], Bracket):
        assert_normal(peel(w)[0])


def check_tree_outputs(w):
    """``phi_inverse`` of ``w``'s tree, and a few compositions with it."""
    t = phi(w)
    assert_normal(phi_inverse(t))
    for index in sorted({1, (t.arity + 1) // 2, t.arity}):
        assert_normal(phi_inverse(compose(t, index, t)))


def as_word(factors):
    return BracketedWord(tuple(factors))


def words_over(alphabet):
    """Bracketed words of up to 12 letters, not necessarily averaging."""
    letters = st.sampled_from(alphabet).map(Letter)

    def factors(inner):
        return st.one_of(letters, st.builds(Bracket, inner, st.integers(1, 3)))

    return st.recursive(
        st.lists(letters, min_size=1, max_size=3).map(as_word),
        lambda inner: st.lists(factors(inner), min_size=1, max_size=4).map(as_word),
        max_leaves=12,
    )


class TestEnumeratedWords:
    def test_enumeration_and_peel(self):
        for w in WORDS:
            assert_normal(w)
            assert_peel_normal(w)

    def test_every_product(self):
        for u in WORDS:
            for v in WORDS:
                assert_normal(diamond(u, v))

    def test_operator(self):
        for w in WORDS:
            p = apply_p(w)
            assert_normal(p)
            assert_peel_normal(p)

    def test_tree_bijection_and_composition(self):
        for w in WORDS:
            assert_normal(phi_inverse(phi(w)))
        rng = random.Random(3)
        trees = [phi(w) for w in WORDS]
        for _ in range(1500):
            tau, sigma = rng.choice(trees), rng.choice(trees)
            index = rng.randint(1, tau.arity)
            assert_normal(phi_inverse(compose(tau, index, sigma)))

    def test_schroeder_bijection(self):
        for n in range(1, 7):
            for t in enumerate_schroeder(n):
                w = psi_inverse(t)
                assert_normal(w)
                assert_peel_normal(w)


class TestRandomWords:
    def test_seeded_products_and_operator(self):
        rng = random.Random(17)
        for _ in range(1500):
            u = reduce(random_bracketed_word(rng, max_size=14))
            v = reduce(random_bracketed_word(rng, max_size=14))
            assert_normal(diamond(u, v))
            assert_normal(apply_p(u))
            assert_peel_normal(apply_p(u))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(words_over("xy"), words_over("xy"))
    def test_any_word_pair(self, u, v):
        ru, rv = reduce(u), reduce(v)
        assert_normal(ru)
        assert_normal(diamond(ru, rv))
        assert_normal(apply_p(ru))
        assert_normal(apply_p(diamond(rv, ru)))
        assert_peel_normal(apply_p(ru))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(words_over("x"))
    def test_any_word_as_a_tree(self, w):
        check_tree_outputs(reduce(w))


@pytest.mark.parametrize("text", DEEP_AND_LONG, ids=("nested", "long"))
def test_deep_and_long_words(text):
    w = reduce(parse_word(text))
    assert_normal(w)
    assert_normal(diamond(w, w))
    p = apply_p(w)
    assert_normal(p)
    assert_peel_normal(p)
    assert_normal(apply_p(p))
    check_tree_outputs(w)
