"""Seeded draws and the exhaustive order, pinned by digest.

The benchmark's inputs come from the random generators, each called in the
form below with a seeded ``random.Random``, so a change to a sampler or to
the counting grammar behind it must leave every draw as it was.  Each
digest is the SHA-256 of 10,000 rendered draws, one per line, from one
seed; the last one covers the order of ``iter_averaging_words(6, 4)``.
"""

import hashlib
import random

import pytest

from avalg import words
from avalg.algebra import random_lincomb
from avalg.words import render_word

DRAWS = 10_000

CALLS = {
    "random_bracketed_word(rng, max_size=40)":
        lambda rng: render_word(words.random_bracketed_word(rng, max_size=40)),
    "random_bracketed_word(rng, max_size=16)":
        lambda rng: render_word(words.random_bracketed_word(rng, max_size=16)),
    "random_averaging_word(rng)":
        lambda rng: render_word(words.random_averaging_word(rng)),
    "random_averaging_word(rng, ('x',), max_depth=3)":
        lambda rng: render_word(words.random_averaging_word(rng, ("x",), max_depth=3)),
    "random_lincomb(rng)": lambda rng: str(random_lincomb(rng)),
}

PINNED = {
    ("random_bracketed_word(rng, max_size=40)", 0):
        "986abe3976a0c0cdcc3c48764d4f903b16fbb96c7eec146f4d67647e0f3da40e",
    ("random_bracketed_word(rng, max_size=40)", 1):
        "bf841205deadab5141e0fac898cb71f6e21fc48238afe50ce05d6356020c9891",
    ("random_bracketed_word(rng, max_size=16)", 0):
        "3114828515f11db89d87b1cdcbc9192f4f1c2efc0b2d735ff9f9760d24092bbf",
    ("random_bracketed_word(rng, max_size=16)", 1):
        "c37394770b69bc7ea66e7e819c7df33eeb24c898c0bf7a2115a14d5745048b90",
    ("random_averaging_word(rng)", 0):
        "cedd74866abe79aefd57b7ab16ce0e79fbe77362d852391f95a5c9e12df203db",
    ("random_averaging_word(rng)", 1):
        "cadff719ebf42f76432d24ee8b90d6ab2ecb63588399fe53c53b1d3c0217bf54",
    ("random_averaging_word(rng, ('x',), max_depth=3)", 0):
        "c071478f0a43ad672fab11c40402e233ce02016b18b1ccfad54be3f1c4624c79",
    ("random_averaging_word(rng, ('x',), max_depth=3)", 1):
        "61a7b496a5b610a99b365a3b876656a3062fb951728b3c7d54ed96f71b9f5a8e",
    ("random_lincomb(rng)", 0):
        "6cc0f75da644cd9ef68f069616c791c97e8510fc69221c7f4356e079420e0f3a",
    ("random_lincomb(rng)", 1):
        "148c42aaa015166a4b3e44bdb42fe7eddf49704a0eba8ed8774395cbbde874c0",
}


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("call, seed", sorted(PINNED))
def test_seeded_draws_are_pinned(call, seed):
    rng = random.Random(seed)
    draw = CALLS[call]
    assert digest(draw(rng) for _ in range(DRAWS)) == PINNED[call, seed]


def test_exhaustive_order_is_pinned():
    assert digest(map(render_word, words.iter_averaging_words(6, 4))) == (
        "7dba9199cc0078d5946790207298cf5b73eab6a3085f949dc45955c055768510")
