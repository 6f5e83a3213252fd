"""Seeded draws and the exhaustive order, pinned by digest.

The benchmark's inputs come from the random generators, each called in the
form below with a seeded ``random.Random``, so a change to a sampler or to
the counting grammar behind it must leave every draw as it was.  Each
digest is the SHA-256 of 10,000 rendered draws, one per line, from one
seed.  The exhaustive families are pinned the same way, one rendered member
per line in the order they are walked.
"""

import hashlib
import random

import pytest

from avalg import trees, words
from avalg.algebra import random_lincomb
from avalg.trees import render_binary_tree, render_schroeder_tree
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


ORDERS = {
    "iter_bracketed_words(10)": (
        lambda: map(render_word, words.iter_bracketed_words(10)),
        "3c7826698f1d4414432f808354b758f75503dd748d4498194c811ea66e64d033"),
    "enumerate_unreduced(6, 4)": (
        lambda: map(render_binary_tree, trees.enumerate_unreduced(6, 4)),
        "0a7741b222bb3ea2eb34ce66ebdac61d843e819830a3e2985024386e07eef6a8"),
}
SCHROEDER = (
    "7427d152005f9ed0fa31c76ef9963cf4bb47dce6e2768111d9eb0edbfe59c704",
    "625c00f91d8f5f863d207361913c355be8e493260316944fb3c7abd6488b6a8a",
    "303349e5253dfb07f650aee729dd712a0ed7eef0208eb5986beee441f027c774",
    "ff6ca940935b5dc22998e45483338a66726b7c41edb2eb65e1877cab1b89e088",
    "fe2902d729e822453bc63015d119b6574a4b21473a3c83d8a15e397c432fe278",
    "1f8ca8acb8c935a833dab334d927a9844d242c91d7196929a88dd83a97b1188d",
    "d9d3d19393a19165279cffc9f1323919f204f28a75fbcbb1c61e9f9419853516",
    "c2c1750c4d70c59409accb77b24da7fa84c55d7631bf8ba21c5dff864db8fbfe",
    "91cf3ed2129e10f5a610edd5f281e1e17144166de64c1b3cc00987567a0998c7",
)
ORDERS.update((f"enumerate_schroeder({n})", (
    lambda n=n: map(render_schroeder_tree, trees.enumerate_schroeder(n)), pinned))
    for n, pinned in enumerate(SCHROEDER, 1))


@pytest.mark.parametrize("family", sorted(ORDERS))
def test_family_order_is_pinned(family):
    walk, pinned = ORDERS[family]
    assert digest(walk()) == pinned
