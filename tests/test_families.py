"""The engine ``avalg._engine.Family`` on every family declared in it.

Each family is declared once, by its case split, and the engine derives its
count, its walk, its unranking and its uniform draw from that split; so on
every family up to small sizes the count is the length of the walk, the
member at rank r is the r-th one walked, and each rank below the summed
counts draws the member at that place of the walks one after another.
"""

import math

import pytest

from avalg._families import BRACKETED, SCHROEDER, UNREDUCED
from avalg._grammar import WORDS
from test_words import FixedRank

CAPS = [(math.inf, math.inf), (1, 1), (1, 2), (2, math.inf)]

FAMILIES = {
    "averaging words": (WORDS, [(a, d, head, core, caps) for caps in CAPS
                                for a in range(1, 6) for d in range(4)
                                for head in (0, 1) for core in (False, True)]),
    "averaging brackets": (WORDS, [("[]", a, d, s, caps) for caps in CAPS
                                   for a in range(1, 5) for d in range(1, 4)
                                   for s in range(1, d + 1)]),
    "bracketed words": (BRACKETED, [(kind, size) for kind in ("word", "core", "factor")
                                    for size in range(1, 8)]),
    "unreduced trees": (UNREDUCED, [(leaves, unis) for leaves in range(1, 5)
                                    for unis in range(4)]),
    "Schroeder trees": (SCHROEDER, [*range(7), "tail"]),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_count_walk_and_unrank_agree(name):
    family, keys = FAMILIES[name]
    for key in keys:
        walked = list(family.walk(key))
        assert family.count(key) == len(walked), key
        assert [family.unrank(key, r) for r in range(len(walked))] == walked, key
        with pytest.raises(IndexError):
            family.unrank(key, len(walked))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_draw_ranks_the_families_in_turn(name):
    family, keys = FAMILIES[name]
    keys = [key for key in keys if family.count(key)][:12]
    walked = [m for key in keys for m in family.walk(key)]
    assert [family.draw(FixedRank(r, len(walked)), keys) for r in range(len(walked))] == walked


@pytest.mark.parametrize("family, key, heads, rests", [
    (BRACKETED, ("word", 9), [("factor", 8)], [("word", 8), ("factor", 9)]),
    (UNREDUCED, (4, 3), [(4, 2), (3, 3), (1, 0)], []),
    (SCHROEDER, 7, [6, "tail"], []),
])
def test_a_walk_holds_the_heads_not_the_family_walked(family, key, heads, rests):
    # a head stands inside many members, so it is held; a rest (the words
    # after a first factor, or a lone factor) is walked again under each
    # choice of heads
    family.cache_clear()
    assert sum(1 for _ in family.walk(key)) == family.count(key)
    assert [k in family._groups for k in (key, *heads, *rests)] == (
        [False] + [True] * len(heads) + [False] * len(rests))
    family.cache_clear()
    assert not family._groups and family.count.cache_info().currsize == 0
