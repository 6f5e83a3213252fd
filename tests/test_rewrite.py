"""The rewrite oracle: its step counts, its depth range and its agreement with
``reduce`` past the sizes of the seeded tests, where it also checks the laws of
the product and the operator; the bijection and text round trips are
property-tested on the same words.

A word that needs ``s`` rewrites returns under ``budget=s`` and raises
``StepBudgetExceeded`` under ``budget=s-1``, so the budget boundary pins the
number of leftmost-redex steps each strategy takes.  ``golden/rewrite_steps.json``
holds the counts of the one-rewrite-per-scan engine that the resuming engine
replaced, for 200 seeded random words (seed 1401); they must not change.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalg.algebra import StepBudgetExceeded, apply_p, diamond, reduce, rewrite_reduce
from avalg.trees import phi, phi_inverse
from avalg.words import (
    Bracket,
    BracketedWord,
    Letter,
    bracket,
    parse_word,
    render_word,
    substitute_letters,
    word,
    word_size,
)

STRATEGIES = ("innermost", "outermost")
GOLDEN = json.loads((Path(__file__).parent / "golden" / "rewrite_steps.json").read_text())


def adjacent_text(n: int) -> str:
    return "[x]" * n


def r2_text(n: int) -> str:
    return "[" * n + "x" + "]x" * (n - 1) + "]"


def assert_steps(text: str, strategy: str, steps: int):
    w = parse_word(text)
    assert rewrite_reduce(w, strategy, budget=steps) == reduce(w)
    if steps:
        with pytest.raises(StepBudgetExceeded, match=f"within {steps - 1} steps"):
            rewrite_reduce(w, strategy, budget=steps - 1)


class TestStepCounts:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [2, 3, 4, 10, 25, 50])
    def test_adjacent_family(self, n, strategy):
        # [x]^n as n adjacent brackets: each new [x] walks down the chain
        assert_steps(adjacent_text(n), strategy, n * (n - 1) // 2)

    @pytest.mark.parametrize("n, innermost, outermost", [(3, 3, 2), (16, 120, 15), (32, 496, 31)])
    def test_bracket_headed_family(self, n, innermost, outermost):
        assert_steps(r2_text(n), "innermost", innermost)
        assert_steps(r2_text(n), "outermost", outermost)

    def test_counts_of_the_replaced_engine(self):
        assert len(GOLDEN) == 200
        for entry in GOLDEN:
            for strategy in STRATEGIES:
                assert_steps(entry["word"], strategy, entry[strategy])

    def test_budget_zero_accepts_normal_words_only(self):
        assert rewrite_reduce(parse_word("x[x[y]]"), budget=0) == reduce(parse_word("x[x[y]]"))
        with pytest.raises(StepBudgetExceeded, match="within 0 steps"):
            rewrite_reduce(parse_word("[x][y]"), budget=0)

    def test_default_budget_is_ten_size_squared(self, monkeypatch):
        # no word runs out of 10 * size^2 steps, so report a smaller size
        import avalg.algebra

        monkeypatch.setattr(avalg.algebra, "word_size", lambda w: 3)
        with pytest.raises(StepBudgetExceeded, match="within 90 steps"):
            rewrite_reduce(parse_word(adjacent_text(20)))  # 190 steps

    def test_word_size_at_any_depth(self):
        w = BracketedWord((Letter("x"),))
        for _ in range(5000):
            w = BracketedWord((Letter("x"), Bracket(w, 2)))
        assert word_size(w) == 15001


class TestEngine:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_normal_word_comes_back_uncopied(self, strategy):
        w = parse_word("[x[y]]^2x[y[x]]")
        assert rewrite_reduce(w, strategy).word is w

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_input_unchanged(self, strategy):
        b = Bracket(parse_word("[x][y]^2"), 2)
        w = BracketedWord((b, Letter("x"), b, b))
        before = render_word(w)
        assert rewrite_reduce(w, strategy) == reduce(w)
        assert render_word(w) == before

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            rewrite_reduce(parse_word("x"), "leftmost")


class TestDepth:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [600, 900])
    def test_deep_nesting(self, n, strategy):
        # dataclass == recurses per level, so compare the rendered text
        w = parse_word("[x" * n + "[x][x]" + "]" * n)
        assert render_word(rewrite_reduce(w, strategy)) == render_word(reduce(w))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deeper_than_the_recursion_limit(self, strategy):
        # x[x[...[x][x]...]] 1,500 levels deep, built without the recursive
        # parser; the result is certified by the iterative scan
        n, x = 1500, Letter("x")
        w = BracketedWord((Bracket(BracketedWord((x,))), Bracket(BracketedWord((x,)))))
        for _ in range(n):
            w = BracketedWord((x, Bracket(w)))
        expected = "x[" * n + "x[x]" + "]" * (n - 1) + "]^2"
        assert render_word(rewrite_reduce(w, strategy)) == expected

    def test_adjacent_400(self):
        # 79,800 steps; each costs O(1) amortised, so this takes well under 1 s
        w = parse_word(adjacent_text(400))
        expected = render_word(reduce(w))
        for strategy in STRATEGIES:
            assert render_word(rewrite_reduce(w, strategy, budget=79800)) == expected


# ---------------------------------------------------------------------------
# Properties, on words well past the seeded tests' max_size=14

def _word_of(tokens) -> BracketedWord:
    # 0, 1: a letter; 2, 3: open a bracket; 4, 5: close one, with power 1 or 3
    # (a close with nothing to close, or around nothing, is skipped)
    parts, filled = [], [False]
    for t in tokens:
        if t < 2:
            parts.append(" " + "xy"[t])
            filled[-1] = True
        elif t < 4:
            parts.append("[")
            filled.append(False)
        elif len(filled) > 1 and filled[-1]:
            parts.append("]" if t == 4 else "]^3")
            filled.pop()
            filled[-1] = True
    while len(filled) > 1:
        parts.append("]" if filled.pop() else "x]")
        filled[-1] = True
    return parse_word("".join(parts) or "x")


_words = st.lists(st.integers(0, 5), min_size=40, max_size=160).map(_word_of)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_words)
def test_rewrite_agrees_with_reduce(w):
    nf = reduce(w)
    for strategy in STRATEGIES:
        assert rewrite_reduce(w, strategy) == nf


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 200), st.sampled_from((adjacent_text, r2_text)))
def test_families_agree_with_reduce(n, family):
    w = parse_word(family(n))
    expected = render_word(reduce(w))
    for strategy in STRATEGIES:
        assert render_word(rewrite_reduce(w, strategy)) == expected


# reduce keeps the size (letters plus bracket pairs), so these normal forms
# have size about 30-140
_normal_words = _words.map(reduce)
_x_words = _words.map(lambda w: reduce(substitute_letters(w, lambda f: (Letter("x"),))))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_normal_words, _normal_words, _normal_words)
def test_diamond_is_associative(u, v, w):
    assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_normal_words, _normal_words)
def test_averaging_identities(u, v):
    # P(u)<>P(v) = P(u<>P(v)) = P(P(u)<>v), each side against the unreduced
    # word it stands for: [u][v], [u[v]] and [[u]v]
    pu, pv = apply_p(u), apply_p(v)
    sides = [
        (diamond(pu, pv), word(bracket(u), bracket(v))),
        (apply_p(diamond(u, pv)), word(bracket(word(*u.word.factors, bracket(v))))),
        (apply_p(diamond(pu, v)), word(bracket(word(bracket(u), *v.word.factors)))),
    ]
    for side, unreduced in sides:
        assert side == rewrite_reduce(unreduced)
    assert sides[0][0] == sides[1][0] == sides[2][0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_x_words)
def test_tree_bijection_round_trip(w):
    assert phi_inverse(phi(w)) == w


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_normal_words)
def test_text_round_trip(w):
    assert parse_word(render_word(w)) == w.word
