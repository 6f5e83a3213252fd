import math

import pytest

from avalg.enumeration import (
    BudgetExceeded,
    averaging_words_v,
    census,
    closed_form,
    collapse_runs,
    compositions,
    count_compositions,
    expand_runs,
    indecomposable_recursion,
    indecomposable_words_v,
    reduce_to_v1,
    schroeder,
    schroeder_sequence,
    series,
    series_value,
    univariate,
)
from avalg.words import (
    AveragingWord,
    Bracket,
    arity,
    degree,
    iter_bracketed_words,
    parse_word,
    render_word,
    validate_averaging,
)


def _gf_coefficient(m, k, cap):
    """[t^m] of (t + t^2 + ... + t^cap)^k, the composition series; independent oracle."""
    poly = {0: 1}
    top = m if cap == math.inf else min(int(cap), m)
    for _ in range(k):
        nxt = {}
        for e, c in poly.items():
            for part in range(1, top + 1):
                if e + part <= m:
                    nxt[e + part] = nxt.get(e + part, 0) + c
        poly = nxt
    return poly.get(m, 0)


class TestCompositions:
    def test_unrestricted_pair(self):
        assert set(compositions(3, 2)) == {(1, 2), (2, 1)}

    def test_cap_one_unique(self):
        for k in range(1, 6):
            assert compositions(k, k, 1) == ((1,) * k,)

    def test_cap_excludes_large_parts(self):
        assert compositions(4, 2, 2) == ((2, 2),)

    def test_counts_match_generating_function(self):
        for cap in (1, 2, 3, math.inf):
            for m in range(1, 9):
                for k in range(1, m + 1):
                    assert count_compositions(m, k, cap) == _gf_coefficient(m, k, cap)

    def test_parts_obey_cap_and_sum(self):
        for parts in compositions(7, 3, 3):
            assert sum(parts) == 7
            assert all(1 <= p <= 3 for p in parts)


KNOWN_SMALL_CELLS = {
    # (n, m): (a, c, b, i, d)
    (0, 0): (1, 0, 0, 0, 0),   # with the trivial word included
    (0, 1): (1, 1, 0, 0, 0),
    (1, 1): (1, 0, 1, 1, 0),
    (1, 2): (2, 2, 0, 0, 0),
    (1, 3): (1, 1, 0, 0, 0),
    (0, 2): (0, 0, 0, 0, 0),
    (1, 4): (0, 0, 0, 0, 0),
    (2, 1): (0, 0, 0, 0, 0),
    (2, 2): (1, 0, 1, 1, 0),
    # [x[x]x], [x]x[x], x[x[x]], [x[x]]x
    (2, 3): (4, 2, 2, 1, 1),
}


class TestCensus:
    def test_initial_values_table(self):
        result = census(1, 3, 8, include_one=True)
        for (n, m), (a, c, b, i, d) in KNOWN_SMALL_CELLS.items():
            got = (
                result.a.count(n, m),
                result.c.count(n, m),
                result.b.count(n, m),
                result.i.count(n, m),
                result.d.count(n, m),
            )
            assert got == (a, c, b, i, d), f"cell ({n},{m})"

    def test_degree_one_words(self):
        words = [
            render_word(w)
            for m in range(1, 4)
            for w in averaging_words_v(1, 1, m)
        ]
        assert sorted(words) == sorted(["[x]", "x[x]", "[x]x", "x[x]x"])

    def test_degree_zero_with_one(self):
        result = census(1, 2, 5, include_one=True)
        assert result.a.degree_total(0) == 2  # the trivial word and x

    def test_degree_two_indecomposables(self):
        words = [render_word(w) for w in indecomposable_words_v(1, 2)]
        assert words == ["[x[x]]", "[x[x]x]"]

    def test_generated_words_satisfy_convention(self):
        for cap in (1, 2, math.inf):
            result = census(cap, 3, 7, list_words=True)
            for (n, m), words in result.words.items():
                assert len(set(words)) == len(words)
                for w in words:
                    assert degree(w) == n and arity(w) == m
                    assert isinstance(validate_averaging(w), AveragingWord)
                    _, runs = collapse_runs(w)
                    assert all(r <= (cap if cap != math.inf else r) for r in runs)
                    assert "^" not in render_word(w)  # powers all 1

    @pytest.mark.parametrize("cap", [1, 2, math.inf])
    def test_listed_words_are_the_canonical_cells(self, cap):
        # census counts unsorted and sorts only the words it lists; each
        # listed cell must be averaging_words_v's cell, in the same order
        result = census(cap, 4, 9, list_words=True)
        for n in range(5):
            for m in range(1, 10):
                listed = result.words.get((n, m), ())
                assert listed == averaging_words_v(cap, n, m), (n, m)
                assert len(listed) == result.a.count(n, m)
                texts = [render_word(w) for w in listed]
                assert texts == sorted(texts)

    def test_census_agrees_with_validator_filter(self):
        # independent route: every bracketed word of size <= 10 that the
        # validator accepts, with powers 1, classified by its end factors
        accepted = [
            w
            for w in iter_bracketed_words(10)
            if "^" not in render_word(w) and degree(w) <= 3 and arity(w) <= 7
            and isinstance(validate_averaging(w), AveragingWord)
        ]
        for cap in (1, 2, math.inf):
            result = census(cap, 3, 7)
            by_filter = {}
            for w in accepted:
                _, runs = collapse_runs(w)
                if any(r > cap for r in runs):
                    continue
                bracketed = all(isinstance(f, Bracket) for f in (w.factors[0], w.factors[-1]))
                if not bracketed:
                    kinds = "ac"
                elif len(w.factors) == 1:
                    kinds = "abi"
                else:
                    kinds = "abd"
                for kind in kinds:
                    key = (kind, degree(w), arity(w))
                    by_filter[key] = by_filter.get(key, 0) + 1
            for kind in "abcdi":
                table = getattr(result, kind)
                for n in range(4):
                    for m in range(1, 8):
                        got = table.count(n, m)
                        assert got == by_filter.get((kind, n, m), 0), (cap, kind, n, m)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            census(1, 6, 13, budget=100)


class TestCollapse:
    def test_simple_collapse(self):
        collapsed, comp = collapse_runs(parse_word("x x[x]"))
        assert render_word(collapsed) == "x[x]"
        assert comp == (2, 1)

    def test_already_run_free(self):
        collapsed, comp = collapse_runs(parse_word("x[x]x"))
        assert render_word(collapsed) == "x[x]x"
        assert comp == (1, 1, 1)

    def test_expand_reconstructs(self):
        assert render_word(expand_runs(parse_word("x[x]"), (3, 1))) == "x x x[x]"

    def test_bijection_on_census_cells(self):
        for cap in (2, 3):
            result = census(cap, 2, 6, list_words=True)
            seen = set()
            for (n, m), words in result.words.items():
                for w in words:
                    collapsed, comp = collapse_runs(w)
                    # collapsed word lives in the cap-1 family with k runs
                    assert (degree(collapsed), arity(collapsed)) == (n, len(comp))
                    assert sum(comp) == m
                    assert all(1 <= p <= cap for p in comp)
                    key = (collapsed, comp)
                    assert key not in seen  # injectivity
                    seen.add(key)
                    assert expand_runs(collapsed, comp) == w

    def test_expansion_errors(self):
        with pytest.raises(ValueError):
            expand_runs(parse_word("x[x]"), (1,))
        with pytest.raises(ValueError):
            expand_runs(parse_word("x[x]"), (1, 1, 1))
        with pytest.raises(ValueError):
            expand_runs(parse_word("x"), (0,))


class TestSeries:
    def test_low_coefficients(self):
        s = series("I", 3, 7)
        assert s.coeff(1, 1) == 1
        assert s.coeff(2, 2) == 1  # [x[x]]
        assert s.coeff(2, 3) == 1  # [x[x]x]

    def test_full_table_matches_census(self):
        result = census(1, 5, 11, include_one=True)
        tables = {
            "A": result.a,
            "B": result.b,
            "C": result.c,
            "D": result.d,
            "I": result.i,
        }
        for kind, table in tables.items():
            s = series(kind, 5, 11)
            for n in range(6):
                for m in range(12):
                    assert s.coeff(n, m) == table.count(n, m), (kind, n, m)

    def test_univariate_sequences(self):
        assert univariate("A", 7) == [2, 4, 12, 44, 180, 788, 3612, 17116]
        assert univariate("I", 7) == [0, 1, 2, 6, 22, 90, 394, 1806]
        assert univariate("D", 7) == [0, 0, 1, 5, 23, 107, 509, 2473]

    def test_recurrence_web(self):
        result = census(1, 4, 10, include_one=True)
        a, b, c, d, i = result.a, result.b, result.c, result.d, result.i
        for n in range(1, 5):
            for m in range(2, 11):
                assert a.count(n, m) == b.count(n, m) + c.count(n, m)
                assert c.count(n, m) == 2 * b.count(n, m - 1) + b.count(n, m - 2)
                assert b.count(n, m) == i.count(n, m) + d.count(n, m)
                assert i.count(n, m) == c.count(n - 1, m) - b.count(n - 1, m - 1)
                assert i.count(n, m) == b.count(n - 1, m - 1) + b.count(n - 1, m - 2)

    def test_univariate_consequences(self):
        uc = univariate("C", 6)
        ub = univariate("B", 6)
        ui = univariate("I", 6)
        for n in range(1, 7):
            assert uc[n] == 3 * ub[n]
        for n in range(2, 7):
            assert ui[n] == 2 * ub[n - 1]

    def test_coefficients_are_integers(self):
        s = series("A", 6, 13)
        for n in range(7):
            for m in range(14):
                assert isinstance(s.coeff(n, m), int)
                assert s.coeff(n, m) >= 0

    def test_truncation_stability(self):
        # coefficients must not depend on the truncation order
        small = series("A", 5, 11)
        large = series("A", 9, 19)
        for n in range(6):
            for m in range(12):
                assert small.coeff(n, m) == large.coeff(n, m)


class TestSchroeder:
    def test_first_terms(self):
        assert schroeder_sequence(8) == [1, 2, 6, 22, 90, 394, 1806, 8558]

    def test_unrolled_s1(self):
        # j = 1, single composition (1), contributes 2 * s_0
        assert schroeder(1) == 2 * schroeder(0) == 2

    def test_three_term_recurrence_to_300(self):
        # A006318: (n + 1) s_n = 3 (2n - 1) s_(n-1) - (n - 2) s_(n-2)
        ref = [1, 2]
        for n in range(2, 301):
            num = 3 * (2 * n - 1) * ref[n - 1] - (n - 2) * ref[n - 2]
            assert num % (n + 1) == 0
            ref.append(num // (n + 1))
        assert schroeder_sequence(301) == ref
        for n in (0, 1, 2, 17, 18, 150, 299, 300):
            assert schroeder(n) == ref[n]

    def test_matches_indecomposable_column(self):
        ui = univariate("I", 8)
        for n in range(8):
            assert schroeder(n) == ui[n + 1]

    def test_indecomposable_recursion_matches_census(self):
        ui = univariate("I", 7)
        for n in range(1, 8):
            assert indecomposable_recursion(n) == ui[n]


class TestRunCapReduction:
    def test_cap_one_is_identity(self):
        result = census(1, 4, 10, include_one=True)
        table = reduce_to_v1(1, 4, 10)
        for n in range(5):
            for m in range(11):
                assert table.count(n, m) == result.a.count(n, m)

    def test_include_one_flag_only_touches_origin(self):
        with_one = reduce_to_v1(2, 2, 5, include_one=True)
        without = reduce_to_v1(2, 2, 5, include_one=False)
        assert with_one.count(0, 0) == 1 and without.count(0, 0) == 0
        for n in range(3):
            for m in range(6):
                if (n, m) != (0, 0):
                    assert with_one.count(n, m) == without.count(n, m)

    def test_infinite_cap_degree_one_row(self):
        # brute force: 1, 3, 6 words of arity 1, 2, 3 (one bracket, free runs)
        table = reduce_to_v1(math.inf, 1, 3)
        assert [table.count(1, m) for m in (1, 2, 3)] == [1, 3, 6]
        result = census(math.inf, 1, 3, include_one=True)
        assert [result.a.count(1, m) for m in (1, 2, 3)] == [1, 3, 6]

    @pytest.mark.parametrize("cap", [2, 3, math.inf])
    def test_census_equals_substitution(self, cap):
        result = census(cap, 3, 8, include_one=True)
        table = reduce_to_v1(cap, 3, 8)
        for n in range(4):
            for m in range(9):
                assert table.count(n, m) == result.a.count(n, m), (cap, n, m)


class TestClosedForms:
    @pytest.mark.parametrize("kind", ["I", "B", "D", "C", "A"])
    @pytest.mark.parametrize("z,t", [(0.01, 0.5), (0.02, 0.3)])
    def test_radicals_match_series(self, kind, z, t):
        assert abs(series_value(kind, z, t) - closed_form(kind, z, t)) < 1e-9

    def test_associate_closed_form_is_the_c_table(self):
        # the radical labeled for the associates matches the census c column
        result = census(1, 4, 9, include_one=True)
        z, t = 0.02, 0.4
        total = sum(
            result.c.count(n, m) * z**n * t**m
            for n in range(5)
            for m in range(10)
        )
        assert abs(total - closed_form("C", z, t)) < 1e-6
