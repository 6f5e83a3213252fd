import itertools
import math
import tracemalloc

import pytest

import avalg.enumeration
from avalg import _grammar
from avalg.enumeration import (
    _DELTA,
    _RADICAL_FORMS,
    BudgetExceeded,
    averaging_words_v,
    census,
    closed_form,
    collapse_runs,
    compositions,
    count_compositions,
    expand_runs,
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


def _i_by_convolution(N, M):
    """Coefficients of I from I = zt + t*I^2 + zt*I, degree by degree: the
    convolution the library solved before the square-root recurrence, kept
    as its oracle.  It multiplies the nonzero terms of the rows only; both
    factors of t*I^2 have degree >= 1."""
    i = [[0] * (M + 1) for _ in range(N + 1)]
    terms = [[]]  # the (arity, coefficient) pairs of each row's nonzero cells
    for n in range(1, N + 1):
        row = i[n]
        if n == 1 and M >= 1:
            row[1] = 1  # zt
        for m, c in terms[n - 1]:  # zt*I
            if m < M:
                row[m + 1] += c
        for n1 in range(1, n):  # t*I^2
            for m1, c in terms[n1]:
                for m2, d in terms[n - n1]:
                    if m1 + m2 < M:
                        row[m1 + m2 + 1] += c * d
        terms.append([(m, c) for m, c in enumerate(row) if c])
    return tuple(map(tuple, i))


def _schroeder_by_compositions(count):
    """s_0 .. s_(count-1) by the paper's composition recursion, s_0 = 1 and
    s_n = 2 * sum over compositions (p_1..p_j) of n of s_(p_1-1)...s_(p_j-1),
    in convolution form: the inner sum is C_0 = 1,
    C_n = sum_(p=1..n) s_(p-1) * C_(n-p), and s_n = 2 * C_n for n >= 1."""
    s, c = [1], [1]
    for n in range(1, count):
        c.append(sum(s[p - 1] * c[n - p] for p in range(1, n + 1)))
        s.append(2 * c[n])
    return s[:count]


class TestCompositions:
    def test_unrestricted_pair(self):
        assert set(compositions(3, 2)) == {(1, 2), (2, 1)}

    def test_cap_one_unique(self):
        # the cut points are read off one combination, so no recursion limit
        for k in (1, 2, 3, 4, 5, 1500):
            assert compositions(k, k, 1) == ((1,) * k,)

    def test_cap_excludes_large_parts(self):
        assert compositions(4, 2, 2) == ((2, 2),)

    def test_counts_match_generating_function(self):
        for cap in (1, 2, 3, math.inf):
            for m in range(11):
                for k in range(11):
                    expected = _gf_coefficient(m, k, cap) if m and k else 0
                    listed = compositions(m, k, cap)
                    assert count_compositions(m, k, cap) == len(listed) == expected, (m, k, cap)
                    # lexicographic, the order enumerate_schroeder relies on
                    assert listed == tuple(sorted(listed))
        # far past what generating the compositions could reach
        assert count_compositions(60, 30, 3) == _gf_coefficient(60, 30, 3)

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
            for (n, m), texts in result.words.items():
                assert len(set(texts)) == len(texts)
                for text in texts:
                    w = parse_word(text)
                    assert degree(w) == n and arity(w) == m
                    assert isinstance(validate_averaging(w), AveragingWord)
                    _, runs = collapse_runs(w)
                    assert all(r <= (cap if cap != math.inf else r) for r in runs)
                    assert "^" not in text  # powers all 1

    @pytest.mark.parametrize("cap", [1, 2, math.inf])
    def test_listed_words_are_the_canonical_cells(self, cap):
        # census counts unsorted and sorts only the words it lists; each
        # listed cell must be averaging_words_v's cell, rendered, in the same order
        result = census(cap, 4, 9, list_words=True)
        for n in range(5):
            for m in range(1, 10):
                listed = result.words.get((n, m), ())
                assert listed == tuple(map(render_word, averaging_words_v(cap, n, m))), (n, m)
                assert len(listed) == result.a.count(n, m)
                assert list(listed) == sorted(listed)

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

    def test_over_budget_census_is_refused_before_the_series(self, monkeypatch):
        # the 2 s_n cap-1 words of each degree n that fits the box bound the
        # census from below, so a box far past the budget is refused without
        # solving the series; at cap 1 with every degree fitting, exactly
        def unsolved(*args):
            raise AssertionError("the series was solved")

        s = schroeder_sequence(201)
        drawn = []

        def counted():
            for c in s:
                drawn.append(c)
                yield c

        monkeypatch.setattr(avalg.enumeration, "_solve_i", unsolved)
        monkeypatch.setattr(_grammar, "iter_schroeder_numbers", counted)
        total = 1 + 2 * sum(s[1:101])
        with pytest.raises(BudgetExceeded, match=f"^census would generate {total} words"
                                                 r" \(budget 10000000\)$"):
            census(1, 100, 201)
        del drawn[:]
        total = 1 + 2 * sum(s[1:129])  # past the budget, the sum stops at degree 128
        with pytest.raises(BudgetExceeded, match=f"^census would generate at least {total} words"):
            census(1, 3200, 6401)
        assert len(drawn) == 129
        with pytest.raises(BudgetExceeded, match="at least 4641 words"):  # cap 2 holds more
            census(2, 6, 13, budget=10)
        with pytest.raises(BudgetExceeded, match="at least 17 words"):  # arity 5 stops at degree 2
            census(1, 6, 5, budget=10)
        with pytest.raises(AssertionError, match="the series was solved"):
            census(2, 2, 10, budget=20)  # 17 words bound it, within the budget
        monkeypatch.undo()  # then the series refuses it
        with pytest.raises(BudgetExceeded, match=r"^census would generate 200 words \(budget 20\)$"):
            census(2, 2, 10, budget=20)

    def test_memory_is_the_bracket_groups_not_the_words(self):
        # census(2, 5, 12) walks 112,905 words one at a time and keeps only
        # counts, branches and the groups of the heads (the brackets and
        # their cores) that stand inside larger words; holding every word of
        # every sub-size took a traced peak of 10.5 MB
        _grammar.WORDS.cache_clear()
        tracemalloc.start()
        try:
            census(2, 5, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_no_family_past_the_run_bound_is_split(self):
        # a word of degree d has at most 2d + 1 runs, so at run cap 1 no
        # word of degree <= 3 has arity above 7: raising the arity cap adds
        # empty cells, not counted families (splitting them all made
        # census(1, 3, 2000) quadratic in the arity cap, 13 s)
        counted = []
        for max_arity in (7, 2000):
            _grammar.WORDS.cache_clear()
            census(1, 3, max_arity)
            counted.append(_grammar.WORDS.count.cache_info().currsize)
        assert counted[0] == counted[1]


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
            for (n, m), texts in result.words.items():
                for w in map(parse_word, texts):
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
        # outside the computed box
        assert s.coeff(4, 1) == s.coeff(1, 8) == s.coeff(-1, 1) == 0

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

    @pytest.mark.parametrize("kind", ["I", "B", "D", "C", "A"])
    @pytest.mark.parametrize("N, M", [(0, 0), (0, 1), (0, 5), (1, 0), (1, 1), (4, 0),
                                      (4, 1), (5, 11), (9, 3)])
    def test_truncation_stability(self, kind, N, M):
        # coefficients must not depend on the truncation order; B is read
        # off I one degree and one arity further, so the edges N = 0,
        # M = 0 and M = 1 are where a wrong shift would show
        large = series(kind, 9, 19)
        assert series(kind, N, M).table == tuple(row[:M + 1] for row in large.table[:N + 1])

    @pytest.mark.parametrize("N, M", sorted({
        # every box that the series, univariate, closed-form and census tests
        # here solve (a census solves the box of its degree and arity), and
        # I at N = 100
        (0, 0), (0, 1), (0, 5), (1, 0), (1, 1), (1, 2), (1, 3), (2, 5), (2, 6),
        (2, 10), (3, 7), (3, 8), (3, 2000), (4, 0), (4, 1), (4, 9), (4, 10),
        (5, 4), (5, 11), (5, 12), (6, 13), (7, 15), (8, 17), (8, 20), (9, 3),
        (9, 19), (12, 25), (25, 51), (30, 61), (100, 201)}))
    def test_i_equals_the_convolution(self, N, M):
        assert series("I", N, M).table == _i_by_convolution(N, M)

    def test_b_solves_its_own_recurrence(self):
        # B = I/(1 - tI), that is B = I + t*I*B, by a plain loop over both
        # tables; series reads B off I - zt = zt(1+t) B, so that one would
        # not check it
        N, M = 12, 25
        i, b = series("I", N, M).table, series("B", N, M).table
        for n in range(N + 1):
            for m in range(M + 1):
                t_i_b = sum(i[n1][m1] * b[n - n1][m - 1 - m1]
                            for n1 in range(n + 1) for m1 in range(m))
                assert b[n][m] == i[n][m] + t_i_b, (n, m)


class TestSchroeder:
    def test_first_terms(self):
        assert schroeder_sequence(8) == [1, 2, 6, 22, 90, 394, 1806, 8558]

    def test_unrolled_s1(self):
        # j = 1, single composition (1), contributes 2 * s_0
        assert schroeder(1) == 2 * schroeder(0) == 2

    def test_three_term_recurrence_to_300(self):
        # the library runs A006318's (n + 1) s_n = 3 (2n - 1) s_(n-1) -
        # (n - 2) s_(n-2); the paper's composition recursion is the oracle
        ref = _schroeder_by_compositions(301)
        assert schroeder_sequence(301) == ref
        for n in (0, 1, 2, 17, 18, 150, 299, 300):
            assert schroeder(n) == ref[n]

    def test_composition_recursion_as_written(self):
        # the oracle's convolution form against the sum over compositions
        s = _schroeder_by_compositions(11)
        for n in range(1, 11):
            assert s[n] == 2 * sum(math.prod(s[p - 1] for p in parts)
                                   for j in range(1, n + 1) for parts in compositions(n, j))

    def test_matches_indecomposable_column(self):
        ui = univariate("I", 8)
        for n in range(8):
            assert schroeder(n) == ui[n + 1]


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

    def test_negative_sizes_are_rejected(self):
        for sizes in ((-1, 3), (2, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                census(1, *sizes)
            with pytest.raises(ValueError, match="nonnegative"):
                series("A", *sizes)
            with pytest.raises(ValueError, match="nonnegative"):
                reduce_to_v1(2, *sizes)

    def test_documented_failures(self):
        for call, message in (
            (lambda: census(0, 2, 3), "run cap must be a positive integer or math.inf"),
            # isinstance(True, int) holds, and a bool cap printed as JSON true
            (lambda: census(True, 2, 5), "run cap must be a positive integer or math.inf"),
            (lambda: compositions(4, 2, True), "run cap must be a positive integer or math.inf"),
            (lambda: indecomposable_words_v(math.inf, 2),
             "an explicit arity is required when the run cap is infinite"),
            (lambda: series("E", 2, 3),
             "unknown series kind 'E'; expected one of ('I', 'B', 'D', 'C', 'A')"),
            (lambda: closed_form("E", 0.1, 0.1), "unknown series kind 'E'"),
            (lambda: schroeder(-1), "index must be nonnegative"),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

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


def _times(f, g, N, M):
    """The product of two polynomials {(n, m): c} in z and t, truncated to
    n <= N and m <= M, without zero terms."""
    out = {}
    for (n1, m1), c in f.items():
        for (n2, m2), d in g.items():
            if n1 + n2 <= N and m1 + m2 <= M:
                key = (n1 + n2, m1 + m2)
                out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def _squared_identity(kind, table, N, M):
    """Both sides of (R*G - P)^2 = Q^2 * DELTA on the box, G read from ``table``."""
    p, q, r = _RADICAL_FORMS[kind]
    g = {(n, m): c for n, row in enumerate(table) for m, c in enumerate(row) if c}
    lhs = _times(r, g, N, M)
    for key, c in p.items():
        if key[0] <= N and key[1] <= M:
            lhs[key] = lhs.get(key, 0) - c
    lhs = {key: c for key, c in lhs.items() if c}
    return _times(lhs, lhs, N, M), _times(_times(q, q, N, M), _DELTA, N, M)


class TestRadicalFormsExactly:
    """Every cell of the truncated series against the closed form's P, Q and
    R, in integers: a wrong term of any order shows, where the float
    spot checks above see only a few points."""

    @pytest.mark.parametrize("kind", ["I", "B", "D", "C", "A"])
    @pytest.mark.parametrize("box", [(0, 0), (1, 2), (5, 4), (12, 25), (30, 61)])
    def test_squared_identity_holds_in_every_cell(self, kind, box):
        lhs, rhs = _squared_identity(kind, series(kind, *box).table, *box)
        assert lhs == rhs

    @pytest.mark.parametrize("kind", ["I", "B", "D", "C", "A"])
    def test_one_wrong_coefficient_breaks_it(self, kind):
        N, M = 12, 25
        table = [list(row) for row in series(kind, N, M).table]
        table[9][14] += 1
        lhs, rhs = _squared_identity(kind, table, N, M)
        assert lhs != rhs
