import random

import pytest

from avalg.words import (
    AveragingWord,
    Bracket,
    BracketedWord,
    ForbiddenPattern,
    InvalidAveragingWord,
    Letter,
    Violation,
    WordSyntaxError,
    analyze,
    arity,
    breadth,
    degree,
    depth,
    factor_at,
    iter_averaging_words,
    iter_bracketed_words,
    letters_of,
    parse_word,
    peel,
    random_averaging_word,
    random_bracketed_word,
    render_word,
    validate_averaging,
    word,
    word_size,
)
from avalg.words import _trusted

x = Letter("x")


def bw(text):
    return parse_word(text)


class TestParse:
    def test_letter_and_bracket(self):
        w = bw("x[x]")
        assert w.factors == (x, Bracket(word(x), 1))

    def test_iterated_bracket_power_form(self):
        w = bw("[x[x]]^2")
        assert len(w.factors) == 1
        b = w.factors[0]
        assert b.power == 2
        assert render_word(b.core) == "x[x]"

    def test_nested_brackets_canonicalize(self):
        assert bw("[[x]]") == word(Bracket(word(x), 2))
        assert bw("[[[x]]^2]^3") == word(Bracket(word(x), 6))

    def test_whitespace_between_factors(self):
        assert bw("x [x] \n y") == bw("x[x]y")

    def test_multichar_identifiers(self):
        w = bw("ab1[x]")
        assert w.factors[0] == Letter("ab1")

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "[]", "[x]^0", "x]", "[x", "1x", "x^2", "[x]^", "x+y"],
    )
    def test_errors_carry_position(self, text):
        with pytest.raises(WordSyntaxError) as err:
            bw(text)
        assert err.value.position >= 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty word (at position 0)"),
            ("  \n", "empty word (at position 0)"),
            ("]", "unmatched ']' (at position 0)"),
            ("x ] [", "unmatched ']' (at position 2)"),
            ("[x]]", "unmatched ']' (at position 3)"),
            ("[", "unclosed '[' (at position 0)"),
            ("x[y[z]", "unclosed '[' (at position 1)"),
            ("[ ]", "empty bracket content (at position 2)"),
            ("x[[]x]", "empty bracket content (at position 3)"),
            ("[]x", "empty bracket content (at position 1)"),
            ("[x]^", "expected an integer after '^' (at position 4)"),
            ("[x]^ 2", "expected an integer after '^' (at position 4)"),
            ("[x]^00", "zero power (at position 4)"),
            ("1x", "unexpected character '1' (at position 0)"),
            ("x^2", "unexpected character '^' (at position 1)"),
            ("[x]^2^3", "unexpected character '^' (at position 5)"),
            ("[x \u00e9]", "unexpected character '\u00e9' (at position 3)"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(WordSyntaxError) as err:
            bw(text)
        assert str(err.value) == message

    def test_unicode_digits_are_a_power(self):
        assert bw("[x]^\u0663") == word(Bracket(word(x), 3))

    def test_any_depth(self):
        text = "[x" * 10**4 + "]" * 10**4
        assert render_word(bw(text)) == text


class TestRender:
    def test_examples(self):
        assert render_word(word(Bracket(word(x), 2))) == "[x]^2"
        assert render_word(word(x, Bracket(word(x), 1), x)) == "x[x]x"
        assert render_word(word(Bracket(word(x, Bracket(word(x), 1)), 1))) == "[x[x]]"

    def test_adjacent_letters_reparse(self):
        w = word(x, Letter("xy"), x)
        assert parse_word(render_word(w)) == w

    def test_round_trip_10000_random_words(self):
        rng = random.Random(20240)
        for _ in range(10000):
            w = random_bracketed_word(rng, alphabet=("x", "y", "ab", "x1"))
            assert parse_word(render_word(w)) == w


class TestAnalyze:
    def test_two_letter_example(self):
        w = bw("x[y[x]]x y[y]")
        info = analyze(w)
        assert (info.depth, info.breadth, info.head, info.tail) == (2, 5, 0, 1)
        assert [render_word(b) for b in info.block_factors] == [
            "x",
            "[y[x]]",
            "x y",
            "[y]",
        ]

    def test_single_letter(self):
        info = analyze(bw("x"))
        assert (info.depth, info.breadth, info.head, info.tail) == (0, 1, 0, 0)

    def test_ladder(self):
        info = analyze(bw("[x]^3"))
        assert (info.depth, info.breadth, info.head, info.tail) == (3, 1, 1, 1)

    def test_letter_run_blocks_are_maximal(self):
        rng = random.Random(7)
        for _ in range(200):
            w = random_bracketed_word(rng)
            blocks = analyze(w).block_factors
            kinds = [isinstance(b.factors[0], Letter) for b in blocks]
            # two letter runs never touch; adjacent brackets may
            assert not any(kinds[i] and kinds[i + 1] for i in range(len(kinds) - 1))

    def test_blocks_alternate_on_averaging_words(self):
        rng = random.Random(8)
        for _ in range(300):
            w = random_averaging_word(rng)
            blocks = analyze(w.word).block_factors
            kinds = [isinstance(b.factors[0], Letter) for b in blocks]
            assert all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))

    def test_depth_of_power_adds_power(self):
        assert depth(bw("[x[x]]^2")) == 3
        assert degree(bw("[x[x]]^2")) == 3
        assert arity(bw("[x[x]]^2")) == 2

    def test_measures_at_any_depth(self):
        w = bw("[x" * 5000 + "]" * 5000 + " y[y]^3")
        assert (depth(w), degree(w), arity(w)) == (5000, 5003, 5002)
        assert letters_of(w) == {"x", "y"}
        assert analyze(w).depth == 5000

    def test_measures_match_their_definitions(self):
        def by_definition(v):
            # (depth, degree, arity, letters), by recursion on the factors
            out = (0, 0, 0, frozenset())
            for f in v.factors:
                if isinstance(f, Letter):
                    out = (out[0], out[1], out[2] + 1, out[3] | {f.symbol})
                else:
                    d, g, a, ls = by_definition(f.core)
                    out = (max(out[0], d + f.power), out[1] + g + f.power, out[2] + a, out[3] | ls)
            return out

        rng = random.Random(17)
        for _ in range(500):
            w = random_bracketed_word(rng, max_size=30)
            assert (depth(w), degree(w), arity(w), letters_of(w)) == by_definition(w)


class TestValidate:
    def test_accepts_power_word(self):
        got = validate_averaging(bw("[x[x]^2x[x]]"))
        assert isinstance(got, AveragingWord)

    def test_power_tail(self):
        got = validate_averaging(bw("[x[x]^2]"))
        assert isinstance(got, Violation)
        assert got.pattern is ForbiddenPattern.POWER_TAIL

    def test_adjacent_brackets(self):
        got = validate_averaging(bw("[x][x]"))
        assert isinstance(got, Violation)
        assert got.pattern is ForbiddenPattern.ADJACENT_BRACKETS

    def test_bracket_headed(self):
        got = validate_averaging(bw("[[x]x]"))
        assert isinstance(got, Violation)
        assert got.pattern is ForbiddenPattern.BRACKET_HEADED

    def test_violation_path_addresses_pattern(self):
        rng = random.Random(99)
        seen = 0
        for _ in range(3000):
            w = random_bracketed_word(rng, max_size=12)
            got = validate_averaging(w)
            if isinstance(got, AveragingWord):
                continue
            seen += 1
            f = factor_at(w, got.path)
            assert isinstance(f, Bracket)
            if got.pattern is ForbiddenPattern.ADJACENT_BRACKETS:
                parent = w if len(got.path) == 1 else factor_at(w, got.path[:-1]).core
                assert isinstance(parent.factors[got.path[-1] + 1], Bracket)
            elif got.pattern is ForbiddenPattern.BRACKET_HEADED:
                assert isinstance(f.core.factors[0], Bracket)
                assert len(f.core.factors) >= 2
            else:
                assert isinstance(f.core.factors[-1], Bracket)
                assert f.core.factors[-1].power >= 2
        assert seen > 100

    def test_nested_violation_found(self):
        got = validate_averaging(bw("x[x[x][x]]"))
        assert isinstance(got, Violation)
        assert got.pattern is ForbiddenPattern.ADJACENT_BRACKETS
        assert got.path == (1, 1)

    def test_factor_at_rejects_a_path_through_a_letter(self):
        # a ValueError with or without -O, not an assertion or attribute error
        w = bw("x[y]")
        assert factor_at(w, (1, 0)) == Letter("y")
        with pytest.raises(ValueError, match=r"path \(0, 0\) passes through the letter 'x'"):
            factor_at(w, (0, 0))

    def test_innermost_violation_wins(self):
        # the content is both bracket-headed and has adjacent brackets one
        # level down; the deeper pair is reported
        got = validate_averaging(bw("[[x][x]]"))
        assert isinstance(got, Violation)
        assert got.pattern is ForbiddenPattern.ADJACENT_BRACKETS
        assert got.path == (0, 0)

    def test_constructor_rejects(self):
        with pytest.raises(InvalidAveragingWord):
            AveragingWord(bw("[x][x]"))

    def test_scan_matches_recursive_definition(self):
        # the scan is iterative; this recursive definition of the
        # leftmost-innermost order is its reference
        def reference(w, prefix=()):
            for idx, f in enumerate(w.factors):
                if isinstance(f, Bracket):
                    found = reference(f.core, prefix + (idx,))
                    if found is not None:
                        return found
                    core = f.core.factors
                    if len(core) >= 2 and isinstance(core[0], Bracket):
                        return Violation(ForbiddenPattern.BRACKET_HEADED, prefix + (idx,))
                    if len(core) >= 2 and isinstance(core[-1], Bracket) and core[-1].power >= 2:
                        return Violation(ForbiddenPattern.POWER_TAIL, prefix + (idx,))
                    if idx + 1 < len(w.factors) and isinstance(w.factors[idx + 1], Bracket):
                        return Violation(ForbiddenPattern.ADJACENT_BRACKETS, prefix + (idx,))
            return None

        rng = random.Random(1401)
        samples = [random_bracketed_word(rng, max_size=30) for _ in range(3000)]
        samples += [random_averaging_word(rng).word for _ in range(500)]
        kinds = set()
        for w in samples:
            expected, got = reference(w), validate_averaging(w)
            if expected is None:
                assert isinstance(got, AveragingWord)
            else:
                assert got == expected
                kinds.add((got.pattern, len(got.path) > 1))
        assert len(kinds) == 6  # every pattern, at the top level and nested

    def test_deeper_than_the_recursion_limit(self):
        # x[x[...[x][x]...]] and its normal form x[x[...x[x]...]]^2, 1,500
        # levels each, built without the recursive parser
        n = 1500
        w = word(Bracket(word(x)), Bracket(word(x)))
        normal = word(x, Bracket(word(x)))
        for _ in range(n):
            w = word(x, Bracket(w))
        for _ in range(n - 1):
            normal = word(x, Bracket(normal))
        normal = word(x, Bracket(normal, 2))
        got = validate_averaging(w)
        assert got == Violation(ForbiddenPattern.ADJACENT_BRACKETS, (1,) * n + (0,))
        assert validate_averaging(normal).word is normal


class TestPeel:
    def test_power_two(self):
        core, power = peel(bw("[x[x]]^2"))
        assert render_word(core.word) == "x[x]"
        assert power == 2

    def test_power_one(self):
        core, power = peel(bw("[x]"))
        assert render_word(core.word) == "x"
        assert power == 1

    def test_breadth_two_rejected(self):
        with pytest.raises(ValueError):
            peel(bw("x[x]"))

    def test_plain_word_is_certified_whole(self):
        with pytest.raises(InvalidAveragingWord):
            peel(bw("[[x]x]"))

    def test_core_has_head_zero(self):
        rng = random.Random(5)
        for _ in range(300):
            w = random_averaging_word(rng, max_depth=4)
            if breadth(w.word) == 1 and isinstance(w.word.factors[0], Bracket):
                core, power = peel(w)
                assert power >= 1
                assert isinstance(core.word.factors[0], Letter)


class TestInvariants:
    def test_generated_averaging_words_validate(self):
        rng = random.Random(11)
        for _ in range(2000):
            w = random_averaging_word(rng, max_depth=5)
            assert depth(w.word) <= 5
            assert isinstance(validate_averaging(w.word), AveragingWord)

    def test_breadth_positive_and_depth_zero_iff_bracketless(self):
        rng = random.Random(13)
        for _ in range(1000):
            w = random_bracketed_word(rng)
            assert breadth(w) >= 1
            has_bracket = any(isinstance(f, Bracket) for f in w.factors)
            assert (depth(w) == 0) == (not has_bracket)

    def test_every_split_of_averaging_word_validates(self):
        # splits of the standard factor sequence, exhaustive at small size
        count = 0
        for aw in iter_averaging_words(max_arity=7, max_degree=3):
            w = aw.word
            if depth(w) > 3:
                continue
            for cut in range(1, len(w.factors)):
                left = BracketedWord(w.factors[:cut])
                right = BracketedWord(w.factors[cut:])
                assert isinstance(validate_averaging(left), AveragingWord)
                assert isinstance(validate_averaging(right), AveragingWord)
                count += 1
        assert count > 1000

    def test_exhaustive_words_are_distinct_and_canonical(self):
        words = list(iter_bracketed_words(7))
        assert len(words) == len(set(words))
        for w in words:
            assert word_size(w) <= 7
            assert parse_word(render_word(w)) == w

    def test_exhaustive_counts_are_catalan(self):
        # one-letter canonical words by size satisfy W = z(1+W)^2: the
        # counts are Catalan numbers, here computed from the binomial form
        import math as m

        def catalan(n):
            return m.comb(2 * n, n) // (n + 1)

        by_size = {}
        for w in iter_bracketed_words(8):
            by_size[word_size(w)] = by_size.get(word_size(w), 0) + 1
        assert [by_size[s] for s in range(1, 9)] == [catalan(s) for s in range(1, 9)]

    def test_averaging_enumeration_matches_filter(self):
        # independent route: filter all bracketed words by the validator
        by_filter = {
            w
            for w in iter_bracketed_words(6)
            if isinstance(validate_averaging(w), AveragingWord)
        }
        by_construction = {
            aw.word
            for aw in iter_averaging_words(max_arity=6, max_degree=5)
            if word_size(aw.word) <= 6
        }
        assert by_construction == by_filter


class TestWordCore:
    def test_word_values_have_no_instance_dict(self):
        w = bw("x[y x]^2")
        for value in (w, w.factors[0], w.factors[1]):
            assert not hasattr(value, "__dict__")

    def test_trusted_words_equal_and_hash_like_public_ones(self):
        from avalg.algebra import apply_p, diamond, reduce

        rng = random.Random(19)
        for _ in range(300):
            w = random_bracketed_word(rng, max_size=25)
            u, v = random_averaging_word(rng), random_averaging_word(rng)
            built = (
                _trusted(w.factors),
                reduce(w).word,
                diamond(u, v).word,
                apply_p(u).word,
            )
            for got in built:
                public = parse_word(render_word(got))
                assert got == public and public == got
                assert hash(got) == hash(public)
                assert type(got) is BracketedWord
            assert _trusted(w.factors).factors is w.factors

    def test_public_constructors_keep_their_checks(self):
        with pytest.raises(ValueError, match="at least one factor"):
            BracketedWord(())
        with pytest.raises(ValueError, match="at least one factor"):
            word()
        with pytest.raises(TypeError, match="not a word factor"):
            BracketedWord((x, "y"))
        with pytest.raises(TypeError, match="not a word factor"):
            word(x, bw("y"))
        with pytest.raises(ValueError, match="power must be >= 1"):
            Bracket(bw("x"), 0)
        with pytest.raises(ValueError, match="not an identifier"):
            Letter("1x")
        # the public constructor copies any sequence into a tuple
        assert BracketedWord([x, x]).factors == (x, x)

