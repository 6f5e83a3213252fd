import functools
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    bracket,
    breadth,
    degree,
    depth,
    factor_at,
    iter_averaging_words,
    iter_bracketed_words,
    letter,
    letters_of,
    parse_word,
    peel,
    random_averaging_word,
    random_bracketed_word,
    render_word,
    substitute_letters,
    validate_averaging,
    word,
    word_size,
)
from avalg._record import InputError
from avalg._grammar import WORDS, _cell_factors
from avalg.algebra import random_lincomb
from avalg.enumeration import averaging_words_v, indecomposable_words_v
from avalg.words import _TOKEN_RE, _close, _evaluate, _trusted

x = Letter("x")

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
POWER_RE = re.compile(r"\d+")


def parse_word_by_characters(text):
    """The character loop ``parse_word`` once was, over the public constructors:
    the oracle for the token parser's words, messages and positions."""
    stack = []
    factors = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "[":
            stack.append((factors, i))
            factors = []
            i += 1
        elif ch == "]":
            if not stack:
                raise WordSyntaxError("unmatched ']'", i)
            if not factors:
                raise WordSyntaxError("empty bracket content", i)
            core = BracketedWord(tuple(factors))
            factors = stack.pop()[0]
            i += 1
            power = 1
            if i < n and text[i] == "^":
                m = POWER_RE.match(text, i + 1)
                if not m:
                    raise WordSyntaxError("expected an integer after '^'", i + 1)
                power = int(m.group())
                if power == 0:
                    raise WordSyntaxError("zero power", i + 1)
                i = m.end()
            factors.append(Bracket(core, power))
        else:
            m = IDENT_RE.match(text, i)
            if not m:
                raise WordSyntaxError(f"unexpected character {ch!r}", i)
            factors.append(Letter(m.group()))
            i = m.end()
    if stack:
        raise WordSyntaxError("unclosed '['", stack[-1][1])
    if not factors:
        raise WordSyntaxError("empty word", 0)
    return BracketedWord(tuple(factors))


def parsed_or_error(parse, text):
    try:
        return render_word(parse(text))
    except WordSyntaxError as exc:
        return str(exc), exc.position


# the pieces of the fuzzed texts; U+0663 is ARABIC-INDIC DIGIT THREE
WORD_PIECES = ["[", "]", "^", " ", "\n", "\t", "x", "y", "ab_1", "0", "2", "\u0663", "\u00e9", "+", "-"]


def _edited(text, edits):
    for pos, piece in edits:
        pos %= len(text) + 1
        text = text[:pos] + piece + text[pos + (not piece):]  # "" deletes a character
    return text


_word_texts = st.recursive(
    st.sampled_from(["x", "y", "ab_1", " x", "y\t"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["", "", "^2", "^12", "^\u0663", "^0", "^", "^ 2"]))
        .map(lambda t: f"[{t[0]}]{t[1]}"),
        st.lists(inner, min_size=2, max_size=4).map("".join)),
    max_leaves=10)

# texts over the pieces, and well-formed words with up to two pieces
# inserted or characters deleted
WORD_TEXTS = st.one_of(
    st.lists(st.sampled_from(WORD_PIECES), max_size=20).map("".join),
    st.builds(_edited, _word_texts,
              st.lists(st.tuples(st.integers(0, 99), st.sampled_from(WORD_PIECES + [""])),
                       max_size=2)))


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

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(WORD_TEXTS)
    def test_agrees_with_the_character_loop(self, text):
        assert parsed_or_error(parse_word, text) == parsed_or_error(parse_word_by_characters, text)

    def test_whitespace_is_what_str_isspace_says(self):
        # the token regex's matches skip the ``\s`` characters; the character
        # loop skipped ``str.isspace``.  They agree on every code point.
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        covered = {i for m in _TOKEN_RE.finditer(text) for i in range(m.start(), m.end())}
        assert set(range(len(text))) - covered == {i for i, ch in enumerate(text) if ch.isspace()}

    def test_factors_are_canonical_and_share_letters(self):
        w = bw("x [[x y]^2]^3 x")
        b = w.factors[1]
        assert b == Bracket(word(x, Letter("y")), 5)
        assert w.factors[0] is w.factors[2] is b.core.factors[0]


class TestRender:
    def test_examples(self):
        assert render_word(word(Bracket(word(x), 2))) == "[x]^2"
        assert render_word(word(x, Bracket(word(x), 1), x)) == "x[x]x"
        assert render_word(word(Bracket(word(x, Bracket(word(x), 1)), 1))) == "[x[x]]"

    def test_str_is_the_rendered_text(self):
        w = parse_word("x[y x]^2")
        assert str(x) == "x"
        assert str(w.factors[1]) == "[y x]^2"
        assert str(w) == "x[y x]^2"
        assert str(AveragingWord(parse_word("x[y]"))) == "x[y]"

    def test_bracket_of_a_letter(self):
        assert bracket(letter("x")) == parse_word("[x]").factors[0]

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

    def test_a_bracket_is_one_apply_whatever_its_power(self):
        # the evaluator hands a bracket's whole power to ``apply`` at once, so
        # the walks on it cost nothing per layer
        w = bw("[x[y]^3]^1000000000000")
        powers = []
        _evaluate(w, str, str.__add__, lambda v, s: powers.append(s) or v)
        assert powers == [3, 10**12]
        assert (depth(w), letters_of(w)) == (10**12 + 3, {"x", "y"})
        assert render_word(substitute_letters(w, lambda f: (f, f))) == "[x x[y y]^3]^1000000000000"

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

    @pytest.mark.parametrize("path", [(), (2,), (-3,), (1, 1)], ids=str)
    def test_factor_at_rejects_a_path_that_addresses_no_factor(self, path):
        # an input error, and an IndexError as it always was
        with pytest.raises(InputError) as raised:
            factor_at(bw("x[y]"), path)
        assert isinstance(raised.value, IndexError)

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

    def test_trusted_close_folds_like_the_public_bracket(self):
        rng = random.Random(23)
        for _ in range(300):
            core = random_bracketed_word(rng, max_size=12)
            power = rng.randint(1, 3)
            for w in (core, word(Bracket(core, 2))):  # a lone bracket folds into the power
                got, public = _close(w, power), Bracket(w, power)
                assert type(got) is Bracket
                assert got.core is public.core and got.power == public.power
        assert _close(parse_word("[x]^2"), 3) == Bracket(parse_word("x"), 5)

    def test_equality_and_hash_at_any_depth(self):
        deep = "[x" * 3000 + "]" * 3000
        a, b = parse_word(deep), parse_word(deep)
        c = parse_word("[x" * 3000 + " y" + "]" * 3000)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert a != c and not a == c
        assert len({a, b, c}) == 2
        assert Bracket(a, 2) == Bracket(b, 2) != Bracket(c, 2)
        assert AveragingWord(a) == AveragingWord(b)
        assert (a == "x") is False

    def test_equality_and_hash_past_the_int_to_text_limit(self):
        # [[x]^N]^N is [x]^(2N), a power of 4301 digits, which does not render
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            n = "9" * 4300
            a, b = parse_word(f"[[x]^{n}]^{n}"), parse_word(f"[[x]^{n}]^{n}")
            c, d = parse_word(f"[[x y]^{n}]^{n}"), parse_word(f"[x]^{n}")
            assert a is not b and a == b and hash(a) == hash(b)
            assert a != c and a != d and c != d
            assert len({a, b, c, d}) == 3
            assert {a: 1}[b] == 1
            assert AveragingWord(a) == AveragingWord(b)
        finally:
            sys.set_int_max_str_digits(before)

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
        # bracket() converts a factor or a certified word; Bracket() does not
        for core in ("x", x, AveragingWord(bw("x"))):
            with pytest.raises(TypeError, match=re.escape(f"must be a BracketedWord, not {core!r}")):
                Bracket(core)
        # the public constructor copies any sequence into a tuple
        assert BracketedWord([x, x]).factors == (x, x)

    @pytest.mark.parametrize("power, error", [
        (1.5, TypeError), (2.0, TypeError), (True, TypeError), ("2", TypeError),
        (0, ValueError), (-1, ValueError)])
    def test_bracket_power_is_a_positive_int(self, power, error):
        # [x]^1.5 would render as text parse_word rejects, and degree would
        # count it as 1.5
        with pytest.raises(error, match="bracket power must be"):
            bracket(letter("x"), power)
        with pytest.raises(error, match="bracket power must be"):
            Bracket(bw("x"), power)


# ---------------------------------------------------------------------------
# The averaging-word walk against the tuple generator it replaced

@functools.lru_cache(maxsize=None)
def oracle_factors(a, d, power_cap, run_cap, head):
    """Factor tuples of the averaging words over x of arity ``a`` and degree
    ``d``, runs of at most ``run_cap`` letters alternating with brackets
    ``[core]^s``, ``s <= power_cap``, first factor as ``head``: the generator
    that held every word of every sub-size, kept as the oracle of the walk's
    words and order."""
    out = []
    if head == 0:
        for r in range(1, min(a, run_cap) + 1):
            run = (x,) * r
            if r == a:
                if d == 0:
                    out.append(run)
            else:
                rests = oracle_factors(a - r, d, power_cap, run_cap, 1)
                out.extend(run + rest for rest in rests)
        return tuple(out)
    for ba in range(1, a + 1):
        for bd in range(1, d + 1):
            brackets = oracle_brackets(ba, bd, power_cap, run_cap)
            if (ba, bd) == (a, d):
                out.extend((b,) for b in brackets)
            else:
                rests = oracle_factors(a - ba, d - bd, power_cap, run_cap, 0)
                out.extend((b,) + rest for b in brackets for rest in rests)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def oracle_brackets(a, d, power_cap, run_cap):
    return tuple(
        Bracket(_trusted(core), s)
        for s in range(1, min(d, power_cap) + 1)
        for core in oracle_factors(a, d - s, power_cap, run_cap, 0)
        if not (isinstance(core[-1], Bracket) and core[-1].power >= 2)
    )


def texts(factor_tuples):
    return [render_word(_trusted(f)) for f in factor_tuples]


class TestAveragingWalk:
    def test_iter_averaging_words_keeps_the_oracle_order(self):
        # every cell up to degree 8 of the grammar without caps, in which a
        # core must not end in a bracket of power >= 2
        expected = []
        for a in range(1, 7):
            for d in range(9):
                for head in (0, 1):
                    cell = oracle_factors(a, d, math.inf, math.inf, head)
                    assert WORDS.count((a, d, head, False, (math.inf, math.inf))) == len(cell)
                    expected += texts(cell)
        assert [render_word(w) for w in iter_averaging_words(6, 8)] == expected

    @pytest.mark.parametrize("cap, max_arity", [(1, 17), (2, 9), (math.inf, 9)])
    def test_census_cells_keep_the_oracle_words(self, cap, max_arity):
        # every cell up to degree 8; at cap 1 that is every arity
        for n in range(9):
            for m in range(1, max_arity + 1):
                cell = texts(oracle_factors(m, n, 1, cap, 0) + oracle_factors(m, n, 1, cap, 1))
                assert texts(_cell_factors(cap, n, m)) == cell, (n, m)
                assert list(map(render_word, averaging_words_v(cap, n, m))) == sorted(cell)
                single = [f for f in oracle_factors(m, n, 1, cap, 1) if len(f) == 1]
                assert list(map(render_word, indecomposable_words_v(cap, n, m))) == sorted(texts(single))

    @pytest.mark.parametrize("caps", [(1, 1), (1, 2), (math.inf, math.inf)])
    def test_unrank_inverts_the_walk(self, caps):
        for a in range(1, 7):
            for d in range(6):
                for head in (0, 1):
                    family = (a, d, head, False, caps)
                    walked = list(WORDS.walk(family))
                    assert [WORDS.unrank(family, r) for r in range(len(walked))] == walked
                    with pytest.raises(IndexError):
                        WORDS.unrank(family, len(walked))

    @pytest.mark.parametrize("caps", [(1, 1), (math.inf, 2)])
    def test_draw_ranks_the_families_in_turn(self, caps):
        # each rank below the summed counts picks one word, in the order of
        # the families' walks one after another
        families = [(a, 4, head, False, caps) for a in range(1, 7) for head in (0, 1)]
        walked = [f for family in families for f in WORDS.walk(family)]
        drawn = [WORDS.draw(FixedRank(rank, len(walked)), families) for rank in range(len(walked))]
        assert drawn == walked


class FixedRank:
    """A stand-in RNG whose ``randrange(n)`` returns ``rank`` and checks ``n``."""

    def __init__(self, rank, n):
        self.rank, self.n = rank, n

    def randrange(self, n):
        assert n == self.n
        return self.rank


def runs_of(w):
    """The lengths of the maximal letter runs of ``w``, inside brackets too."""
    out, todo = [], [w]
    while todo:
        run = 0
        for f in todo.pop().factors:
            if isinstance(f, Letter):
                run += 1
                continue
            out.append(run)
            run = 0
            todo.append(f.core)
        out.append(run)
    return [r for r in out if r]


class TestRandomAveragingWord:
    def test_distribution_at_degree_one(self):
        # degree 0 or 1, each with probability 1/2; then uniform among the
        # words of that degree over x with runs of one letter
        rng = random.Random(0)
        n = 8000
        drawn = [render_word(random_averaging_word(rng, ("x",), max_depth=1, max_run=1).word)
                 for _ in range(n)]
        expected = {"x": 1 / 2, "[x]": 1 / 8, "x[x]": 1 / 8, "[x]x": 1 / 8, "x[x]x": 1 / 8}
        assert set(drawn) == set(expected)
        for text, p in expected.items():
            assert abs(drawn.count(text) - n * p) <= 4 * math.sqrt(n * p * (1 - p)), text

    @pytest.mark.parametrize("alphabet, max_depth, max_run",
                             [(("x", "y"), 4, 2), (("a",), 0, 3), (("p", "q", "r"), 6, 1)])
    def test_draws_keep_their_bounds(self, alphabet, max_depth, max_run):
        rng = random.Random(f"{alphabet}{max_depth}{max_run}")
        degrees = set()
        for _ in range(500):
            w = random_averaging_word(rng, alphabet, max_depth, max_run).word
            degrees.add(degree(w))
            assert depth(w) <= degree(w) <= max_depth
            assert max(runs_of(w)) <= max_run
            assert letters_of(w) <= set(alphabet)
        assert degrees == set(range(max_depth + 1))

    @pytest.mark.parametrize("bounds", [{"max_depth": -1}, {"max_run": 0}])
    def test_invalid_bounds_raise(self, bounds):
        with pytest.raises(ValueError, match="max_depth >= 0 and max_run >= 1"):
            random_averaging_word(random.Random(0), **bounds)


class NoDraws:
    """A stand-in RNG that fails on any draw, so an argument is rejected
    before the first one."""

    def __getattr__(self, name):
        raise AssertionError(f"drew with {name} before the arguments were checked")


@pytest.mark.parametrize("call", [
    lambda rng: random_bracketed_word(rng, max_size=0),
    lambda rng: random_bracketed_word(rng, max_size=-3),
    lambda rng: random_bracketed_word(rng, max_power=0),
    lambda rng: random_bracketed_word(rng, alphabet=()),
    lambda rng: random_averaging_word(rng, alphabet=()),
    lambda rng: random_lincomb(rng, alphabet=()),
    lambda rng: random_lincomb(rng, max_terms=0),
], ids=["bracketed max_size=0", "bracketed max_size=-3", "bracketed max_power=0",
        "bracketed alphabet=()", "averaging alphabet=()", "lincomb alphabet=()",
        "lincomb max_terms=0"])
def test_seeded_generators_reject_bad_arguments_before_drawing(call):
    with pytest.raises(InputError):
        call(NoDraws())
