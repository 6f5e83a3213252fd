import random
from fractions import Fraction

import pytest

from avalg.algebra import (
    LinCombSyntaxError,
    LinearCombination,
    StepBudgetExceeded,
    apply_p,
    diamond,
    parse_lincomb,
    random_lincomb,
    reduce,
    rewrite_reduce,
    universal_map,
)
from avalg.instances import standard_fixtures
from avalg.words import (
    AveragingWord,
    head_index,
    iter_bracketed_words,
    parse_word,
    random_averaging_word,
    render_word,
    tail_index,
)


def aw(text):
    return AveragingWord(parse_word(text))


class TestDiamond:
    def test_letter_times_bracket(self):
        assert diamond(aw("x"), aw("[x]")) == aw("x[x]")

    def test_powered_brackets_merge(self):
        assert diamond(aw("[x[x]]^2"), aw("[x]^3")) == aw("[x[x[x]]]^4")

    def test_bracket_times_letter_concatenates(self):
        assert diamond(aw("[x]"), aw("x")) == aw("[x]x")

    def test_junction_merge_inside_longer_words(self):
        assert diamond(aw("x[x]"), aw("[x]x")) == aw("x[x[x]]x")

    def test_head_tail_preserved(self):
        rng = random.Random(21)
        for _ in range(500):
            u = random_averaging_word(rng)
            v = random_averaging_word(rng)
            p = diamond(u, v)
            assert head_index(p.word) == head_index(u.word)
            assert tail_index(p.word) == tail_index(v.word)

    def test_associativity_sampled(self):
        rng = random.Random(22)
        for _ in range(500):
            u = random_averaging_word(rng, max_depth=4)
            v = random_averaging_word(rng, max_depth=4)
            w = random_averaging_word(rng, max_depth=4)
            assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w))


class TestApplyP:
    def test_bracket_then_letter(self):
        assert apply_p(aw("[x[y]]z")) == aw("[x[y[z]]]")

    def test_power_tail(self):
        assert apply_p(aw("x[y]^2")) == aw("[x[y]]^2")

    def test_bracket_letter_bracket(self):
        assert apply_p(aw("[x[y]]z[x]^2")) == aw("[x[y[z[x]]]]^2")

    def test_plain_wrap_cases(self):
        assert apply_p(aw("x")) == aw("[x]")
        assert apply_p(aw("[x]")) == aw("[x]^2")
        assert apply_p(aw("x[x]")) == aw("[x[x]]")

    @pytest.mark.parametrize("text", ["x", "x y", "x[y]^2x", "x[x]", "x[y[x]]"])
    def test_plain_wrap_keeps_the_input_word(self, text):
        # head 0 and a letter or power-1 bracket at the tail: the core of the
        # result is the certified input word itself, not a copy
        u = aw(text)
        assert apply_p(u).word.factors[0].core is u.word

    def test_averaging_identities_sampled(self):
        rng = random.Random(23)
        for _ in range(500):
            u = random_averaging_word(rng, max_depth=4)
            v = random_averaging_word(rng, max_depth=4)
            pu_pv = diamond(apply_p(u), apply_p(v))
            assert pu_pv == apply_p(diamond(apply_p(u), v))
            assert pu_pv == apply_p(diamond(u, apply_p(v)))

    def test_agrees_with_reduce_of_wrapped_word(self):
        from avalg.words import Bracket, BracketedWord

        rng = random.Random(24)
        for _ in range(400):
            u = random_averaging_word(rng, max_depth=3)
            wrapped = BracketedWord((Bracket(u.word, 1),))
            assert apply_p(u) == reduce(wrapped)


class TestReduce:
    def test_adjacent_powers(self):
        assert reduce(parse_word("[x][x]^2")) == aw("[x[x]]^2")

    def test_bracket_headed(self):
        # one application of the operator identity, frozen via the rewrite oracle
        expected = rewrite_reduce(parse_word("[[x]x]"))
        assert expected == aw("[x[x]]")
        assert reduce(parse_word("[[x]x]")) == expected

    def test_identity_on_averaging_words(self):
        assert reduce(parse_word("x[x]x")) == aw("x[x]x")
        rng = random.Random(25)
        for _ in range(300):
            u = random_averaging_word(rng)
            assert reduce(u.word) == u

    def test_quotient_compatibility(self):
        from avalg.words import BracketedWord

        rng = random.Random(26)
        for _ in range(300):
            u = random_averaging_word(rng, max_depth=3)
            v = random_averaging_word(rng, max_depth=3)
            concat = BracketedWord(u.word.factors + v.word.factors)
            assert diamond(u, v) == reduce(concat)

    def test_long_merge_chain(self):
        # every merge appends at the foot of a 20000-deep spine; a core that
        # rebuilt the spine per merge would be quadratic and recurse per level
        L = 20000
        assert render_word(reduce(parse_word("[x]" * L))) == "[x" * L + "]" * L


class TestInputsUnchanged:
    """The evaluation core edits its values in place; no input may change."""

    def test_reduce_twice(self):
        for text in ("[x][x]^2[[y]x]^3", "[x]" * 30, "[[x]y]^2x[x[y]^3][y]", "x[[x]]y[x][y]^2"):
            w = parse_word(text)
            before = render_word(w)
            first, second = reduce(w), reduce(w)
            assert render_word(w) == before
            assert first == second == rewrite_reduce(w)

    def test_reused_bracket_object(self):
        from avalg.words import bracket, letter, word

        b = bracket(parse_word("x[y]^2"))
        for w in (word(b, letter("x"), b, b), word(bracket(word(b, b)), b)):
            before = render_word(w)
            nf = reduce(w)
            assert render_word(w) == before
            assert render_word(word(b)) == "[x[y]^2]"
            assert nf == rewrite_reduce(w)

    def test_diamond_and_apply_p_on_certified_words(self):
        from avalg.words import Bracket, BracketedWord

        rng = random.Random(29)
        texts = ["[x[y]]", "[x[y[x]]]^2", "[x]y[x[y]]", "[x[y]]^3x[y]^2"]
        texts += [render_word(random_averaging_word(rng, max_depth=4)) for _ in range(150)]
        for text in texts:
            u = aw(text)
            product, applied = diamond(u, u), apply_p(u)
            assert render_word(u) == text
            assert product == rewrite_reduce(BracketedWord(u.word.factors * 2))
            assert applied == rewrite_reduce(BracketedWord((Bracket(u.word, 1),)))


class TestRewriteReduce:
    def test_power_tail_rule(self):
        assert rewrite_reduce(parse_word("[x[x]^2]")) == aw("[x[x]]^2")

    def test_adjacent_rule(self):
        assert rewrite_reduce(parse_word("[x][x]")) == aw("[x[x]]")

    def test_zero_rewrites_on_normal_forms(self):
        rng = random.Random(27)
        for _ in range(200):
            u = random_averaging_word(rng)
            assert rewrite_reduce(u.word) == u

    def test_budget_error_raised(self):
        with pytest.raises(StepBudgetExceeded):
            rewrite_reduce(parse_word("[x][x][x][x]"), budget=1)

    def test_oracle_equivalence_exhaustive_size_6(self):
        for w in iter_bracketed_words(6):
            nf = rewrite_reduce(w)
            assert nf == reduce(w)
            assert nf == rewrite_reduce(w, strategy="outermost")

    def test_oracle_equivalence_random_larger(self):
        from avalg.words import random_bracketed_word

        rng = random.Random(28)
        for _ in range(300):
            w = random_bracketed_word(rng, alphabet=("x", "y"), max_size=14)
            nf = rewrite_reduce(w)
            assert nf == reduce(w)
            assert nf == rewrite_reduce(w, strategy="outermost")

    def test_oracle_equivalence_two_letters_exhaustive(self):
        import itertools

        from avalg.words import Bracket, BracketedWord, Letter, arity

        def relabel(v, letters):
            it = iter(letters)

            def walk(u):
                fs = []
                for f in u.factors:
                    if isinstance(f, Letter):
                        fs.append(Letter(next(it)))
                    else:
                        fs.append(Bracket(walk(f.core), f.power))
                return BracketedWord(tuple(fs))

            return walk(v)

        checked = 0
        for shape in iter_bracketed_words(5):
            for combo in itertools.product("xy", repeat=arity(shape)):
                w = relabel(shape, combo)
                nf = rewrite_reduce(w)
                assert nf == reduce(w)
                assert nf == rewrite_reduce(w, strategy="outermost")
                checked += 1
        assert checked == 514


class TestLinearCombination:
    def test_bilinear_product_of_monomials(self):
        a = LinearCombination.of(aw("x"), 2)
        b = LinearCombination.of(aw("[x]"), 3)
        assert a * b == LinearCombination.of(aw("x[x]"), 6)

    def test_operator_is_linear(self):
        v = LinearCombination.of(aw("x")) + LinearCombination.of(aw("[x]"))
        assert v.operator() == LinearCombination.of(aw("[x]")) + LinearCombination.of(
            aw("[x]^2")
        )

    def test_cancellation(self):
        v = LinearCombination.of(aw("x")) - LinearCombination.of(aw("x"))
        assert v.is_zero()
        assert str(v) == "0"

    def test_canonical_order(self):
        v = parse_lincomb("1*[x] + 2*x + 3*[x[x]]")
        rendered = [render_word(w) for w, _ in v.terms]
        assert rendered == ["x", "[x]", "[x[x]]"]

    def test_text_round_trip(self):
        v = parse_lincomb("2*x[x] - 1/3*[x] + x")
        assert parse_lincomb(str(v)) == v
        assert v.coeff(aw("[x]")) == Fraction(-1, 3)
        assert v.coeff(aw("x")) == 1

    def test_leading_negative_coefficient(self):
        v = parse_lincomb("-1/2*x + y")
        assert v.coeff(aw("x")) == Fraction(-1, 2)
        assert v.coeff(aw("y")) == 1
        assert parse_lincomb(str(v)) == v

    def test_json_round_trip(self):
        v = parse_lincomb("1/2*[x[x]]^2 + 5*x")
        assert LinearCombination.from_json(v.to_json()) == v

    def test_parse_errors(self):
        with pytest.raises(LinCombSyntaxError):
            parse_lincomb("2*")
        with pytest.raises(LinCombSyntaxError):
            parse_lincomb("a/b*x")

    def test_distributivity_sampled(self):
        rng = random.Random(29)
        for _ in range(100):
            a = random_lincomb(rng)
            b = random_lincomb(rng)
            c = random_lincomb(rng)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


class TestUniversalMap:
    def test_central_multiplier_bracket(self):
        alg = standard_fixtures()["central_dual_numbers"]
        q = alg.element([2, 3])
        got = universal_map({"x": q}, alg, LinearCombination.of(aw("[x]")))
        a = alg.element([0, 1])
        assert got == alg.multiply(a, q)

    def test_square_of_letter(self):
        for alg in standard_fixtures().values():
            q = alg.basis_vector(alg.dim - 1)
            got = universal_map({"x": q}, alg, aw("x x"))
            assert got == alg.multiply(q, q)

    def test_bracket_then_letter(self):
        for alg in standard_fixtures().values():
            q = alg.basis_vector(0)
            got = universal_map({"x": q}, alg, aw("[x]x"))
            assert got == alg.multiply(alg.operator(q), q)

    def test_unmapped_letter(self):
        alg = standard_fixtures()["central_dual_numbers"]
        with pytest.raises(KeyError):
            universal_map({"x": alg.zero}, alg, aw("x y"))

    def test_identity_into_the_free_algebra_itself(self):
        # the free algebra is its own target: sending each letter to itself
        # must extend to the identity map
        class FreeTarget:
            zero = LinearCombination.zero()

            @staticmethod
            def multiply(a, b):
                return a * b

            @staticmethod
            def operator(a):
                return a.operator()

            @staticmethod
            def add(a, b):
                return a + b

            @staticmethod
            def scale(c, a):
                return a.scale(c)

        assignment = {
            "x": LinearCombination.of(aw("x")),
            "y": LinearCombination.of(aw("y")),
        }
        rng = random.Random(31)
        for _ in range(150):
            v = random_lincomb(rng)
            assert universal_map(assignment, FreeTarget, v) == v

    def test_homomorphism_into_every_fixture(self):
        rng = random.Random(30)
        fixtures = standard_fixtures()
        for name, alg in fixtures.items():
            assignment = {
                "x": alg.element([rng.randint(-2, 2) for _ in range(alg.dim)]),
                "y": alg.element([rng.randint(-2, 2) for _ in range(alg.dim)]),
            }
            for _ in range(40):
                a = random_lincomb(rng, max_depth=2)
                b = random_lincomb(rng, max_depth=2)
                fa = universal_map(assignment, alg, a)
                fb = universal_map(assignment, alg, b)
                assert universal_map(assignment, alg, a * b) == alg.multiply(fa, fb)
                assert universal_map(assignment, alg, a.operator()) == alg.operator(fa)
                assert universal_map(assignment, alg, a + b) == alg.add(fa, fb)
