import random
from fractions import Fraction
from math import lcm

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
from avalg.instances import FiniteAlgebra, standard_fixtures
from avalg.words import (
    AveragingWord,
    Bracket,
    Letter,
    _evaluate,
    _layers,
    _trusted,
    head_index,
    iter_bracketed_words,
    parse_word,
    random_averaging_word,
    raw,
    render_word,
    tail_index,
    word,
)
from test_instances import ALGEBRAS, HALF, RATIONAL


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

    def test_zero_results(self):
        v = parse_lincomb("2*x + [x]")
        assert v.coeff(aw("y")) == 0
        assert v.scale(0) == LinearCombination.zero() and v.scale(0).is_zero()
        assert parse_lincomb("0") == LinearCombination.zero()

    def test_json_round_trip(self):
        v = parse_lincomb("1/2*[x[x]]^2 + 5*x")
        assert LinearCombination.from_json(v.to_json()) == v

    def test_parse_errors(self):
        with pytest.raises(LinCombSyntaxError):
            parse_lincomb("2*")
        with pytest.raises(LinCombSyntaxError):
            parse_lincomb("a/b*x")
        with pytest.raises(LinCombSyntaxError) as err:
            parse_lincomb("   ")
        assert str(err.value) == "empty linear combination"

    @pytest.mark.parametrize("text, sign", [("x +", "+"), ("x -", "-"), ("2*x - ", "-"),
                                            ("[x] + y -", "-")])
    def test_dangling_sign(self, text, sign):
        with pytest.raises(LinCombSyntaxError) as err:
            parse_lincomb(text)
        assert str(err.value) == f"dangling '{sign}'"

    def test_distributivity_sampled(self):
        rng = random.Random(29)
        for _ in range(100):
            a = random_lincomb(rng)
            b = random_lincomb(rng)
            c = random_lincomb(rng)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def universal_map_by_definition(assignment, target, value):
    """The homomorphism as a fold over the target's ``multiply`` and
    ``operator``, with a combination's terms summed by ``add`` and ``scale``:
    no encoded values anywhere."""
    if isinstance(value, LinearCombination):
        total = target.zero
        for w, c in value.terms:
            image = _evaluate(raw(w), assignment.__getitem__, target.multiply,
                              _layers(target.operator))
            total = target.add(total, target.scale(c, image))
        return total
    return _evaluate(raw(value), assignment.__getitem__, target.multiply,
                     _layers(target.operator))


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

    def test_deep_nesting_without_recursion(self):
        # [x[x...[x]...]] 1200 deep is x^1200 under the identity operator,
        # and (1 + y)^1200 = 1 + 1200y in the dual numbers
        alg = standard_fixtures()["identity_dual_numbers"]
        deep = parse_word("[x" * 1200 + "]" * 1200)
        got = universal_map({"x": alg.element([1, 1])}, alg, deep)
        assert got == alg.element([1, 1200])

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

    def test_operations_get_the_assignments_own_elements(self):
        # the contract of a target without the encoded protocol: multiply and
        # operator get the assignment's elements uncopied, so they must not
        # mutate their arguments; a target that keeps to it gets x x x = 8
        received = []

        class Lists:
            @staticmethod
            def multiply(a, b):
                received.extend((a, b))
                return [a[0] * b[0]]

            @staticmethod
            def operator(a):
                received.append(a)
                return [a[0] + 1]

        two = [2]
        assignment = {"x": two}
        assert universal_map(assignment, Lists, aw("x x x")) == [8]
        assert universal_map(assignment, Lists, aw("[x]x")) == [6]
        assert assignment == {"x": [2]} and assignment["x"] is two
        assert any(arg is two for arg in received)
        assert "must not mutate their arguments" in universal_map.__doc__

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

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_agrees_with_the_fold_by_definition(self, name):
        alg = ALGEBRAS[name]
        rng = random.Random(f"fold:{name}")

        def entry():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

        assignment = {s: alg.element([entry() for _ in range(alg.dim)]) for s in "xy"}
        values = [LinearCombination.zero(), aw("x"), aw("[y]^2 x")]
        values += [random_lincomb(rng, max_terms=4, max_depth=3) for _ in range(60)]
        for v in values:
            got = universal_map(assignment, alg, v)
            assert got == universal_map_by_definition(assignment, alg, v), str(v)
            assert all(type(c) is Fraction for c in got)

    def test_kernel_values_stay_in_lowest_terms_at_depth(self):
        # RATIONAL has denominators in both tables; without a gcd per kernel
        # value the denominators would multiply at every level
        values = []

        class Recording(FiniteAlgebra):
            def kernel_multiply(self, x, y):
                values.append(super().kernel_multiply(x, y))
                return values[-1]

            def kernel_operator(self, x):
                values.append(super().kernel_operator(x))
                return values[-1]

        alg = Recording(RATIONAL.basis, RATIONAL.mul, RATIONAL.op)
        deep = parse_word("[x" * 300 + "]" * 300)
        x = alg.element([Fraction(2, 3), Fraction(-1, 5)])
        values.clear()
        got = universal_map({"x": x}, alg, deep)
        assert len(values) == 599  # 300 operators and 299 products
        assert got == universal_map_by_definition({"x": x}, RATIONAL, deep)
        for v in values:
            assert v[1] == lcm(*[c.denominator for c in alg.decode(v)])

    @staticmethod
    def shared_brackets():
        """Four terms over one ``[x[y]]^2`` object, whose core holds one ``[y]``."""
        inner = Bracket(word(Letter("y")), 1)
        b = Bracket(word(Letter("x"), inner), 2)
        x = Letter("x")
        terms = [((b,), 1), ((x, b), 2), ((b, x), Fraction(-1, 3)), ((x, b, x), 5)]
        return LinearCombination.from_terms((_trusted(f), c) for f, c in terms), b

    def test_each_shared_bracket_is_evaluated_once(self):
        calls = []

        class Counting(FiniteAlgebra):
            def kernel_operator(self, x):
                calls.append(x)
                return super().kernel_operator(x)

        v, b = self.shared_brackets()
        assert all(any(f is b for f in raw(w).factors) for w, _ in v.terms)
        alg = Counting(RATIONAL.basis, RATIONAL.mul, RATIONAL.op)
        assignment = {"x": alg.element([Fraction(2, 3), -1]), "y": alg.element([1, HALF])}
        got = universal_map(assignment, alg, v)
        assert len(calls) == 3  # [y] once and the two layers of b once, not 4 x 3
        assert got == universal_map_by_definition(assignment, RATIONAL, v)

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_shared_brackets_agree_with_the_fold_by_definition(self, name):
        # products and operators of combinations reuse their inputs' brackets
        alg = ALGEBRAS[name]
        rng = random.Random(f"shared:{name}")
        assignment = {s: alg.element([Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                      for _ in range(alg.dim)]) for s in "xy"}
        values = [self.shared_brackets()[0]]
        for _ in range(20):
            a, b = random_lincomb(rng, max_terms=4), random_lincomb(rng, max_terms=4)
            values += [a * b, a.operator(), (a * b).operator()]
        shared = 0
        for v in values:
            ids = [id(f) for w, _ in v.terms for f in raw(w).factors if isinstance(f, Bracket)]
            shared += len(ids) - len(set(ids))
            assert universal_map(assignment, alg, v) == universal_map_by_definition(assignment, alg, v)
        assert shared > 20

    def test_a_target_whose_multiply_changes_its_left_argument(self):
        # a target without the encoded protocol may change what it is handed,
        # so a shared bracket's image is computed afresh for each term.  Every
        # product here has a bracket on its left, never an assigned element.
        class Scalars:
            zero = [Fraction(0)]

            @staticmethod
            def multiply(a, b):
                a[0] *= b[0]
                return a

            @staticmethod
            def operator(a):
                return [a[0] / 2]

            @staticmethod
            def add(a, b):
                return [a[0] + b[0]]

            @staticmethod
            def scale(c, a):
                return [c * a[0]]

        bx = Bracket(word(Letter("x")), 1)
        y = Letter("y")
        terms = [((bx, y), 1), ((bx,), 1), ((bx, y, bx), 2)]
        v = LinearCombination.from_terms((_trusted(f), c) for f, c in terms)
        got = universal_map({"x": [Fraction(3)], "y": [Fraction(5)]}, Scalars, v)
        # P(x) = 3/2: 3/2 * 5 + 3/2 + 2 * (3/2 * 5 * 3/2)
        assert got == [Fraction(15, 2) + Fraction(3, 2) + Fraction(45, 2)]
