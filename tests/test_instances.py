import itertools
import json
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalg.instances import (
    FiniteAlgebra,
    algebra_from_json,
    algebra_to_json,
    build_instance,
    central_multiplier,
    check_averaging,
    check_reynolds,
    decomposition_is_graded,
    group_algebra_average,
    group_average,
    is_idempotent,
    product_algebra,
    square_zero_derivation,
    standard_fixtures,
    super_projection,
    truncated_polynomial_algebra,
)
from avalg.instances import _solve

BASIS2, MUL2 = truncated_polynomial_algebra(2)  # k[y]/(y^2), basis 1, y


def dual_numbers_with(op):
    return FiniteAlgebra(BASIS2, MUL2, op)


def multiply_by_definition(alg, x, y):
    """The product as the structure constants define it, in Fraction arithmetic."""
    out = [Fraction(0)] * alg.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            for k, c in enumerate(alg.mul[i][j]):
                if c:
                    out[k] += coeff * c
    return tuple(out)


def operator_by_definition(alg, x):
    out = [Fraction(0)] * alg.dim
    for i, xi in enumerate(x):
        if xi:
            for k, c in enumerate(alg.op[i]):
                if c:
                    out[k] += xi * c
    return tuple(out)


# e e = e/2, e n = n e = n/2, n n = 0 (the dual numbers with unit 2e), with a
# rational operator: both kernel denominators exceed 1
HALF = Fraction(1, 2)
RATIONAL = FiniteAlgebra(
    ("e", "n"), [[[HALF, 0], [0, HALF]], [[0, HALF], [0, 0]]], [[0, 0], [0, 0]]
).with_operator([[Fraction(1, 3), Fraction(-2, 5)], [Fraction(3, 4), 0]])
ALGEBRAS = {**standard_fixtures(), "rational": RATIONAL}

_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


def _vectors(dim):
    return st.tuples(*[_entries] * dim)


def averaging_failure_by_definition(alg):
    """``check_averaging`` over the Fraction loops above."""
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    p = [operator_by_definition(alg, v) for v in e]
    for i, j in itertools.product(range(alg.dim), repeat=2):
        sides = {multiply_by_definition(alg, p[i], p[j]),
                 operator_by_definition(alg, multiply_by_definition(alg, e[i], p[j])),
                 operator_by_definition(alg, multiply_by_definition(alg, p[i], e[j]))}
        if len(sides) > 1:
            return i, j
    return None


def dense_algebra(n, seed):
    """k^n, coordinatewise, in the random integer basis f_i = sum_k m[i][k] e_k
    (diagonally dominant, so a basis), with P(x) = a x for a random a: its
    constants are nonzero rationals almost everywhere."""
    rng = random.Random(seed)
    m = [[Fraction(11 if i == k else rng.randint(-2, 2)) for k in range(n)] for i in range(n)]
    # e_k = sum_l inv[k][l] f_l
    inv = [_solve([[m[l][t] for l in range(n)] for t in range(n)],
                  [Fraction(int(t == k)) for t in range(n)]) for k in range(n)]
    mul = [[[sum(m[i][k] * m[j][k] * inv[k][l] for k in range(n)) for l in range(n)]
            for j in range(n)] for i in range(n)]
    return central_multiplier(tuple(f"f{i}" for i in range(n)), mul,
                              [rng.randint(-3, 3) for _ in range(n)])


KERNEL_CASES = {
    **ALGEBRAS,
    "dim0": FiniteAlgebra((), (), ()),
    "dim1": FiniteAlgebra(("e",), [[[Fraction(-3, 4)]]], [[Fraction(5, 7)]]),
    "dense6": dense_algebra(6, 0),
}


class TestBuilders:
    def test_central_multiplier_dual_numbers(self):
        alg = build_instance("CentralMultiplier", basis=BASIS2, mul=MUL2, a=[0, 1])
        # multiplication by y sends 1 to y and y to 0
        assert alg.operator(alg.basis_vector(0)) == alg.basis_vector(1)
        assert alg.operator(alg.basis_vector(1)) == alg.zero
        assert check_averaging(alg) is None

    def test_group_algebra_z2(self):
        alg = build_instance("GroupAverage", table=[[0, 1], [1, 0]], labels=("e", "g"))
        everything = alg.add(alg.basis_vector(0), alg.basis_vector(1))
        assert alg.operator(alg.basis_vector(0)) == everything
        assert alg.operator(alg.basis_vector(1)) == everything
        assert check_averaging(alg) is None

    def test_permutation_action_average(self):
        basis, mul = product_algebra(3)
        cycle = (1, 2, 0)
        square = (2, 0, 1)
        alg = build_instance(
            "GroupAverage", basis=basis, mul=mul, perms=[(0, 1, 2), cycle, square]
        )
        ones = tuple(Fraction(1) for _ in range(3))
        assert alg.operator(alg.basis_vector(0)) == ones
        assert check_averaging(alg) is None

    def test_super_projection(self):
        alg = build_instance("SuperProjection", basis=BASIS2, mul=MUL2, grading=(0, 1))
        assert check_averaging(alg) is None
        assert is_idempotent(alg)

    def test_square_zero_derivation(self):
        basis3, mul3 = truncated_polynomial_algebra(3, "u")
        alg = build_instance(
            "SquareZeroDerivation",
            basis=basis3,
            mul=mul3,
            d=[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        )
        assert check_averaging(alg) is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_instance("Bogus")


class TestBuilderValidation:
    def test_non_central_element_rejected(self):
        # upper triangular 2x2 span of 1 and the nilpotent E12... use the
        # noncommutative semigroup algebra of left-zero multiplication
        basis = ("p", "q")
        mul = [
            [[1, 0], [0, 1]],  # p*p = p, p*q = q
            [[1, 0], [0, 1]],  # q*p = p, q*q = q  (right entries act as identity)
        ]
        with pytest.raises(ValueError, match="central"):
            central_multiplier(basis, mul, [1, 0])

    def test_non_automorphism_action_rejected(self):
        with pytest.raises(ValueError, match="automorphism"):
            group_average(BASIS2, MUL2, [(0, 1), (1, 0)])

    def test_action_must_be_a_group(self):
        basis, mul = product_algebra(3)
        with pytest.raises(ValueError, match="closed|identity"):
            group_average(basis, mul, [(0, 1, 2), (1, 2, 0), (1, 2, 0)][1:])

    def test_bad_grading_rejected(self):
        with pytest.raises(ValueError):
            super_projection(BASIS2, MUL2, (1, 0))  # 1 would be odd: 1*1=1 breaks

    def test_nonzero_square_rejected(self):
        with pytest.raises(ValueError, match="d\\^2"):
            square_zero_derivation(BASIS2, MUL2, [[0, 1], [1, 0]])

    def test_leibniz_failure_rejected(self):
        with pytest.raises(ValueError, match="Leibniz"):
            square_zero_derivation(BASIS2, MUL2, [[0, 1], [0, 0]])

    def test_associativity_checked_on_construction(self):
        basis = ("a", "b")
        mul = [
            [[0, 1], [1, 0]],
            [[1, 0], [0, 0]],
        ]
        with pytest.raises(ValueError, match="associative"):
            FiniteAlgebra(basis, mul, [[0, 0], [0, 0]])


def raises_exactly(kind, message, call):
    with pytest.raises(kind) as err:
        call()
    assert str(err.value) == message


ZERO2 = [[0, 0], [0, 0]]


class TestDocumentedFailures:
    """Each documented failure of this module, with its exact message."""

    @pytest.mark.parametrize("mul, op, message", [
        (MUL2[:1], ZERO2, "multiplication table has wrong shape"),
        ([MUL2[0], [MUL2[1][0]]], ZERO2, "multiplication table has wrong shape"),
        (MUL2, [[0, 0]], "operator matrix has wrong shape"),
        (MUL2, [[0, 0], [0]], "operator matrix has wrong shape"),
    ])
    def test_wrong_shapes(self, mul, op, message):
        raises_exactly(ValueError, message, lambda: FiniteAlgebra(BASIS2, mul, op))

    def test_float_entry(self):
        raises_exactly(TypeError, "not an exact rational: 1.5",
                       lambda: FiniteAlgebra(BASIS2, MUL2, [[1.5, 0], [0, 0]]))

    def test_entry_with_a_numerator_and_no_denominator(self):
        class Numerator:
            numerator = 1

        alg = dual_numbers_with(ZERO2)
        # the repr holds an address, so only the prefix is pinned
        with pytest.raises(TypeError) as err:
            alg.operator((Numerator(), 0))
        assert str(err.value).startswith("not an exact rational: <")

    def test_zero_dimensional_algebra(self):
        zero = FiniteAlgebra((), (), ())
        assert zero.unit() == () and decomposition_is_graded(zero) is True
        assert check_averaging(zero) is None and check_reynolds(zero) is None

    def test_element_with_the_wrong_coefficient_count(self):
        alg = dual_numbers_with(ZERO2)
        raises_exactly(ValueError, "wrong coefficient count", lambda: alg.element([1]))

    def test_unit(self):
        assert dual_numbers_with(ZERO2).unit() == (1, 0)
        # no u with u e_j = e_j: the zero product
        zero = FiniteAlgebra(("a", "b"), [[[0, 0]] * 2] * 2, ZERO2)
        assert zero.unit() is None
        # x y = y: every u with u_p + u_q = 1 is a left unit, none a right one
        right_zero = FiniteAlgebra(("p", "q"), [[[1, 0], [0, 1]]] * 2, ZERO2)
        assert right_zero.unit() is None

    def test_decomposition_needs_an_idempotent(self):
        swap = dual_numbers_with([[0, 1], [1, 0]])
        raises_exactly(ValueError, "decomposition test needs an idempotent operator",
                       lambda: decomposition_is_graded(swap))

    def test_decomposition_that_is_not_graded(self):
        # P(1) = 1 + y, P(y) = 0: idempotent, and its image [1 + y] squares
        # to 1 + 2y, outside the image
        alg = dual_numbers_with([[1, 1], [0, 0]])
        assert is_idempotent(alg) and check_averaging(alg) == (0, 0)
        assert decomposition_is_graded(alg) is False
        # x y = y, P(p) = -q, P(q) = q: the image [q] and the kernel [p + q]
        # are closed, and q (p + q) lies in the kernel, but (p + q) q = 2q does not
        right_zero = FiniteAlgebra(("p", "q"), [[[1, 0], [0, 1]]] * 2, [[0, -1], [0, 1]])
        assert is_idempotent(right_zero) and check_averaging(right_zero) == (0, 0)
        assert decomposition_is_graded(right_zero) is False
        # x y = x, the same operator: the kernel [p + q] times the image [q]
        # is p + q again, but q (p + q) = 2q leaves the kernel
        left_zero = FiniteAlgebra(("p", "q"), [[[1, 0], [1, 0]], [[0, 1], [0, 1]]],
                                  [[0, -1], [0, 1]])
        assert is_idempotent(left_zero) and check_averaging(left_zero) == (0, 0)
        assert decomposition_is_graded(left_zero) is False

    def test_group_average_needs_permutations(self):
        basis, mul = product_algebra(2)
        raises_exactly(ValueError, "not a permutation of the basis: (0, 0)",
                       lambda: group_average(basis, mul, [(0, 1), (0, 0)]))

    def test_group_average_needs_a_closed_set(self):
        basis, mul = product_algebra(3)
        raises_exactly(ValueError, "the permutations are not closed under composition",
                       lambda: group_average(basis, mul, [(0, 1, 2), (1, 2, 0)]))

    def test_group_algebra_default_labels(self):
        alg = group_algebra_average([[0, 1], [1, 0]])
        assert alg.basis == ("g0", "g1")
        assert alg == group_algebra_average([[0, 1], [1, 0]], ("g0", "g1"))

    @pytest.mark.parametrize("table, message", [
        ([[0, 1], [1]], "Cayley table must be square"),
        ([[0, 0], [0, 0]], "Cayley table has no identity element"),
        ([[0, 1], [1, 1]], "Cayley table has no inverses"),
    ])
    def test_group_algebra_tables(self, table, message):
        raises_exactly(ValueError, message, lambda: group_algebra_average(table))

    @pytest.mark.parametrize("grading", [(0, 2), (0,), (0, 1, 0)])
    def test_grading_outside_0_and_1(self, grading):
        raises_exactly(ValueError, "grading must assign 0 or 1 to every basis vector",
                       lambda: super_projection(BASIS2, MUL2, grading))


class TestKernel:
    def test_denominators_are_cleared(self):
        assert RATIONAL._mul_int[0] == 2 and RATIONAL._op_int[0] == 60

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_agrees_with_the_definition(self, name, data):
        alg = ALGEBRAS[name]
        x, y = data.draw(_vectors(alg.dim)), data.draw(_vectors(alg.dim))
        product, image = alg.multiply(x, y), alg.operator(x)
        assert product == multiply_by_definition(alg, x, y)
        assert image == operator_by_definition(alg, x)
        assert all(type(c) is Fraction for c in product + image)
        c = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=12))
        assert alg.decode(alg.encode(x)) == x
        combined = alg.kernel_sum([(c, alg.encode(x)), (Fraction(-1), alg.encode(y))])
        assert alg.decode(combined) == alg.add(alg.scale(c, x), alg.scale(-1, y))

    def test_the_dense_case_is_dense(self):
        alg = KERNEL_CASES["dense6"]
        assert sum(1 for plane in alg.mul for row in plane for c in row if not c) < 6**3 // 10
        assert all(c and c.denominator > 1 for row in alg.op for c in row)

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_unrolled_kernel_agrees_with_the_fraction_loop(self, name):
        alg = KERNEL_CASES[name]
        rng = random.Random(name)
        vectors = [alg.zero] + [alg.basis_vector(i) for i in range(alg.dim)] + [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * (rng.random() < 0.7)
                  for _ in range(alg.dim)) for _ in range(6)]
        for x in vectors:
            assert alg.operator(x) == operator_by_definition(alg, x)
            for y in vectors:
                assert alg.multiply(x, y) == multiply_by_definition(alg, x, y)
                xy = alg.kernel_multiply(alg.encode(x), alg.encode(y))
                assert xy[1] == lcm(*[c.denominator for c in alg.decode(xy)])  # lowest terms

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_checks_agree_with_the_fraction_loop(self, name):
        alg = KERNEL_CASES[name]
        rng = random.Random(name)
        # the operator and three near it, some of them not averaging
        for a in [alg] + [alg.with_operator([[c + rng.choice((0,) * 5 + (1, -1)) for c in row]
                                             for row in alg.op]) for _ in range(3)]:
            assert check_averaging(a) == averaging_failure_by_definition(a)

    def test_a_constant_past_the_int_to_text_limit(self):
        # the kernel's text holds indices, never a constant, so a constant
        # with more digits than the int-to-text limit still builds and runs
        big = 10**5000
        alg = FiniteAlgebra(("u", "n"), [[[big, 0], [0, big]], [[0, big], [0, 0]]],
                            [[Fraction(1, 3), big], [0, -1]])
        x, y = (Fraction(1, 3), Fraction(2)), (Fraction(1), Fraction(-1, 2))
        assert alg.multiply(x, y) == multiply_by_definition(alg, x, y)
        assert alg.operator(x) == operator_by_definition(alg, x)

    def test_inexact_entries_are_type_errors(self):
        alg = standard_fixtures()["central_dual_numbers"]
        one_two = (Fraction(1), Fraction(2))
        for call in (lambda: alg.multiply((1.5, 0.0), one_two),
                     lambda: alg.multiply(one_two, (Fraction(1), 0.0)),
                     lambda: alg.operator((Fraction(1), "1/2"))):
            with pytest.raises(TypeError, match="not an exact rational"):
                call()

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_kernel_is_not_a_field(self, name):
        alg = ALGEBRAS[name]
        copy = pickle.loads(pickle.dumps(alg))
        assert copy == alg and hash(copy) == hash(alg) == hash((alg.basis, alg.mul, alg.op))
        assert repr(copy) == repr(alg) == (
            f"FiniteAlgebra(basis={alg.basis!r}, mul={alg.mul!r}, op={alg.op!r})"
        )
        assert algebra_to_json(copy) == algebra_to_json(alg)
        x = tuple(Fraction(k - 1, k + 1) for k in range(alg.dim))
        assert copy.multiply(x, x) == multiply_by_definition(alg, x, x)


class TestChecks:
    def test_all_fixtures_average(self):
        for name, alg in standard_fixtures().items():
            assert check_averaging(alg) is None, name

    def test_identity_operator_passes(self):
        ident = [[1, 0], [0, 1]]
        assert check_averaging(dual_numbers_with(ident)) is None

    def test_swap_operator_fails_with_real_counterexample(self):
        swap = dual_numbers_with([[0, 1], [1, 0]])
        pair = check_averaging(swap)
        assert pair is not None
        i, j = pair
        ei, ej = swap.basis_vector(i), swap.basis_vector(j)
        pi, pj = swap.operator(ei), swap.operator(ej)
        lhs = swap.multiply(pi, pj)
        assert lhs != swap.operator(swap.multiply(ei, pj)) or lhs != swap.operator(
            swap.multiply(pi, ej)
        )

    def test_zero_operator_reynolds(self):
        zero = dual_numbers_with([[0, 0], [0, 0]])
        assert check_reynolds(zero) is None
        assert check_averaging(zero) is None

    def test_idempotent_averaging_is_reynolds(self):
        for name, alg in standard_fixtures().items():
            if is_idempotent(alg):
                assert check_reynolds(alg) is None, name

    def test_nonidempotent_averaging_failing_reynolds_found_by_search(self):
        # brute force over central multipliers on k[y]/(y^k)
        found = None
        for k in (2, 3, 4):
            basis, mul = truncated_polynomial_algebra(k)
            for coeffs in itertools.product((0, 1), repeat=k):
                alg = central_multiplier(basis, mul, list(coeffs))
                if check_averaging(alg) is None and not is_idempotent(alg):
                    if check_reynolds(alg) is not None:
                        found = (k, coeffs, check_reynolds(alg))
                        break
            if found:
                break
        assert found is not None
        k, coeffs, pair = found
        # first hit: multiplication by 1 + y on the dual numbers
        assert k == 2 and coeffs == (1, 1)
        basis, mul = truncated_polynomial_algebra(k)
        alg = central_multiplier(basis, mul, list(coeffs))
        i, j = pair
        f, g = alg.basis_vector(i), alg.basis_vector(j)
        pf, pg = alg.operator(f), alg.operator(g)
        df = alg.add(f, alg.scale(-1, pf))
        dg = alg.add(g, alg.scale(-1, pg))
        lhs = alg.operator(alg.multiply(f, g))
        rhs = alg.add(alg.multiply(pf, pg), alg.operator(alg.multiply(df, dg)))
        assert lhs != rhs

    def test_nilpotent4_central_multiplier_fails_reynolds(self):
        alg = standard_fixtures()["central_nilpotent4"]
        assert check_averaging(alg) is None
        assert not is_idempotent(alg)
        assert check_reynolds(alg) is not None


def _enumerated_idempotents(basis, mul, entries=(0, 1)):
    dim = len(basis)
    for flat in itertools.product(entries, repeat=dim * dim):
        op = [list(flat[i * dim:(i + 1) * dim]) for i in range(dim)]
        alg = FiniteAlgebra(basis, mul, op)
        if is_idempotent(alg):
            yield alg


class TestStructure:
    def test_idempotent_averaging_iff_graded_dim2(self):
        for basis, mul in (truncated_polynomial_algebra(2), product_algebra(2)):
            for alg in _enumerated_idempotents(basis, mul):
                assert (check_averaging(alg) is None) == decomposition_is_graded(alg)

    def test_idempotent_averaging_iff_graded_dim3(self):
        basis, mul = truncated_polynomial_algebra(3)
        count = 0
        for alg in _enumerated_idempotents(basis, mul):
            count += 1
            assert (check_averaging(alg) is None) == decomposition_is_graded(alg)
        assert count > 10

    def test_idempotent_averaging_iff_reynolds(self):
        for basis, mul in (truncated_polynomial_algebra(2), product_algebra(2)):
            for alg in _enumerated_idempotents(basis, mul, entries=(0, 1, -1)):
                if not is_idempotent(alg):
                    continue
                assert (check_averaging(alg) is None) == (check_reynolds(alg) is None)

    def test_unit_fixed_implies_idempotent(self):
        # averaging operators fixing the unit are projections
        for basis, mul in (truncated_polynomial_algebra(2), product_algebra(2)):
            unit = FiniteAlgebra(basis, mul, [[0] * len(basis)] * len(basis)).unit()
            assert unit is not None
            for flat in itertools.product((0, 1), repeat=len(basis) ** 2):
                dim = len(basis)
                op = [list(flat[i * dim:(i + 1) * dim]) for i in range(dim)]
                alg = FiniteAlgebra(basis, mul, op)
                if check_averaging(alg) is None and alg.operator(unit) == unit:
                    assert is_idempotent(alg)


class TestJson:
    def test_round_trip(self, tmp_path):
        alg = standard_fixtures()["central_nilpotent4"]
        data = algebra_to_json(alg)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        loaded = algebra_from_json(json.loads(path.read_text()))
        assert loaded == alg

    def test_rationals_as_strings(self):
        alg = central_multiplier(BASIS2, MUL2, ["1/2", 0])
        data = algebra_to_json(alg)
        assert data["op"][0][0] == "1/2"
        assert algebra_from_json(data) == alg

    def test_dim_mismatch(self):
        data = algebra_to_json(standard_fixtures()["central_dual_numbers"])
        data["dim"] = 3
        with pytest.raises(ValueError):
            algebra_from_json(data)

    @pytest.mark.parametrize("data", [
        None, [1], 5, {"dim": 2, "basis": 5}, {"dim": [2], "basis": ["1", "y"]},
        {"basis": ["1"], "mul": 1, "op": [[1]]},
        {"basis": ["1"], "mul": [[1]], "op": [[1]]},
        {"basis": ["1"], "mul": [[[1]]], "op": [1]},
        {"basis": ["1"], "mul": [[[None]]], "op": [[1]]},
        {"basis": ["1"], "mul": [[[1]]], "op": [[0.5]]},
    ])
    def test_wrong_shape_is_a_value_error(self, data):
        with pytest.raises(ValueError):
            algebra_from_json(data)

    def test_missing_key_is_a_key_error(self):
        data = algebra_to_json(standard_fixtures()["central_dual_numbers"])
        del data["op"]
        with pytest.raises(KeyError):
            algebra_from_json(data)
