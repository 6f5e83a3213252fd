from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalg.operad import (
    IDENTITY,
    OperadElement,
    compose,
    compose_elements,
    tree_apply,
    tree_product,
)
from avalg.algebra import apply_p, diamond, reduce
from avalg.trees import (
    LEAF,
    Bi,
    Uni,
    enumerate_averaging_trees,
    phi,
    phi_inverse,
)
from avalg.words import parse_word

T_MU = Bi(LEAF, LEAF)
T_P = Uni(LEAF)


class TestCompose:
    def test_graft_into_second_leaf(self):
        assert compose(T_MU, 2, T_P).tree == Bi(LEAF, Uni(LEAF))

    def test_ladder_stacking(self):
        assert compose(T_P, 1, T_P).tree == Uni(Uni(LEAF))

    def test_reduction_fires(self):
        # [x]x with its second x replaced by [x] gives [x][x], which reduces
        got = compose(phi(parse_word("[x]x")), 2, T_P)
        assert got == phi(parse_word("[x[x]]"))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            compose(T_MU, 3, T_P)
        with pytest.raises(IndexError):
            compose(T_MU, 0, T_P)

    def test_arity_bookkeeping(self):
        family = enumerate_averaging_trees(3, 2)
        for tau in family:
            for sigma in family[:10]:
                for i in range(1, tau.arity + 1):
                    got = compose(tau, i, sigma)
                    assert got.arity == tau.arity + sigma.arity - 1


class TestUnits:
    def test_identity_both_sides_small(self):
        for tau in enumerate_averaging_trees(4, 2):
            assert compose(IDENTITY, 1, tau) == tau
            for i in range(1, tau.arity + 1):
                assert compose(tau, i, IDENTITY) == tau


class TestAxiomsSampled:
    def test_sequential_axiom(self):
        family = enumerate_averaging_trees(2, 2)
        for lam in family:
            for mu in family:
                for nu in family:
                    for i in range(1, lam.arity + 1):
                        for j in range(1, mu.arity + 1):
                            lhs = compose(compose(lam, i, mu), i - 1 + j, nu)
                            rhs = compose(lam, i, compose(mu, j, nu))
                            assert lhs == rhs

    def test_parallel_axiom(self):
        family = enumerate_averaging_trees(3, 1)
        for lam in family:
            if lam.arity < 2:
                continue
            for mu in family:
                for nu in family:
                    for i in range(1, lam.arity + 1):
                        for k in range(i + 1, lam.arity + 1):
                            lhs = compose(compose(lam, i, mu), k - 1 + mu.arity, nu)
                            rhs = compose(compose(lam, k, nu), i, mu)
                            assert lhs == rhs


class TestTransport:
    def test_tree_product_examples(self):
        assert tree_product(IDENTITY, T_P).tree == Bi(LEAF, Uni(LEAF))
        assert tree_apply(IDENTITY).tree == Uni(LEAF)
        assert tree_apply(Bi(LEAF, Uni(LEAF))).tree == Uni(Bi(LEAF, Uni(LEAF)))

    def test_transport_consistency(self):
        family = enumerate_averaging_trees(3, 2)
        for p in family[::3]:
            for q in family[::4]:
                assert phi_inverse(tree_product(p, q)) == diamond(
                    phi_inverse(p), phi_inverse(q)
                )
            assert phi_inverse(tree_apply(p)) == apply_p(phi_inverse(p))


class TestOperadElements:
    def test_bilinear_composition(self):
        a = OperadElement.of(T_MU, 2) + OperadElement.of(Bi(LEAF, Uni(LEAF)), 1)
        b = OperadElement.of(T_P, Fraction(1, 2))
        got = compose_elements(a, 1, b)
        expected = OperadElement.from_terms(
            3 - 1,
            [
                (compose(T_MU, 1, T_P), Fraction(1)),
                (compose(Bi(LEAF, Uni(LEAF)), 1, T_P), Fraction(1, 2)),
            ],
        )
        assert got == expected

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            OperadElement.of(T_MU) + OperadElement.of(T_P)
        with pytest.raises(ValueError):
            OperadElement(0, ())

    def test_cancellation(self):
        a = OperadElement.of(T_MU, 1) + OperadElement.of(T_MU, -1)
        assert a.terms == ()


# ---------------------------------------------------------------------------
# The axioms as properties, on random trees with up to about 20 leaves and 20
# uni-vertices, past the families of the seeded tests (at most 5 leaves)

def _tree_of(tokens):
    # 0: a letter x; 1: open a bracket; 2: close one (skipped with nothing to
    # close, or around nothing); the tree of the word's normal form
    parts, filled = [], [False]
    for t in tokens:
        if t == 0:
            parts.append("x ")
            filled[-1] = True
        elif t == 1:
            parts.append("[")
            filled.append(False)
        elif len(filled) > 1 and filled[-1]:
            parts.append("]")
            filled.pop()
            filled[-1] = True
    while len(filled) > 1:
        parts.append("]" if filled.pop() else "x]")
        filled[-1] = True
    return phi(reduce(parse_word("".join(parts) or "x")))


_trees = st.lists(st.integers(0, 2), min_size=10, max_size=60).map(_tree_of)
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(_trees, _trees, _trees, st.data())
def test_sequential_axiom_on_random_trees(lam, mu, nu, data):
    i = data.draw(st.integers(1, lam.arity))
    j = data.draw(st.integers(1, mu.arity))
    lhs = compose(compose(lam, i, mu), i - 1 + j, nu)
    assert lhs == compose(lam, i, compose(mu, j, nu))
    assert lhs.arity == lam.arity + mu.arity + nu.arity - 2


@_PROPERTY
@given(_trees, _trees, _trees, st.data())
def test_parallel_axiom_on_random_trees(lam, mu, nu, data):
    lam = compose(T_MU, 1, lam)  # at least two leaves
    i = data.draw(st.integers(1, lam.arity - 1))
    k = data.draw(st.integers(i + 1, lam.arity))
    lhs = compose(compose(lam, i, mu), k - 1 + mu.arity, nu)
    assert lhs == compose(compose(lam, k, nu), i, mu)


@_PROPERTY
@given(_trees, st.data())
def test_unit_axioms_on_random_trees(tau, data):
    assert compose(IDENTITY, 1, tau) == tau
    assert compose(tau, data.draw(st.integers(1, tau.arity)), IDENTITY) == tau

