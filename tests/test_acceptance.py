"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import math
import random
import time

import pytest

from avalg.algebra import apply_p, diamond, random_lincomb, reduce, rewrite_reduce
from avalg.enumeration import (
    census,
    closed_form,
    reduce_to_v1,
    schroeder,
    series_value,
    univariate,
)
from avalg.instances import standard_fixtures
from avalg.operad import IDENTITY, compose
from avalg.trees import (
    LEAF,
    AveragingTree,
    Bi,
    Uni,
    enumerate_averaging_trees,
    enumerate_schroeder,
    enumerate_unreduced,
    is_averaging_tree,
    phi,
    phi_inverse,
    psi,
    uni_count,
)
from avalg.words import (
    iter_averaging_words,
    iter_bracketed_words,
    random_averaging_word,
)
from avalg.algebra import universal_map

# large Schroeder numbers (A006318), vendored as fixed reference values
LARGE_SCHROEDER = [
    1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718, 5293446, 27297738,
]


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def census_v1():
    return census(1, 7, 15, include_one=True)


def test_criterion_01_schroeder_identification():
    with criterion(1, "schroeder-identification"):
        import avalg.enumeration as enum_mod
        import avalg.words as words_mod

        for module in (words_mod, enum_mod):
            for fn in vars(module).values():
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()
        start = time.monotonic()
        totals = census(1, 7, 15, include_one=True).a.degree_totals(7)
        census_elapsed = time.monotonic() - start
        assert totals == [2, 4, 12, 44, 180, 788, 3612, 17116]
        assert census_elapsed <= 60.0

        start = time.monotonic()
        row_sums = univariate("A", 12)
        series_elapsed = time.monotonic() - start
        assert row_sums == [2 * s for s in LARGE_SCHROEDER]
        assert series_elapsed <= 5.0


def test_criterion_02_indecomposables_are_schroeder(census_v1):
    with criterion(2, "indecomposable-schroeder-shift"):
        i_counts = [census_v1.i.degree_total(n) for n in range(8)]
        assert i_counts == [0, 1, 2, 6, 22, 90, 394, 1806]
        i_series = univariate("I", 12)
        for n in range(12):
            assert schroeder(n) == i_series[n + 1]
        assert [schroeder(n) for n in range(13)] == LARGE_SCHROEDER


def test_criterion_03_decomposable_sequence(census_v1):
    with criterion(3, "decomposable-sequence"):
        d_counts = [census_v1.d.degree_total(n) for n in range(8)]
        assert d_counts == [0, 0, 1, 5, 23, 107, 509, 2473]


def test_criterion_04_schroeder_tree_counts():
    with criterion(4, "schroeder-tree-enumeration"):
        assert [len(enumerate_schroeder(n)) for n in range(1, 7)] == [
            1, 2, 6, 22, 90, 394,
        ]
        from avalg.enumeration import indecomposable_words_v

        for n in range(1, 6):
            words = indecomposable_words_v(1, n)
            images = {psi(w) for w in words}
            assert len(images) == len(words)
            assert images == set(enumerate_schroeder(n))


def test_criterion_05_recurrence_web():
    with criterion(5, "recurrence-web"):
        result = census(1, 6, 12, include_one=True)
        a, b, c, d, i = result.a, result.b, result.c, result.d, result.i
        checked = 0
        for n in range(1, 7):
            for m in range(2, 13):
                assert a.count(n, m) == b.count(n, m) + c.count(n, m)
                assert c.count(n, m) == 2 * b.count(n, m - 1) + b.count(n, m - 2)
                assert b.count(n, m) == i.count(n, m) + d.count(n, m)
                assert i.count(n, m) == c.count(n - 1, m) - b.count(n - 1, m - 1)
                assert i.count(n, m) == b.count(n - 1, m - 1) + b.count(n - 1, m - 2)
                checked += 5
        assert checked == 6 * 11 * 5


def test_criterion_06_run_cap_reduction():
    with criterion(6, "run-cap-reduction"):
        for cap in (2, 3, math.inf):
            got = census(cap, 4, 10, include_one=True)
            expected = reduce_to_v1(cap, 4, 10)
            for n in range(5):
                for m in range(11):
                    assert got.a.count(n, m) == expected.count(n, m), (cap, n, m)


def test_criterion_07_algebra_laws():
    with criterion(7, "algebra-laws"):
        rng = random.Random(74025)
        for _ in range(1000):
            u = random_averaging_word(rng, ("x", "y"), max_depth=4)
            v = random_averaging_word(rng, ("x", "y"), max_depth=4)
            w = random_averaging_word(rng, ("x", "y"), max_depth=4)
            assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w))
        for _ in range(1000):
            u = random_averaging_word(rng, ("x", "y"), max_depth=4)
            v = random_averaging_word(rng, ("x", "y"), max_depth=4)
            both = diamond(apply_p(u), apply_p(v))
            assert both == apply_p(diamond(apply_p(u), v))
            assert both == apply_p(diamond(u, apply_p(v)))

        for w in iter_bracketed_words(8):
            nf = reduce(w)
            assert nf == rewrite_reduce(w, strategy="innermost")
            assert nf == rewrite_reduce(w, strategy="outermost")


def test_criterion_08_universal_property():
    with criterion(8, "universal-property"):
        fixtures = standard_fixtures()
        assert len(fixtures) >= 4
        rng = random.Random(88001)
        for name, alg in fixtures.items():
            assignment = {
                "x": alg.element([rng.randint(-3, 3) for _ in range(alg.dim)]),
                "y": alg.element([rng.randint(-3, 3) for _ in range(alg.dim)]),
            }
            elements = [random_lincomb(rng, max_depth=3) for _ in range(200)]
            for idx, a in enumerate(elements):
                b = elements[(idx + 1) % len(elements)]
                fa = universal_map(assignment, alg, a)
                fb = universal_map(assignment, alg, b)
                assert universal_map(assignment, alg, a * b) == alg.multiply(fa, fb)
                assert universal_map(assignment, alg, a.operator()) == alg.operator(fa)


def test_criterion_09_word_tree_bijection():
    with criterion(9, "word-tree-bijection"):
        words = list(iter_averaging_words(max_arity=6, max_degree=4))
        assert len(words) > 1000
        for w in words:
            assert phi_inverse(phi(w)) == w
        trees = enumerate_averaging_trees(6, 4)
        assert len(trees) == len(words)
        for t in trees:
            assert phi(phi_inverse(t)) == t
        filtered = {t for t in enumerate_unreduced(5, 4) if is_averaging_tree(t)}
        image = {
            phi(w).tree
            for w in iter_averaging_words(max_arity=5, max_degree=4)
        }
        assert image == filtered


def test_criterion_10_operad_axioms():
    with criterion(10, "operad-axioms"):
        start = time.monotonic()
        full = enumerate_averaging_trees(4, 3)
        assert len(full) == 141
        small = [t for t in full if t.arity + uni_count(t.tree) <= 4]
        probes = [
            IDENTITY,
            AveragingTree(Uni(LEAF)),
            AveragingTree(Bi(LEAF, LEAF)),
        ]

        cache = {}

        def ccompose(tau, i, sigma):
            key = (tau, i, sigma)
            got = cache.get(key)
            if got is None:
                got = cache[key] = compose(tau, i, sigma)
            return got

        # unit axioms, exhaustive over the whole family
        for tau in full:
            assert ccompose(IDENTITY, 1, tau) == tau
            for i in range(1, tau.arity + 1):
                assert ccompose(tau, i, IDENTITY) == tau

        triples = 0

        def sequential(lam, mu, nu):
            nonlocal triples
            triples += 1
            for i in range(1, lam.arity + 1):
                for j in range(1, mu.arity + 1):
                    lhs = ccompose(ccompose(lam, i, mu), i - 1 + j, nu)
                    rhs = ccompose(lam, i, ccompose(mu, j, nu))
                    assert lhs == rhs

        def parallel(lam, mu, nu):
            nonlocal triples
            triples += 1
            for i in range(1, lam.arity + 1):
                for k in range(i + 1, lam.arity + 1):
                    lhs = ccompose(ccompose(lam, i, mu), k - 1 + mu.arity, nu)
                    rhs = ccompose(ccompose(lam, k, nu), i, mu)
                    assert lhs == rhs

        # complete cube over the size-bounded core
        for lam in small:
            for mu in small:
                for nu in small:
                    sequential(lam, mu, nu)
                    parallel(lam, mu, nu)

        # every family member participates in every slot of both axioms
        for tau in full:
            for p in probes:
                for q in probes:
                    sequential(tau, p, q)
                    sequential(p, tau, q)
                    sequential(p, q, tau)
                    parallel(tau, p, q)
                    parallel(p, tau, q)
                    parallel(p, q, tau)

        elapsed = time.monotonic() - start
        assert triples >= 3000
        assert elapsed <= 120.0


def test_criterion_11_closed_form_spot_check():
    with criterion(11, "closed-form-spot-check"):
        for z, t in ((0.01, 0.5), (0.02, 0.3), (0.05, 1.0)):
            for kind in ("I", "B", "A"):
                truncated = series_value(kind, z, t, max_degree=25)
                radical = closed_form(kind, z, t)
                assert abs(truncated - radical) <= 1e-9, (kind, z, t)
