"""The four standard constructions of finite averaging algebras, and the
standard fixtures built with them.

``check-instance`` reads an algebra from a file and runs none of this, so
:mod:`avalg.instances` reads these names from here on first use.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import InputError
from .instances import FiniteAlgebra, _first_failure, _images


# ---------------------------------------------------------------------------
# Builders

def central_multiplier(basis, mul, a) -> FiniteAlgebra:
    """Operator x -> a x for a central element ``a`` (checked)."""
    probe = FiniteAlgebra(tuple(basis), mul, _zero_matrix(len(basis)))
    a = probe.element(a)
    left = [probe.multiply(a, probe.basis_vector(i)) for i in range(probe.dim)]
    bad = _first_failure(probe, 1, lambda i: (left[i], probe.multiply(probe.basis_vector(i), a)))
    if bad is not None:
        raise InputError(f"element is not central (fails at basis {basis[bad[0]]!r})")
    return probe.with_operator(tuple(left))


def group_average(basis, mul, perms) -> FiniteAlgebra:
    """Operator x -> sum of x^g over a group of basis permutations.

    Each permutation must be an algebra automorphism and the set must be
    closed under composition and contain the identity.
    """
    probe = FiniteAlgebra(tuple(basis), mul, _zero_matrix(len(basis)))
    n = probe.dim
    perms = [tuple(p) for p in perms]
    for p in perms:
        if sorted(p) != list(range(n)):
            raise InputError(f"not a permutation of the basis: {p}")
    ptuples = set(perms)
    if tuple(range(n)) not in ptuples:
        raise InputError("the action must contain the identity permutation")
    for p in perms:
        for q in perms:
            if tuple(p[q[i]] for i in range(n)) not in ptuples:
                raise InputError("the permutations are not closed under composition")
    for p in perms:
        if _first_failure(probe, 2, lambda i, j: (
                _apply_perm_vector(p, probe.mul[i][j]), probe.mul[p[i]][p[j]])) is not None:
            raise InputError(f"permutation {p} is not an algebra automorphism")
    op = []
    for i in range(n):
        acc = probe.zero
        for p in perms:
            acc = probe.add(acc, probe.basis_vector(p[i]))
        op.append(acc)
    return probe.with_operator(tuple(op))


def group_algebra_average(table, labels=None) -> FiniteAlgebra:
    """Group algebra of a finite group with P(g) = (sum of all h) g.

    ``table[i][j]`` is the index of the product of group elements i and j.
    The summed translation operator is averaging because the full group sum
    is central.
    """
    n = len(table)
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    if any(len(row) != n for row in table):
        raise InputError("Cayley table must be square")
    ident = next(
        (e for e in range(n) if all(table[e][j] == j and table[j][e] == j for j in range(n))),
        None,
    )
    if ident is None:
        raise InputError("Cayley table has no identity element")
    for i in range(n):
        if ident not in table[i]:
            raise InputError("Cayley table has no inverses")
    mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mul[i][j][table[i][j]] = Fraction(1)
    op = [[Fraction(0)] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            op[g][table[h][g]] += Fraction(1)  # h*g summed over h
    return FiniteAlgebra(tuple(labels), tuple(tuple(tuple(r) for r in p) for p in mul), tuple(tuple(r) for r in op))


def super_projection(basis, mul, grading) -> FiniteAlgebra:
    """Projection onto the even part of a Z/2-graded algebra (grading checked)."""
    probe = FiniteAlgebra(tuple(basis), mul, _zero_matrix(len(basis)))
    grading = tuple(int(g) for g in grading)
    if len(grading) != probe.dim or any(g not in (0, 1) for g in grading):
        raise InputError("grading must assign 0 or 1 to every basis vector")
    # e_i e_j may have an e_k term only when grading[k] = grading[i] + grading[j] mod 2
    bad = _first_failure(probe, 3, lambda i, j, k: (
        (grading[i] + grading[j] + grading[k]) % 2 if probe.mul[i][j][k] else 0, 0))
    if bad is not None:
        i, j, _ = bad
        raise InputError(f"products of grades {grading[i]},{grading[j]} leave grade "
                         f"{(grading[i] + grading[j]) % 2}")
    op = tuple(
        probe.basis_vector(i) if grading[i] == 0 else probe.zero
        for i in range(probe.dim)
    )
    return probe.with_operator(op)


def square_zero_derivation(basis, mul, d) -> FiniteAlgebra:
    """A derivation matrix with d^2 = 0 used as the operator (both checked)."""
    probe = FiniteAlgebra(tuple(basis), mul, d)
    e, p = _images(probe)
    if _first_failure(probe, 1, lambda i: (probe.operator(p[i]), probe.zero)) is not None:
        raise InputError("d^2 is not zero")
    bad = _first_failure(probe, 2, lambda i, j: (
        probe.operator(probe.multiply(e[i], e[j])),
        probe.add(probe.multiply(p[i], e[j]), probe.multiply(e[i], p[j]))))
    if bad is not None:
        i, j = bad
        raise InputError(f"Leibniz rule fails at ({basis[i]!r}, {basis[j]!r})")
    return probe


_KINDS = ("GroupAverage", "CentralMultiplier", "SuperProjection", "SquareZeroDerivation")


def build_instance(kind: str, **params) -> FiniteAlgebra:
    """Dispatch on the four standard constructions by name."""
    if kind == "CentralMultiplier":
        return central_multiplier(params["basis"], params["mul"], params["a"])
    if kind == "GroupAverage":
        if "table" in params:
            return group_algebra_average(params["table"], params.get("labels"))
        return group_average(params["basis"], params["mul"], params["perms"])
    if kind == "SuperProjection":
        return super_projection(params["basis"], params["mul"], params["grading"])
    if kind == "SquareZeroDerivation":
        return square_zero_derivation(params["basis"], params["mul"], params["d"])
    raise InputError(f"unknown instance kind {kind!r}; expected one of {sorted(_KINDS)}")


def _apply_perm_vector(p, v):
    out = [Fraction(0)] * len(v)
    for i, c in enumerate(v):
        out[p[i]] = c
    return tuple(out)


def _zero_matrix(n):
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


# ---------------------------------------------------------------------------
# Standard fixtures used across the test suite

def truncated_polynomial_algebra(k: int, var: str = "y"):
    """Basis 1, y, ..., y^(k-1) with y^k = 0."""
    basis = tuple("1" if i == 0 else f"{var}^{i}" if i > 1 else var for i in range(k))
    mul = [
        [
            [Fraction(1 if i + j == t else 0) for t in range(k)]
            for j in range(k)
        ]
        for i in range(k)
    ]
    return basis, mul


def product_algebra(n: int):
    """Coordinatewise multiplication on n copies of the scalars."""
    basis = tuple(f"e{i}" for i in range(n))
    mul = [
        [
            [Fraction(1 if (i == j and t == i) else 0) for t in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return basis, mul


def standard_fixtures() -> dict:
    """Named averaging algebras exercising all four constructions."""
    fixtures = {}

    basis2, mul2 = truncated_polynomial_algebra(2)
    fixtures["central_dual_numbers"] = central_multiplier(basis2, mul2, [0, 1])

    basis4, mul4 = truncated_polynomial_algebra(4)
    fixtures["central_nilpotent4"] = central_multiplier(basis4, mul4, [0, 1, 0, 0])

    fixtures["group_algebra_z2"] = group_algebra_average([[0, 1], [1, 0]], ("e", "g"))

    basisp, mulp = product_algebra(2)
    fixtures["swap_average"] = group_average(basisp, mulp, [(0, 1), (1, 0)])

    fixtures["super_dual_numbers"] = super_projection(basis2, mul2, (0, 1))

    basis3, mul3 = truncated_polynomial_algebra(3, "u")
    d = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]  # u -> u^2, u^2 -> 0
    fixtures["derivation_u3"] = square_zero_derivation(basis3, mul3, d)

    # identity is an idempotent algebra endomorphism, hence averaging
    ident = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(2)) for i in range(2)
    )
    fixtures["identity_dual_numbers"] = FiniteAlgebra(basis2, mul2, ident)
    return fixtures
