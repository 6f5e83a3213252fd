"""Concrete finite-dimensional averaging algebras.

Carriers are free modules over exact rationals with multiplication given by
structure constants and the operator by a matrix.  Elements are coefficient
tuples.  Four standard constructions are provided:

* ``GroupAverage``: sum over a finite group acting by algebra automorphisms
  (basis permutations), or the translation average ``P(g) = (sum of G) g``
  on a group algebra given by its Cayley table.
* ``CentralMultiplier``: ``P_a(x) = a x`` for a central element ``a``.
* ``SuperProjection``: projection of a Z/2-graded algebra onto its even part.
* ``SquareZeroDerivation``: a derivation with ``d^2 = 0``.

``check_averaging`` and ``check_reynolds`` verify the defining identities on
all basis pairs, which suffices by bilinearity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "FiniteAlgebra",
    "build_instance",
    "group_average",
    "group_algebra_average",
    "central_multiplier",
    "super_projection",
    "square_zero_derivation",
    "check_averaging",
    "check_reynolds",
    "is_idempotent",
    "decomposition_is_graded",
    "algebra_from_json",
    "algebra_to_json",
    "standard_fixtures",
]

Vector = tuple


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class FiniteAlgebra:
    """Associative algebra with a linear operator, both over Fraction.

    ``mul[i][j]`` is the coefficient vector of ``e_i e_j``; ``op[i]`` the
    coefficient vector of ``P(e_i)``.  Associativity of the table is checked
    eagerly on construction.
    """

    basis: tuple
    mul: tuple  # mul[i][j][k]: Fraction
    op: tuple   # op[i][k]: Fraction

    def __post_init__(self):
        n = len(self.basis)
        mul = tuple(
            tuple(tuple(_frac(c) for c in row) for row in plane) for plane in self.mul
        )
        op = tuple(tuple(_frac(c) for c in row) for row in self.op)
        if len(mul) != n or any(len(p) != n for p in mul) or any(
            len(row) != n for p in mul for row in p
        ):
            raise ValueError("multiplication table has wrong shape")
        if len(op) != n or any(len(row) != n for row in op):
            raise ValueError("operator matrix has wrong shape")
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "op", op)
        bad = self._associativity_failure()
        if bad is not None:
            raise ValueError(f"multiplication is not associative at basis triple {bad}")

    def _associativity_failure(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                eij = self.mul[i][j]
                for k in range(n):
                    left = self.multiply(eij, self.basis_vector(k))
                    right = self.multiply(self.basis_vector(i), self.mul[j][k])
                    if left != right:
                        return (self.basis[i], self.basis[j], self.basis[k])
        return None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def zero(self) -> Vector:
        return tuple(Fraction(0) for _ in range(self.dim))

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    def add(self, x: Vector, y: Vector) -> Vector:
        return tuple(a + b for a, b in zip(x, y))

    def scale(self, c, x: Vector) -> Vector:
        c = Fraction(c)
        return tuple(c * a for a in x)

    def multiply(self, x: Vector, y: Vector) -> Vector:
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = xi * yj
                for k, c in enumerate(self.mul[i][j]):
                    if c:
                        out[k] += coeff * c
        return tuple(out)

    def operator(self, x: Vector) -> Vector:
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for k, c in enumerate(self.op[i]):
                    if c:
                        out[k] += xi * c
        return tuple(out)

    def element(self, coeffs: Sequence) -> Vector:
        if len(coeffs) != self.dim:
            raise ValueError("wrong coefficient count")
        return tuple(_frac(c) for c in coeffs)

    def unit(self) -> Optional[Vector]:
        """The two-sided unit if one exists, found by solving linearly."""
        n = self.dim
        # u * e_j = e_j for all j gives n^2 equations in the n unknowns u_i
        rows = []
        rhs = []
        for j in range(n):
            for k in range(n):
                rows.append([self.mul[i][j][k] for i in range(n)])
                rhs.append(Fraction(1 if k == j else 0))
        sol = _solve(rows, rhs)
        if sol is None:
            return None
        u = tuple(sol)
        if all(
            self.multiply(u, self.basis_vector(j)) == self.basis_vector(j)
            and self.multiply(self.basis_vector(j), u) == self.basis_vector(j)
            for j in range(n)
        ):
            return u
        return None

    def with_operator(self, op) -> "FiniteAlgebra":
        return FiniteAlgebra(self.basis, self.mul, tuple(tuple(_frac(c) for c in row) for row in op))


def _eliminate(rows):
    """Exact Gauss-Jordan elimination: the reduced rows and their pivot columns."""
    mat = [list(row) for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def _solve(rows, rhs):
    """Least-structure exact solver: returns one solution of A x = b or None."""
    if not rows:
        return []
    n = len(rows[0])
    aug, pivots = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None  # inconsistent: a pivot in the right-hand side
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][n]
    return x


# ---------------------------------------------------------------------------
# Operator identity checks

def check_averaging(alg: FiniteAlgebra):
    """Verify P(x)P(y) = P(xP(y)) = P(P(x)y) on all basis pairs.

    Returns None on success, else the first failing basis pair ``(i, j)``.
    """
    for i in range(alg.dim):
        ei = alg.basis_vector(i)
        pi = alg.operator(ei)
        for j in range(alg.dim):
            ej = alg.basis_vector(j)
            pj = alg.operator(ej)
            lhs = alg.multiply(pi, pj)
            if lhs != alg.operator(alg.multiply(ei, pj)):
                return (i, j)
            if lhs != alg.operator(alg.multiply(pi, ej)):
                return (i, j)
    return None


def check_reynolds(alg: FiniteAlgebra):
    """Verify P(fg) = P(f)P(g) + P[(f - Pf)(g - Pg)] on all basis pairs."""
    for i in range(alg.dim):
        f = alg.basis_vector(i)
        pf = alg.operator(f)
        df = alg.add(f, alg.scale(-1, pf))
        for j in range(alg.dim):
            g = alg.basis_vector(j)
            pg = alg.operator(g)
            dg = alg.add(g, alg.scale(-1, pg))
            lhs = alg.operator(alg.multiply(f, g))
            rhs = alg.add(
                alg.multiply(pf, pg), alg.operator(alg.multiply(df, dg))
            )
            if lhs != rhs:
                return (i, j)
    return None


def is_idempotent(alg: FiniteAlgebra) -> bool:
    return all(
        alg.operator(alg.operator(alg.basis_vector(i))) == alg.operator(alg.basis_vector(i))
        for i in range(alg.dim)
    )


def decomposition_is_graded(alg: FiniteAlgebra) -> bool:
    """For idempotent P: image/kernel closure R0*R0 in R0, R0*R1 + R1*R0 in R1.

    An idempotent operator is averaging exactly when this holds.
    """
    if not is_idempotent(alg):
        raise ValueError("decomposition test needs an idempotent operator")
    image = [alg.operator(alg.basis_vector(i)) for i in range(alg.dim)]
    kernel = [
        alg.add(alg.basis_vector(i), alg.scale(-1, alg.operator(alg.basis_vector(i))))
        for i in range(alg.dim)
    ]
    im_basis = _span_basis(image)
    ker_basis = _span_basis(kernel)

    def in_span(basis, v) -> bool:
        if not any(v):
            return True
        rows = [[b[k] for b in basis] for k in range(len(v))]
        return _solve(rows, list(v)) is not None

    for a in im_basis:
        for b in im_basis:
            if not in_span(im_basis, alg.multiply(a, b)):
                return False
        for b in ker_basis:
            if not in_span(ker_basis, alg.multiply(a, b)):
                return False
            if not in_span(ker_basis, alg.multiply(b, a)):
                return False
    return True


def _span_basis(vectors):
    """The vectors that are independent of those before them: the pivot columns."""
    if not vectors:
        return []
    columns = [[v[k] for v in vectors] for k in range(len(vectors[0]))]
    return [vectors[c] for c in _eliminate(columns)[1]]


# ---------------------------------------------------------------------------
# Builders

def central_multiplier(basis, mul, a) -> FiniteAlgebra:
    """Operator x -> a x for a central element ``a`` (checked)."""
    probe = FiniteAlgebra(tuple(basis), mul, _zero_matrix(len(basis)))
    a = probe.element(a)
    for i in range(probe.dim):
        e = probe.basis_vector(i)
        if probe.multiply(a, e) != probe.multiply(e, a):
            raise ValueError(f"element is not central (fails at basis {basis[i]!r})")
    op = tuple(probe.multiply(a, probe.basis_vector(i)) for i in range(probe.dim))
    return probe.with_operator(op)


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
            raise ValueError(f"not a permutation of the basis: {p}")
    ptuples = set(perms)
    if tuple(range(n)) not in ptuples:
        raise ValueError("the action must contain the identity permutation")
    for p in perms:
        for q in perms:
            if tuple(p[q[i]] for i in range(n)) not in ptuples:
                raise ValueError("the permutations are not closed under composition")
    for p in perms:
        for i in range(n):
            for j in range(n):
                image = _apply_perm_vector(p, probe.mul[i][j])
                direct = probe.mul[p[i]][p[j]]
                if image != direct:
                    raise ValueError(
                        f"permutation {p} is not an algebra automorphism"
                    )
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
        raise ValueError("Cayley table must be square")
    ident = next(
        (e for e in range(n) if all(table[e][j] == j and table[j][e] == j for j in range(n))),
        None,
    )
    if ident is None:
        raise ValueError("Cayley table has no identity element")
    for i in range(n):
        if ident not in table[i]:
            raise ValueError("Cayley table has no inverses")
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
        raise ValueError("grading must assign 0 or 1 to every basis vector")
    for i in range(probe.dim):
        for j in range(probe.dim):
            expected = (grading[i] + grading[j]) % 2
            for k, c in enumerate(probe.mul[i][j]):
                if c and grading[k] != expected:
                    raise ValueError(
                        f"products of grades {grading[i]},{grading[j]} leave grade {expected}"
                    )
    op = tuple(
        probe.basis_vector(i) if grading[i] == 0 else probe.zero
        for i in range(probe.dim)
    )
    return probe.with_operator(op)


def square_zero_derivation(basis, mul, d) -> FiniteAlgebra:
    """A derivation matrix with d^2 = 0 used as the operator (both checked)."""
    probe = FiniteAlgebra(tuple(basis), mul, d)
    for i in range(probe.dim):
        if any(probe.operator(probe.operator(probe.basis_vector(i)))):
            raise ValueError("d^2 is not zero")
    for i in range(probe.dim):
        ei = probe.basis_vector(i)
        for j in range(probe.dim):
            ej = probe.basis_vector(j)
            lhs = probe.operator(probe.multiply(ei, ej))
            rhs = probe.add(
                probe.multiply(probe.operator(ei), ej),
                probe.multiply(ei, probe.operator(ej)),
            )
            if lhs != rhs:
                raise ValueError(
                    f"Leibniz rule fails at ({basis[i]!r}, {basis[j]!r})"
                )
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
    raise ValueError(f"unknown instance kind {kind!r}; expected one of {sorted(_KINDS)}")


def _apply_perm_vector(p, v):
    out = [Fraction(0)] * len(v)
    for i, c in enumerate(v):
        out[p[i]] = c
    return tuple(out)


def _zero_matrix(n):
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


# ---------------------------------------------------------------------------
# JSON surface

def algebra_to_json(alg: FiniteAlgebra) -> dict:
    return {
        "dim": alg.dim,
        "basis": list(alg.basis),
        "mul": [[[str(c) for c in row] for row in plane] for plane in alg.mul],
        "op": [[str(c) for c in row] for row in alg.op],
    }


def algebra_from_json(data: dict) -> FiniteAlgebra:
    basis = tuple(data["basis"])
    if data.get("dim") is not None and int(data["dim"]) != len(basis):
        raise ValueError("dim does not match basis length")
    return FiniteAlgebra(basis, data["mul"], data["op"])


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
