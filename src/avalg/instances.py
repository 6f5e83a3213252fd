"""Concrete finite-dimensional averaging algebras.

Carriers are free modules over exact rationals with multiplication given by
structure constants and the operator by a matrix.  Elements are coefficient
tuples of exact rationals (``int`` or ``Fraction``); ``multiply`` and
``operator`` return ``Fraction`` tuples.

Both compute in integers.  ``encode`` turns a vector into the tuple of its
entries' numerators over one common denominator, the lcm of theirs;
``kernel_multiply`` and ``kernel_operator`` take and return that form, kept
in lowest terms, and ``kernel_sum`` adds rational multiples of such values
over one lcm; ``decode`` builds one ``Fraction`` per nonzero entry.
``multiply`` and ``operator`` are encode, kernel, decode.  Each kernel is
written once per algebra, on construction, by ``_unrolled``: the loop over
the nonzero structure constants unrolled into straight-line code, which
skips the rows of a zero entry and reads each constant by its index, so
the code holds no value.  ``algebra.universal_map`` encodes its assignment
once and decodes once per call; a target without this protocol is treated
as its own encoding.  Four standard constructions are provided:

* ``GroupAverage``: sum over a finite group acting by algebra automorphisms
  (basis permutations), or the translation average ``P(g) = (sum of G) g``
  on a group algebra given by its Cayley table.
* ``CentralMultiplier``: ``P_a(x) = a x`` for a central element ``a``.
* ``SuperProjection``: projection of a Z/2-graded algebra onto its even part.
* ``SquareZeroDerivation``: a derivation with ``d^2 = 0``.

``check_averaging``, ``check_reynolds`` and ``decomposition_is_graded``
verify their identities on all basis pairs, which suffices by bilinearity.
The constructions and the standard fixtures live in :mod:`avalg._builders`,
and their names are read from there on first use.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Optional, Sequence

from . import _forward
from ._record import InputError, Record, exact

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
    "load_algebra",
    "algebra_to_json",
    "standard_fixtures",
]

_HOME = dict.fromkeys((
    "build_instance", "group_average", "group_algebra_average", "central_multiplier",
    "super_projection", "square_zero_derivation", "truncated_polynomial_algebra",
    "product_algebra", "standard_fixtures"), "_builders")
_forward(globals())

Vector = tuple


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return exact("an entry has", x, Fraction)
        except (ValueError, ZeroDivisionError):  # 1/0 too, and past the int-to-text limit
            raise InputError(f"not a rational number: {x!r}") from None
    raise _inexact(x)


def _inexact(x) -> TypeError:
    return TypeError(f"not an exact rational: {x!r}")


_ZERO = Fraction(0)


def _lowest(out, d):
    """``out / d`` as a numerator tuple and one denominator, with the common
    gcd divided out."""
    g = gcd(d, *out)
    if g == 1:
        return out, d
    return tuple([v // g for v in out]), d // g


def _unrolled(table, n, bilinear):
    """``(d, kernel)`` for the rational ``table``, ``mul`` if ``bilinear``
    and ``op`` if not: ``d`` clears its denominators, and ``kernel`` maps the
    numerator tuples of ``x`` (and ``y``) to those of ``x y`` (or ``P(x)``)
    over their denominators times ``d``.  It is the loop over the nonzero
    constants unrolled once, so a zero entry skips its rows.  Its text holds
    indices only, and it runs where nothing but the constants ``C`` is
    defined."""
    rows = [row for plane in table for row in plane] if bilinear else table
    d = lcm(*[c.denominator for row in rows for c in row])
    constants = []
    pad, factor = ("   ", "ab") if bilinear else ("  ", "a")
    code = ["def kernel(x, y):" if bilinear else "def kernel(x):"]
    code += [f" o{k} = 0" for k in range(n)]
    for i in range(n):
        guarded = []
        for j, row in enumerate(table[i] if bilinear else (table[i],)):
            terms = []
            for k, c in enumerate(row):
                if c:
                    terms.append(f"{pad}o{k} += {factor} * C[{len(constants)}]")
                    constants.append(c.numerator * (d // c.denominator))
            if terms and bilinear:
                guarded += [f"  b = y[{j}]", "  if b:", "   ab = a * b"]
            guarded += terms
        if guarded:
            code += [f" a = x[{i}]", " if a:", *guarded]
    code.append(" return (" + "".join(f"o{k}, " for k in range(n)) + ")")
    namespace = {"__builtins__": {}, "C": tuple(constants)}
    exec("\n".join(code), namespace)
    return d, namespace["kernel"]


class FiniteAlgebra(Record):
    """Associative algebra with a linear operator, both over Fraction.

    ``mul[i][j][k]`` is the coefficient of ``e_k`` in ``e_i e_j``; ``op[i][k]``
    the coefficient of ``e_k`` in ``P(e_i)``.  Associativity of the table is
    checked eagerly on construction.
    """

    _fields = ("basis", "mul", "op")
    # the integer kernel is not a field, so ==, hash and repr ignore it
    __slots__ = _fields + ("_mul_int", "_op_int")

    def __init__(self, basis: tuple, mul: tuple, op: tuple):
        n = len(basis)
        mul = tuple(
            tuple(tuple(_frac(c) for c in row) for row in plane) for plane in mul
        )
        op = tuple(tuple(_frac(c) for c in row) for row in op)
        if len(mul) != n or any(len(p) != n for p in mul) or any(
            len(row) != n for p in mul for row in p
        ):
            raise InputError("multiplication table has wrong shape")
        if len(op) != n or any(len(row) != n for row in op):
            raise InputError("operator matrix has wrong shape")
        Record.__init__(self, basis, mul, op)
        object.__setattr__(self, "_mul_int", _unrolled(mul, n, True))
        object.__setattr__(self, "_op_int", _unrolled(op, n, False))
        # encoded values are in lowest terms, so they compare as the vectors do
        times, e = self.kernel_multiply, [self.encode(self.basis_vector(i)) for i in range(n)]
        m = [[self.encode(v) for v in plane] for plane in mul]
        bad = _first_failure(self, 3, lambda i, j, k: (times(m[i][j], e[k]), times(e[i], m[j][k])))
        if bad is not None:
            triple = tuple(self.basis[i] for i in bad)
            raise InputError(f"multiplication is not associative at basis triple {triple}")

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
        return self.decode(self.kernel_multiply(self.encode(x), self.encode(y)))

    def operator(self, x: Vector) -> Vector:
        return self.decode(self.kernel_operator(self.encode(x)))

    # The encoded protocol (see the module docstring).  Every encoded value
    # is in lowest terms, so its integers grow only as the rationals do.

    def encode(self, x: Vector):
        try:
            d = lcm(*[a.denominator for a in x])
            return tuple([a.numerator * (d // a.denominator) for a in x]), d
        except AttributeError:
            for a in x:
                if not (hasattr(a, "numerator") and hasattr(a, "denominator")):
                    raise _inexact(a) from None
            raise

    def decode(self, x) -> Vector:
        xs, d = x
        return tuple([Fraction(a, d) if a else _ZERO for a in xs])

    def kernel_multiply(self, x, y):
        d, kernel = self._mul_int
        (xs, dx), (ys, dy) = x, y
        return _lowest(kernel(xs, ys), dx * dy * d)

    def kernel_operator(self, x):
        d, kernel = self._op_int
        xs, dx = x
        return _lowest(kernel(xs), dx * d)

    def kernel_sum(self, terms):
        """``sum(c * x for c, x in terms)`` over one lcm, for rational ``c``."""
        scaled = [(c.numerator, xs, dx * c.denominator) for c, (xs, dx) in terms]
        d = lcm(*[dx for _, _, dx in scaled])
        out = (0,) * self.dim
        for c, xs, dx in scaled:
            f = c * (d // dx)
            out = tuple([v + f * a for v, a in zip(out, xs)])
        return _lowest(out, d)

    def element(self, coeffs: Sequence) -> Vector:
        if len(coeffs) != self.dim:
            raise InputError("wrong coefficient count")
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
        e = [self.basis_vector(j) for j in range(n)]
        two_sided = _first_failure(
            self, 1, lambda j: (e[j], self.multiply(u, e[j]), self.multiply(e[j], u))) is None
        return u if two_sided else None

    def with_operator(self, op) -> "FiniteAlgebra":
        return FiniteAlgebra(self.basis, self.mul, tuple(tuple(_frac(c) for c in row) for row in op))


def _solve(rows, rhs):
    """One solution of A x = b or None, by exact Gauss-Jordan elimination of
    the augmented rows."""
    n = len(rows[0]) if rows else 0
    mat = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(n + 1):
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
    if pivots and pivots[-1] == n:
        return None  # inconsistent: a pivot in the right-hand side
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = mat[row_idx][n]
    return x


# ---------------------------------------------------------------------------
# Identity checks

def _first_failure(alg: FiniteAlgebra, arity: int, sides):
    """The first tuple of ``arity`` basis indices, in lexicographic order, at
    which the values ``sides(*indices)`` are not all equal; None if none is.
    By multilinearity an identity holds when it holds on basis elements."""
    for indices in product(range(alg.dim), repeat=arity):
        first, *rest = sides(*indices)
        if any(v != first for v in rest):
            return indices
    return None


def _images(alg: FiniteAlgebra):
    """The basis vectors and their images under the operator."""
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    return e, [alg.operator(v) for v in e]


def check_averaging(alg: FiniteAlgebra):
    """Verify P(x)P(y) = P(xP(y)) = P(P(x)y) on all basis pairs.

    Returns None on success, else the first failing basis pair ``(i, j)``.
    """
    e, p = _images(alg)
    return _first_failure(alg, 2, lambda i, j: (
        alg.multiply(p[i], p[j]),
        alg.operator(alg.multiply(e[i], p[j])),
        alg.operator(alg.multiply(p[i], e[j]))))


def check_reynolds(alg: FiniteAlgebra):
    """Verify P(fg) = P(f)P(g) + P[(f - Pf)(g - Pg)] on all basis pairs."""
    e, p = _images(alg)
    d = [alg.add(v, alg.scale(-1, pv)) for v, pv in zip(e, p)]
    return _first_failure(alg, 2, lambda i, j: (
        alg.operator(alg.multiply(e[i], e[j])),
        alg.add(alg.multiply(p[i], p[j]), alg.operator(alg.multiply(d[i], d[j])))))


def is_idempotent(alg: FiniteAlgebra) -> bool:
    _, p = _images(alg)
    return _first_failure(alg, 1, lambda i: (alg.operator(p[i]), p[i])) is None


def decomposition_is_graded(alg: FiniteAlgebra) -> bool:
    """For idempotent P: image/kernel closure R0*R0 in R0, R0*R1 + R1*R0 in R1.

    An idempotent operator is averaging exactly when this holds.  P fixes
    its image R0 and vanishes on its kernel R1, which the vectors
    ``p_i = P(e_i)`` and ``k_i = e_i - P(e_i)`` span, so by bilinearity the
    grading holds when P(p_i p_j) = p_i p_j and P(p_i k_j) = P(k_j p_i) = 0
    on all basis pairs.
    """
    if not is_idempotent(alg):
        raise InputError("decomposition test needs an idempotent operator")
    e, p = _images(alg)
    k = [alg.add(v, alg.scale(-1, pv)) for v, pv in zip(e, p)]
    return _first_failure(alg, 2, lambda i, j: (
        (alg.multiply(p[i], p[j]), alg.zero, alg.zero),
        (alg.operator(alg.multiply(p[i], p[j])),
         alg.operator(alg.multiply(p[i], k[j])),
         alg.operator(alg.multiply(k[j], p[i]))))) is None


# ---------------------------------------------------------------------------
# JSON surface

def algebra_to_json(alg: FiniteAlgebra) -> dict:
    return {
        "dim": alg.dim,
        "basis": list(alg.basis),
        "mul": [[[str(c) for c in row] for row in plane] for plane in alg.mul],
        "op": [[str(c) for c in row] for row in alg.op],
    }


class MissingKey(InputError, KeyError):
    """An instance lacks a key it needs; a KeyError too, as it always was."""


def algebra_from_json(data) -> FiniteAlgebra:
    """The algebra a decoded JSON value describes: an object with a list
    ``basis``, the tables ``mul`` (n x n x n) and ``op`` (n x n) of integers
    or rational strings, and optionally ``dim``.  Every wrong shape is an
    :class:`~avalg._record.InputError`, like a table that is not an
    associative algebra's; a missing key is also a KeyError."""
    if not isinstance(data, dict):
        raise InputError("an instance is a JSON object")
    for key in ("basis", "mul", "op"):
        if key not in data:
            raise MissingKey(key)
    if not isinstance(data["basis"], list):
        raise InputError("basis must be a list")
    basis = tuple(data["basis"])
    dim = data.get("dim")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, (int, str))
                            or _frac(dim) != len(basis)):
        raise InputError("dim does not match basis length")
    return FiniteAlgebra(basis, _table(data["mul"], 3, "mul"), _table(data["op"], 2, "op"))


def load_algebra(path) -> FiniteAlgebra:
    """:func:`algebra_from_json` of the JSON file at ``path``; a file that
    cannot be opened or decoded is an InputError too."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InputError(exc) from exc
    return algebra_from_json(data)


def _table(value, depth: int, name: str):
    """``value`` if it is lists nested ``depth`` deep around integers and
    strings; JSON's ``true`` and ``false`` are not integers here."""
    level = [value]
    for _ in range(depth):
        if not all(isinstance(v, list) for v in level):
            raise InputError(f"{name} must be lists nested {depth} deep")
        level = [item for v in level for item in v]
    if not all(isinstance(item, (int, str)) and not isinstance(item, bool) for item in level):
        raise InputError(f"{name} entries must be integers or rational strings")
    return value
