"""Counting averaging words with one idempotent generator and operator.

Here every bracket power is 1, so no bracket directly wraps another, no two
brackets are adjacent, and runs of the generator ``x`` are capped at
``run_cap`` (``math.inf`` lifts the cap).  Words are graded by *degree*
(bracket pairs) and *arity* (number of ``x``'s).  Two independent routes compute the same tables:

* ``census`` walks the words themselves, one at a time, with the one
  averaging-word grammar, held to bracket power 1 and the run cap, and
  classifies each word: *bracketed* (b) words start and end with a bracket,
  *indecomposable* (i) ones are bracketed of breadth 1, and the
  decomposable (d = b - i) and associate (c = a - b) columns follow.  It
  lives with that grammar in :mod:`avalg._grammar`, as do the word lists
  and the run collapse, so counting loads no word code.

* ``series`` reads I off the square root of its discriminant, whose rows in
  z follow each from the two before it by a linear recurrence in exact
  integers; B is read off I by I - zt = zt(1+t) B, and D, C and A follow.

The degree totals are twice the large Schroeder numbers, with the
indecomposable column giving the Schroeder numbers themselves.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, Iterator, Tuple, Union

from . import _forward
from ._record import BudgetExceeded, InputError, Record  # BudgetExceeded: re-exported

__all__ = [
    "BudgetExceeded",
    "compositions",
    "count_compositions",
    "CountTable",
    "Census",
    "census",
    "averaging_words_v",
    "indecomposable_words_v",
    "collapse_runs",
    "expand_runs",
    "BivariateSeries",
    "series",
    "univariate",
    "schroeder",
    "schroeder_sequence",
    "iter_schroeder_numbers",
    "reduce_to_v1",
    "closed_form",
    "series_value",
]

_HOME = dict.fromkeys(("census", "averaging_words_v", "indecomposable_words_v",
                       "collapse_runs", "expand_runs"), "_grammar")
_forward(globals())

Cap = Union[int, float]


def _check_cap(cap: Cap) -> Cap:
    if cap == math.inf:
        return math.inf
    if type(cap) is int and cap >= 1:  # not a bool
        return cap
    raise InputError("run cap must be a positive integer or math.inf")


def _check_sizes(*sizes: int) -> None:
    if min(sizes) < 0:
        raise InputError("table sizes must be nonnegative")


# ---------------------------------------------------------------------------
# Compositions

def compositions(m: int, k: int, cap: Cap = math.inf) -> tuple:
    """All ways to write m as k ordered positive parts, each part <= cap, in
    lexicographic order: the parts between k - 1 cut points of 1..m-1."""
    _check_cap(cap)
    if m < 1 or k < 1:
        return ()
    out = []
    for cuts in itertools.combinations(range(1, m), k - 1):
        parts = tuple(map(operator.sub, cuts + (m,), (0,) + cuts))
        if max(parts) <= cap:
            out.append(parts)
    return tuple(out)


def count_compositions(m: int, k: int, cap: Cap = math.inf) -> int:
    """[t^m] (t + t^2 + ... + t^cap)^k, by inclusion-exclusion over the j
    parts that exceed the cap (a binomial when the cap is infinite)."""
    _check_cap(cap)
    if m < 1 or k < 1 or m > k * cap:
        return 0
    if cap == math.inf:
        return math.comb(m - 1, k - 1)
    return sum(
        (-1) ** j * math.comb(k, j) * math.comb(m - j * cap - 1, k - 1)
        for j in range(min(k, (m - k) // cap) + 1)
    )


# ---------------------------------------------------------------------------
# Count tables

class CountTable(Record):
    """Exact counts by (degree, arity)."""

    __slots__ = _fields = ("counts", "run_cap", "include_one", "max_degree", "max_arity")

    def __init__(self, counts: Dict[Tuple[int, int], int], run_cap: Cap,
                 include_one: bool = False, max_degree: int = 0, max_arity: int = 0):
        Record.__init__(self, counts, run_cap, include_one, max_degree, max_arity)

    def count(self, n: int, m: int) -> int:
        return self.counts.get((n, m), 0)

    def degree_total(self, n: int) -> int:
        return sum(c for (nn, _), c in self.counts.items() if nn == n)

    def degree_totals(self, max_degree: Union[int, None] = None) -> list:
        top = self.max_degree if max_degree is None else max_degree
        return [self.degree_total(n) for n in range(top + 1)]

    def rows(self) -> list:
        return [(n, m, c) for (n, m), c in sorted(self.counts.items())]

    def to_json(self) -> dict:
        return {
            "run_cap": "inf" if self.run_cap == math.inf else self.run_cap,
            "include_one": self.include_one,
            "max_degree": self.max_degree,
            "max_arity": self.max_arity,
            "cells": [[n, m, c] for n, m, c in self.rows()],
        }


class Census(Record):
    """The count tables of one census; each table holds the cap and bounds
    it was counted under.  ``words`` holds the listed words, rendered, in
    canonical order, or None."""

    __slots__ = _fields = ("a", "b", "c", "d", "i", "words")

    def __init__(self, a: CountTable, b: CountTable, c: CountTable, d: CountTable,
                 i: CountTable, words: Union[dict, None] = None):
        Record.__init__(self, a, b, c, d, i, words)


# ---------------------------------------------------------------------------
# Generating series, solved coefficientwise

class BivariateSeries(Record):
    """Truncated series in z (degree) and t (arity) with exact coefficients;
    ``table[n][m]`` is the coefficient of z^n t^m."""

    __slots__ = _fields = ("kind", "max_degree", "max_arity", "table")

    def __init__(self, kind: str, max_degree: int, max_arity: int, table: tuple):
        Record.__init__(self, kind, max_degree, max_arity, table)

    def coeff(self, n: int, m: int) -> int:
        if 0 <= n <= self.max_degree and 0 <= m <= self.max_arity:
            return self.table[n][m]
        return 0

    def row_sum(self, n: int) -> int:
        return sum(self.table[n])

    def evaluate(self, z: float, t: float) -> float:
        total = 0.0
        for n in range(self.max_degree + 1):
            zn = z ** n
            for m in range(self.max_arity + 1):
                c = self.table[n][m]
                if c:
                    total += c * zn * t ** m
        return total

    def cells(self) -> list:
        return [
            (n, m, self.table[n][m])
            for n in range(self.max_degree + 1)
            for m in range(self.max_arity + 1)
            if self.table[n][m]
        ]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "max_degree": self.max_degree,
            "max_arity": self.max_arity,
            "cells": [[n, m, c] for n, m, c in self.cells()],
        }


# I = zt + t I^2 + zt I, so I = (1 - zt - r) / (2t) with r the square root
# of the discriminant _DELTA.  A polynomial is a dict {(i, j): c} for the
# terms c * z^i * t^j.
_DELTA = {(0, 0): 1, (1, 1): -2, (1, 2): -4, (2, 2): 1}  # z^2 t^2 - (2t + 4t^2) z + 1


def _t_times(p: list, row: list) -> list:
    """The product p * row in Z[t], truncated to the length of row."""
    out = [0] * len(row)
    for j, c in enumerate(p):
        if c:
            out[j:] = [x + c * y for x, y in zip(out[j:], row)]
    return out


def _solve_i(N: int, M: int) -> list:
    """Rows 0..N of I, arities 0..M.  With _DELTA = 1 + a z + b z^2, the
    rows f_n in Z[t] of F = sqrt(_DELTA) obey _DELTA F' = _DELTA' F / 2, so
    2n f_n = (3 - 2n) a f_(n-1) + 2(3 - n) b f_(n-2), dividing exactly; and
    I = (1 - zt - F) / (2t) takes arity m of I from arity m + 1 of F."""
    a = [_DELTA.get((1, j), 0) for j in range(3)]
    b = [_DELTA.get((2, j), 0) for j in range(3)]
    f = {-1: [0] * (M + 2), 0: [1] + [0] * (M + 1)}
    for n in range(1, N + 1):
        fa, fb = _t_times(a, f[n - 1]), _t_times(b, f[n - 2])
        f[n] = [((3 - 2 * n) * x + 2 * (3 - n) * y) // (2 * n) for x, y in zip(fa, fb)]
    return [[-((n == 1 and m == 0) + f[n][m + 1]) // 2 for m in range(M + 1)]
            for n in range(N + 1)]


_KINDS = ("I", "B", "D", "C", "A")


def series(kind: str, max_degree: int, max_arity: int) -> BivariateSeries:
    """The bivariate series for kind in I, B, D, C, A at the idempotent cap 1.

    I, the root of I - zt = zt(1+t) I / (1 - tI), comes from sqrt(_DELTA)
    (:func:`_solve_i`); B = I/(1 - tI) is read off I by I - zt = zt(1+t) B;
    D = B - I; C = t + (2t + t^2) B; A = 1 + B + C.
    """
    if kind not in _KINDS:
        raise InputError(f"unknown series kind {kind!r}; expected one of {_KINDS}")
    _check_sizes(max_degree, max_arity)
    N, M = max_degree, max_arity
    i = _solve_i(N + 1, M + 1)
    # B = (I - zt) / (zt(1+t)): reading I one degree and one arity up
    # divides by zt, and subtracting the previous cell divides by 1 + t; two
    # zeros past arity M stand for b[n][-1] and b[n][-2]
    b = [[0] * (M + 3) for _ in range(N + 1)]
    for n in range(N + 1):
        for m in range(M + 1):
            b[n][m] = i[n + 1][m + 1] - (n == m == 0) - b[n][m - 1]

    def c(n: int, m: int) -> int:
        return (n == 0 and m == 1) + 2 * b[n][m - 1] + b[n][m - 2]

    cell = {
        "I": lambda n, m: i[n][m],
        "B": lambda n, m: b[n][m],
        "D": lambda n, m: b[n][m] - i[n][m],
        "C": c,
        "A": lambda n, m: (n == m == 0) + b[n][m] + c(n, m),
    }[kind]
    table = tuple(tuple(cell(n, m) for m in range(M + 1)) for n in range(N + 1))
    return BivariateSeries(kind, N, M, table)


def univariate(kind: str, max_degree: int) -> list:
    """Row sums over arity; the t = 1 specialization of :func:`series`."""
    s = series(kind, max_degree, 2 * max_degree + 1)
    return [s.row_sum(n) for n in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# Schroeder numbers

def schroeder(n: int) -> int:
    """The large Schroeder number s_n, read off :func:`iter_schroeder_numbers`."""
    if n < 0:
        raise InputError("index must be nonnegative")
    return next(itertools.islice(iter_schroeder_numbers(), n, None))


def schroeder_sequence(count: int) -> list:
    """s_0 .. s_(count-1)."""
    return list(itertools.islice(iter_schroeder_numbers(), count))


def iter_schroeder_numbers() -> Iterator[int]:
    """s_0, s_1, ... without end, by (n + 1) s_n = 3 (2n - 1) s_(n-1) -
    (n - 2) s_(n-2) from s_0 = 1 and s_1 = 2: one big integer times a small
    one per term.  The paper counts them by a composition recursion, s_n =
    2 * (sum over compositions p of n of s_(p_1-1)...s_(p_j-1)) for n >= 1."""
    prev, s = 1, 2
    yield 1
    for n in itertools.count(2):
        yield s
        prev, s = s, (3 * (2 * n - 1) * s - (n - 2) * prev) // (n + 1)


# ---------------------------------------------------------------------------
# Run-cap reduction: substitute the run series into the cap-1 table

def reduce_to_v1(run_cap: Cap, max_degree: int, max_arity: int,
                 include_one: bool = True) -> CountTable:
    """Counts for an arbitrary run cap from the cap-1 series.

    Each x of a cap-1 word expands independently into a run of length 1..cap,
    so the cap-v series is the cap-1 series with t replaced by
    t + t^2 + ... + t^cap (all powers of t when the cap is infinite).
    """
    cap = _check_cap(run_cap)
    a1 = series("A", max_degree, max_arity)
    counts: Dict[Tuple[int, int], int] = {(0, 0): 1} if include_one else {}
    for n in range(max_degree + 1):
        terms = [(k, c) for k, c in enumerate(a1.table[n]) if c]
        for m in range(1, max_arity + 1):
            total = sum(c * count_compositions(m, k, cap) for k, c in terms if k <= m)
            if total:
                counts[(n, m)] = total
    return CountTable(counts, cap, include_one, max_degree, max_arity)


# ---------------------------------------------------------------------------
# Closed radical forms (floating point; validated against the series)

# Each closed form is (P + Q*r) / R with P, Q, R in Z[z, t] and r the square
# root of _DELTA, so the series G of its kind satisfies (R*G - P)^2 = Q^2*_DELTA
# exactly.
_RADICAL_FORMS = {
    # kind: (P, Q, R)
    "I": ({(0, 0): 1, (1, 1): -1}, {(0, 0): -1}, {(0, 1): 2}),
    "B": ({(0, 0): 1, (1, 1): -1, (1, 2): -2}, {(0, 0): -1}, {(1, 2): 2, (1, 3): 2}),
    "D": ({(0, 0): 1, (1, 1): -2, (1, 2): -3, (2, 2): 1, (2, 3): 1},
          {(0, 0): -1, (1, 1): 1, (1, 2): 1}, {(1, 2): 2, (1, 3): 2}),
    "C": ({(0, 0): 2, (0, 1): 1, (1, 1): -2, (1, 2): -3}, {(0, 0): -2, (0, 1): -1},
          {(1, 1): 2, (1, 2): 2}),
    "A": ({(0, 0): 1, (0, 1): 1, (1, 1): -1, (1, 2): -1}, {(0, 0): -1, (0, 1): -1},
          {(1, 2): 2}),
}


def _poly_value(poly: dict, z: float, t: float) -> float:
    return sum(c * z ** i * t ** j for (i, j), c in poly.items())


def closed_form(kind: str, z: float, t: float) -> float:
    """The radical expression for each series, in double precision."""
    if kind not in _RADICAL_FORMS:
        raise InputError(f"unknown series kind {kind!r}")
    p, q, r = _RADICAL_FORMS[kind]
    root = math.sqrt(_poly_value(_DELTA, z, t))
    return (_poly_value(p, z, t) + _poly_value(q, z, t) * root) / _poly_value(r, z, t)


def series_value(kind: str, z: float, t: float, max_degree: int = 25) -> float:
    """Truncated numeric sum of the series, for radical spot checks."""
    s = series(kind, max_degree, 2 * max_degree + 1)
    return s.evaluate(z, t)
