"""Counting averaging words with one idempotent generator and operator.

Here every bracket power is 1, so no bracket directly wraps another, no two
brackets are adjacent, and runs of the generator ``x`` are capped at
``run_cap`` (``math.inf`` lifts the cap).  Words are graded by *degree*
(bracket pairs) and *arity* (number of ``x``'s).  Two independent routes compute the same tables:

* ``census`` generates the words themselves with the one averaging-word
  grammar of :mod:`avalg.words`, held to bracket power 1 and the run cap,
  and classifies each word: *bracketed* (b) words start and end with a
  bracket, *indecomposable* (i) ones are bracketed of breadth 1, and the
  decomposable (d = b - i) and associate (c = a - b) columns follow.

* ``series`` solves the functional equations of the generating series
  degree by degree in exact integer arithmetic (no radicals).

The degree totals are twice the large Schroeder numbers, with the
indecomposable column giving the Schroeder numbers themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

from .words import (
    AveragingWord,
    Bracket,
    BracketedWord,
    Letter,
    _averaging_factors,
    raw,
    render_word,
    substitute_letters,
)

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
    "indecomposable_recursion",
    "reduce_to_v1",
    "closed_form",
    "series_value",
]

Cap = Union[int, float]


class BudgetExceeded(RuntimeError):
    """A census or series request would generate more words than allowed."""


def _check_cap(cap: Cap) -> Cap:
    if cap == math.inf:
        return math.inf
    if isinstance(cap, int) and cap >= 1:
        return cap
    raise ValueError("run cap must be a positive integer or math.inf")


# ---------------------------------------------------------------------------
# Compositions

def compositions(m: int, k: int, cap: Cap = math.inf) -> tuple:
    """All ways to write m as k ordered positive parts, each part <= cap."""
    _check_cap(cap)
    if m < 1 or k < 1:
        return ()
    top = m if cap == math.inf else min(m, int(cap))

    def rec(remaining: int, parts_left: int):
        if parts_left == 1:
            if 1 <= remaining <= top:
                yield (remaining,)
            return
        for first in range(1, min(top, remaining - parts_left + 1) + 1):
            for rest in rec(remaining - first, parts_left - 1):
                yield (first,) + rest

    return tuple(rec(m, k))


def count_compositions(m: int, k: int, cap: Cap = math.inf) -> int:
    return len(compositions(m, k, cap))


# ---------------------------------------------------------------------------
# Word generation under the idempotent convention

def _cell_factors(cap: Cap, n: int, m: int) -> tuple:
    """Factor tuples of the words of degree n and arity m, in generation order."""
    return (_averaging_factors("x", m, n, 1, cap, 0)
            + _averaging_factors("x", m, n, 1, cap, 1))


def _canonical(found) -> tuple:
    """Factor tuples as words, in canonical (rendered) order."""
    return tuple(sorted(map(BracketedWord, found), key=render_word))


def averaging_words_v(run_cap: Cap, n: int, m: int) -> tuple:
    """The words of degree n and arity m, canonical order (no trivial word)."""
    return _canonical(_cell_factors(_check_cap(run_cap), n, m))


def indecomposable_words_v(run_cap: Cap, n: int, m: int = -1) -> tuple:
    """Indecomposable words of degree n (all arities when m is omitted).

    Omitting the arity needs a finite run cap, since an indecomposable word
    of degree n has at most 2n - 1 runs of at most cap letters each.
    """
    cap = _check_cap(run_cap)
    if m < 0 and cap == math.inf:
        raise ValueError("an explicit arity is required when the run cap is infinite")
    arities = [m] if m >= 0 else range(1, int(cap) * max(2 * n - 1, 1) + 1)
    out = []
    for mm in arities:
        found = _averaging_factors("x", mm, n, 1, cap, 1)
        out.extend(_canonical(f for f in found if len(f) == 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# Count tables

@dataclass
class CountTable:
    """Exact counts by (degree, arity)."""

    counts: Dict[Tuple[int, int], int]
    run_cap: Cap
    include_one: bool = False
    max_degree: int = 0
    max_arity: int = 0

    def count(self, n: int, m: int) -> int:
        return self.counts.get((n, m), 0)

    def degree_total(self, n: int) -> int:
        return sum(c for (nn, _), c in self.counts.items() if nn == n)

    def degree_totals(self, max_degree: Union[int, None] = None) -> list:
        top = self.max_degree if max_degree is None else max_degree
        return [self.degree_total(n) for n in range(top + 1)]

    def rows(self) -> list:
        return [
            (n, m, c) for (n, m), c in sorted(self.counts.items()) if c
        ]

    def to_json(self) -> dict:
        return {
            "run_cap": "inf" if self.run_cap == math.inf else self.run_cap,
            "include_one": self.include_one,
            "max_degree": self.max_degree,
            "max_arity": self.max_arity,
            "cells": [[n, m, c] for n, m, c in self.rows()],
        }


@dataclass
class Census:
    run_cap: Cap
    include_one: bool
    max_degree: int
    max_arity: int
    a: CountTable
    b: CountTable
    c: CountTable
    d: CountTable
    i: CountTable
    words: Union[dict, None] = None


def census(run_cap: Cap, max_degree: int, max_arity: int, include_one: bool = False,
           list_words: bool = False, budget: int = 10**7) -> Census:
    """Exhaustively generate and count the idempotent-convention words.

    The trivial word contributes 1 at cell (0, 0) when ``include_one`` is
    set.  Raises :class:`BudgetExceeded` when the total number of words to
    generate, predicted by :func:`reduce_to_v1`, would exceed ``budget``.
    Every cell is checked against that prediction.
    """
    cap = _check_cap(run_cap)
    cells = [(n, m) for n in range(max_degree + 1) for m in range(1, max_arity + 1)]
    expected = reduce_to_v1(cap, max_degree, max_arity, include_one=False)
    predicted = sum(expected.counts.values())
    if predicted > budget:
        raise BudgetExceeded(
            f"census would generate {predicted} words (budget {budget})"
        )

    tables = {name: {} for name in "abcdi"}
    words = {} if list_words else None
    for n, m in cells:
        found = _cell_factors(cap, n, m)
        if len(found) != expected.count(n, m):
            raise AssertionError(
                f"census generated {len(found)} words of degree {n} and arity {m},"
                f" the series predicts {expected.count(n, m)}"
            )
        brk = [f for f in found if isinstance(f[0], Bracket) and isinstance(f[-1], Bracket)]
        ind = sum(1 for f in brk if len(f) == 1)
        if found:
            tables["a"][(n, m)] = len(found)
        if brk:
            tables["b"][(n, m)] = len(brk)
            tables["i"][(n, m)] = ind
            if len(brk) - ind:
                tables["d"][(n, m)] = len(brk) - ind
        if len(found) - len(brk):
            tables["c"][(n, m)] = len(found) - len(brk)
        if words is not None and found:
            words[(n, m)] = _canonical(found)
    if include_one:
        tables["a"][(0, 0)] = 1

    def table(name: str, with_one: bool = False) -> CountTable:
        return CountTable(tables[name], cap, with_one, max_degree, max_arity)

    return Census(
        run_cap=cap,
        include_one=include_one,
        max_degree=max_degree,
        max_arity=max_arity,
        a=table("a", include_one),
        b=table("b"),
        c=table("c"),
        d=table("d"),
        i=table("i"),
        words=words,
    )


# ---------------------------------------------------------------------------
# Run collapse: the bijection behind the run-cap reduction

def collapse_runs(w: Union[BracketedWord, AveragingWord]) -> tuple:
    """Replace each maximal x-run by a single x; return (collapsed, run lengths).

    Runs are read left to right in nesting order, and never span a bracket
    boundary.  Together with the composition the collapsed word determines
    the original uniquely.
    """
    w = raw(w)
    lengths = []

    def walk(v: BracketedWord) -> BracketedWord:
        factors = []
        run, sym = 0, ""
        for f in v.factors:
            if isinstance(f, Letter):
                run, sym = run + 1, f.symbol
            else:
                if run:
                    lengths.append(run)
                    factors.append(Letter(sym))
                    run = 0
                factors.append(Bracket(walk(f.core), f.power))
        if run:
            lengths.append(run)
            factors.append(Letter(sym))
        return BracketedWord(tuple(factors))

    collapsed = walk(w)
    return collapsed, tuple(lengths)


def expand_runs(w: Union[BracketedWord, AveragingWord], parts: Sequence[int]) -> BracketedWord:
    """Inverse of :func:`collapse_runs`: the i-th letter becomes a run."""
    w = raw(w)
    parts = list(parts)
    if any(p < 1 for p in parts):
        raise ValueError("run lengths must be positive")
    it = iter(parts)

    def run(f: Letter) -> tuple:
        try:
            return (f,) * next(it)
        except StopIteration:
            raise ValueError("composition has fewer parts than letters") from None

    out = substitute_letters(w, run)
    if next(it, None) is not None:
        raise ValueError("composition has more parts than letters")
    return out


# ---------------------------------------------------------------------------
# Generating series, solved coefficientwise

@dataclass(frozen=True)
class BivariateSeries:
    """Truncated series in z (degree) and t (arity) with exact coefficients."""

    kind: str
    max_degree: int
    max_arity: int
    table: tuple  # table[n][m] -> int

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


@lru_cache(maxsize=None)
def _i_table(N: int, M: int) -> tuple:
    """Coefficients of I from I = zt + t*I^2 + zt*I, degree by degree."""
    i = [[0] * (M + 1) for _ in range(N + 1)]
    for n in range(1, N + 1):
        for m in range(1, M + 1):
            val = 1 if (n == 1 and m == 1) else 0
            if n >= 1 and m >= 1:
                val += i[n - 1][m - 1]
            # (t * I^2)[n][m]: products with both factors of degree >= 1
            for n1 in range(1, n):
                row1 = i[n1]
                row2 = i[n - n1]
                val += sum(
                    row1[m1] * row2[m - 1 - m1]
                    for m1 in range(1, m - 1)
                    if row1[m1] and row2[m - 1 - m1]
                )
            i[n][m] = val
    return tuple(tuple(row) for row in i)


@lru_cache(maxsize=None)
def _b_table(N: int, M: int) -> tuple:
    """Coefficients of B from B = I + t*I*B."""
    i = _i_table(N, M)
    b = [[0] * (M + 1) for _ in range(N + 1)]
    for n in range(1, N + 1):
        for m in range(1, M + 1):
            val = i[n][m]
            for n1 in range(1, n + 1):
                irow = i[n1]
                brow = b[n - n1]
                val += sum(
                    irow[m1] * brow[m - 1 - m1]
                    for m1 in range(1, m)
                    if irow[m1] and brow[m - 1 - m1]
                )
            b[n][m] = val
    return tuple(tuple(row) for row in b)


_KINDS = ("I", "B", "D", "C", "A")


def series(kind: str, max_degree: int, max_arity: int) -> BivariateSeries:
    """The bivariate series for kind in I, B, D, C, A at the idempotent cap 1.

    I satisfies I - zt = zt(1+t) I / (1 - tI); B = I/(1 - tI);
    D = B - I; C = t + (2t + t^2) B; A = 1 + B + C.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown series kind {kind!r}; expected one of {_KINDS}")
    N, M = max_degree, max_arity
    i = _i_table(N, M)
    b = _b_table(N, M)
    out = [[0] * (M + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        for m in range(M + 1):
            if kind == "I":
                out[n][m] = i[n][m]
            elif kind == "B":
                out[n][m] = b[n][m]
            elif kind == "D":
                out[n][m] = b[n][m] - i[n][m]
            else:
                c = 0
                if n == 0 and m == 1:
                    c = 1
                if m >= 1:
                    c += 2 * b[n][m - 1]
                if m >= 2:
                    c += b[n][m - 2]
                if kind == "C":
                    out[n][m] = c
                else:  # A = 1 + B + C
                    out[n][m] = c + b[n][m] + (1 if n == 0 and m == 0 else 0)
    return BivariateSeries(kind, N, M, tuple(tuple(row) for row in out))


def univariate(kind: str, max_degree: int) -> list:
    """Row sums over arity; the t = 1 specialization of :func:`series`."""
    s = series(kind, max_degree, 2 * max_degree + 1)
    return [s.row_sum(n) for n in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# Schroeder numbers

@lru_cache(maxsize=None)
def schroeder(n: int) -> int:
    """Large Schroeder number by the composition recursion

        s_0 = 1,  s_n = 2 * sum over j, (p_1..p_j) |= n of s_(p_1-1)...s_(p_j-1)

    computed in convolution form by :func:`schroeder_sequence`.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    return schroeder_sequence(n + 1)[n]


def schroeder_sequence(count: int) -> list:
    """s_0 .. s_(count-1); the inner sum of the recursion is C_0 = 1,
    C_n = sum_(p=1..n) s_(p-1) * C_(n-p), and s_n = 2 * C_n for n >= 1."""
    s, c = [1], [1]
    for n in range(1, count):
        c.append(sum(s[p - 1] * c[n - p] for p in range(1, n + 1)))
        s.append(2 * c[n])
    return s[:count]


def indecomposable_recursion(n: int) -> int:
    """i_n from its composition recursion, which is Schroeder's shifted by one.

    i_1 = 1 and i_n = 2 * sum over (p_1..p_j) |= n - 1 of i_(p_1)...i_(p_j),
    so i_n = s_(n-1).
    """
    return schroeder(n - 1) if n >= 1 else 0


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
    N, M = max_degree, max_arity
    a1 = series("A", N, M)
    g = [0] * (M + 1)
    for m in range(1, M + 1):
        if cap == math.inf or m <= cap:
            g[m] = 1
    # powers of the run series, truncated at M
    gpow = [[0] * (M + 1) for _ in range(M + 2)]
    gpow[0][0] = 1
    for k in range(1, M + 1):
        prev = gpow[k - 1]
        cur = gpow[k]
        for m1 in range(M + 1):
            if prev[m1]:
                for m2 in range(1, M + 1 - m1):
                    if g[m2]:
                        cur[m1 + m2] += prev[m1]
    counts: Dict[Tuple[int, int], int] = {}
    for n in range(N + 1):
        for m in range(M + 1):
            total = 0
            for k in range(M + 1):
                c = a1.coeff(n, k)
                if c:
                    total += c * gpow[k][m]
            if n == 0 and m == 0 and not include_one:
                total -= 1
            if total:
                counts[(n, m)] = total
    return CountTable(counts, cap, include_one, N, M)


# ---------------------------------------------------------------------------
# Closed radical forms (floating point; validated against the series)

def closed_form(kind: str, z: float, t: float) -> float:
    """The radical expression for each series, in double precision."""
    r = math.sqrt(z * z * t * t - (2 * t + 4 * t * t) * z + 1)
    if kind == "I":
        return (1 - z * t - r) / (2 * t)
    if kind == "B":
        return (1 - z * t - 2 * z * t * t - r) / (2 * z * t * t * (1 + t))
    if kind == "D":
        return (
            1 - 2 * z * t - 3 * z * t * t + z * z * t * t + z * z * t ** 3
            + (z * t + z * t * t - 1) * r
        ) / (2 * z * t * t * (1 + t))
    if kind == "C":
        return (2 + t - 2 * z * t - 3 * z * t * t - (2 + t) * r) / (2 * z * t * (1 + t))
    if kind == "A":
        return (1 + t) * (1 - z * t - r) / (2 * z * t * t)
    raise ValueError(f"unknown series kind {kind!r}")


def series_value(kind: str, z: float, t: float, max_degree: int = 25) -> float:
    """Truncated numeric sum of the series, for radical spot checks."""
    s = series(kind, max_degree, 2 * max_degree + 1)
    return s.evaluate(z, t)
