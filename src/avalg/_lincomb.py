"""Linear combinations of averaging words with exact rational coefficients,
and the universal map into any averaging algebra.

Evaluation does not use them, so :mod:`avalg.algebra` reads their names
from here on first use, and ``normalize`` and ``compose`` load no
``fractions``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Mapping

from ._record import InputError, Record, exact, printed
from .algebra import apply_p, diamond
from .words import WordSyntaxError, _evaluate, _layers, certified, parse_word, raw, render_word, word_key


class LinCombSyntaxError(InputError):
    pass


def _collect(pairs, certify: Callable, key: Callable) -> tuple:
    """Formal-sum terms: each item certified by ``certify`` before its coefficient
    is made a Fraction; items with equal ``key`` add, zeros drop, sorted by
    ``key``.  The canonical key holds the rendered text, so it tells items
    apart without hashing them, which recurses once per nesting level."""
    acc: dict = {}
    for x, c in pairs:
        x = certify(x)
        c = Fraction(c)
        if c:
            k = key(x)
            first, total = acc.get(k, (x, 0))
            acc[k] = (first, total + c)
    return tuple(acc[k] for k in sorted(acc) if acc[k][1])


class LinearCombination(Record):
    """Finite formal sum of averaging words, zero coefficients dropped.

    Terms iterate in canonical word order: (degree, arity, rendered text).
    """

    __slots__ = _fields = ("terms",)  # tuple[tuple[AveragingWord, Fraction], ...]

    def __init__(self, terms: tuple):
        Record.__init__(self, tuple(terms))

    @staticmethod
    def from_terms(pairs) -> "LinearCombination":
        return LinearCombination(_collect(pairs, certified, word_key))

    @staticmethod
    def of(w, coeff=1) -> "LinearCombination":
        return LinearCombination.from_terms([(w, Fraction(coeff))])

    @staticmethod
    def zero() -> "LinearCombination":
        return LinearCombination(())

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w) -> Fraction:
        w = certified(w)
        for wi, c in self.terms:
            if wi == w:
                return c
        return Fraction(0)

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        return LinearCombination.from_terms(list(self.terms) + list(other.terms))

    def __neg__(self) -> "LinearCombination":
        return LinearCombination(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + (-other)

    def scale(self, c) -> "LinearCombination":
        c = Fraction(c)
        if not c:
            return LinearCombination.zero()
        return LinearCombination(tuple((w, c * ci) for w, ci in self.terms))

    def __mul__(self, other: "LinearCombination") -> "LinearCombination":
        """Bilinear extension of the diamond product."""
        pairs = []
        for u, cu in self.terms:
            for v, cv in other.terms:
                pairs.append((diamond(u, v), cu * cv))
        return LinearCombination.from_terms(pairs)

    def operator(self) -> "LinearCombination":
        """Linear extension of the averaging operator."""
        return LinearCombination.from_terms(
            (apply_p(w), c) for w, c in self.terms
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (w, c) in enumerate(self.terms):
            if i == 0:
                parts.append(f"{c}*{render_word(w)}")
            elif c < 0:
                parts.append(f" - {-c}*{render_word(w)}")
            else:
                parts.append(f" + {c}*{render_word(w)}")
        return "".join(parts)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": printed("a coefficient has", str, c), "word": render_word(w)}
                for w, c in self.terms
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "LinearCombination":
        return LinearCombination.from_terms(
            (parse_word(t["word"]), Fraction(t["coeff"])) for t in data["terms"]
        )


def parse_lincomb(text: str) -> LinearCombination:
    """Parse ``c1*word1 + c2*word2 ...``; a bare word has coefficient 1."""
    stripped = text.strip()
    if stripped == "0":
        return LinearCombination.zero()
    terms = _split_terms(stripped)
    if terms and terms[-1][0] == "op":
        raise LinCombSyntaxError(f"dangling {terms[-1][1]!r}")
    pairs = []
    sign = 1
    for kind, body in terms:
        if kind == "op":
            sign = 1 if body == "+" else -1
            continue
        coeff, wtext = _split_coeff(body)
        try:
            w = parse_word(wtext)
        except WordSyntaxError as exc:
            raise LinCombSyntaxError(f"bad word in term {body!r}: {exc}") from exc
        pairs.append((w, sign * coeff))
        sign = 1
    if not pairs:
        raise LinCombSyntaxError("empty linear combination")
    return LinearCombination.from_terms(pairs)


def _split_terms(text: str):
    # split on +/- between terms; a sign that begins a term or follows a coefficient's e/E stays
    out = []
    buf = []
    depth_brackets = 0
    for ch in text:
        if ch == "[":
            depth_brackets += 1
        elif ch == "]":
            depth_brackets -= 1
        term = "".join(buf) if ch in "+-" and depth_brackets == 0 else ""
        if term.strip() and not re.fullmatch(r"\s*[-+]?[\d.][\d._]*[eE]", term):
            out.append(("term", term.strip()))
            out.append(("op", ch))
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        out.append(("term", tail))
    return out


def _split_coeff(body: str):
    if "*" in body:
        ctext, wtext = body.split("*", 1)
        ctext = ctext.strip()
        try:
            return exact("a coefficient has", ctext, Fraction), wtext.strip()
        except (ValueError, ZeroDivisionError) as exc:
            raise LinCombSyntaxError(f"bad coefficient {ctext!r}") from exc
    return Fraction(1), body.strip()


# ---------------------------------------------------------------------------
# The universal property

def universal_map(assignment: Mapping[str, object], target, value):
    """Evaluate words or combinations in any averaging algebra.

    ``assignment`` sends letter symbols to elements of ``target``; ``target``
    provides ``multiply``, ``operator``, ``add``, ``scale`` and ``zero``.
    This is the unique averaging homomorphism extending the assignment:
    letters map through ``assignment``, juxtaposition to ``multiply`` and
    each bracket layer to one application of ``operator``.

    A target may also carry an encoded form of its elements:
    ``encode``/``decode``, ``kernel_multiply``, ``kernel_operator`` and
    ``kernel_sum`` (a sum of ``(coefficient, value)`` terms), as
    :class:`~avalg.instances.FiniteAlgebra` does with a tuple of integer
    numerators over one denominator, and kernels unrolled into straight-line
    code once per algebra.  Then each assigned element is encoded once, the whole
    evaluation and the sum over a combination's terms run on encoded values,
    and the result is decoded once.  The kernel operations leave their
    arguments unchanged, so each bracket object, however many terms share
    it, is evaluated once per call.  Any other target is its own encoding:
    ``multiply`` and ``operator`` act directly, a bracket is evaluated
    wherever it occurs, and the terms are summed with ``add`` and ``scale``
    from ``zero``.

    ``multiply`` and ``operator`` must not mutate their arguments: they get
    the assignment's own elements and values they returned earlier, and
    nothing is copied for them.
    """
    if hasattr(target, "encode"):
        encode, decode, total = target.encode, target.decode, target.kernel_sum
        multiply, apply = target.kernel_multiply, _layers(target.kernel_operator)
        memo = {}  # by bracket id; ``value`` keeps every bracket alive meanwhile
    else:
        encode = decode = _same
        multiply, apply = target.multiply, _layers(target.operator)
        memo = None

        def total(terms):
            out = target.zero
            for c, x in terms:
                out = target.add(out, target.scale(c, x))
            return out

    image = {s: encode(x) for s, x in assignment.items()}.__getitem__
    if isinstance(value, LinearCombination):
        return decode(total([(c, _evaluate(raw(w), image, multiply, apply, memo))
                             for w, c in value.terms]))
    return decode(_evaluate(raw(value), image, multiply, apply, memo))


def _same(x):
    return x


def random_lincomb(rng, alphabet=("x", "y"), max_terms: int = 3,
                   max_depth: int = 3) -> LinearCombination:
    """Seeded random combination for property tests."""
    from ._grammar import random_averaging_word  # here only: products run without it

    if not alphabet or max_terms < 1:
        raise InputError("random_lincomb needs a nonempty alphabet and max_terms >= 1")
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        w = random_averaging_word(rng, alphabet, max_depth=max_depth)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        pairs.append((w, c))
    return LinearCombination.from_terms(pairs)
