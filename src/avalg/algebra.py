"""The free averaging algebra on averaging words.

An averaging operator ``P`` on an algebra satisfies

    P(x)P(y) = P(xP(y)) = P(P(x)y)   for all x, y.

The free such algebra on an alphabet has the averaging words of
:mod:`avalg.words` as a linear basis.  This module provides the product
``diamond``, the operator ``apply_p``, the reduction of arbitrary bracketed
words to normal form (two independent routes: evaluation and rewriting),
exact-rational linear combinations, and the universal map into any other
averaging algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from .words import (
    AveragingWord,
    Bracket,
    BracketedWord,
    Letter,
    WordSyntaxError,
    _normal,
    certified,
    head_index,
    parse_word,
    random_averaging_word,
    raw,
    render_word,
    tail_index,
    word,
    word_key,
    word_size,
)

__all__ = [
    "diamond",
    "apply_p",
    "reduce",
    "rewrite_reduce",
    "StepBudgetExceeded",
    "LinearCombination",
    "parse_lincomb",
    "universal_map",
]


# ---------------------------------------------------------------------------
# Evaluation core.  A value under construction is a list of factors that it
# alone owns; its brackets are _Node cells, so the two rules below edit in
# place and cost O(1).  Frozen factors (letters, and the unedited parts of
# certified operands) may sit in those lists and pass through _freeze as they
# are.

class _Node:
    """A bracket ``[core]^power`` under construction.

    ``core`` is a list of factors, or a frozen word that is not edited.
    ``bottom`` is the core list at the foot of the bracket's right spine, the
    one that ends in a letter: the place where a merge appends.  It is None
    when the spine below was left frozen, which only happens where no merge
    into this node follows.
    """

    __slots__ = ("core", "power", "bottom")

    def __init__(self, core: Union[list, BracketedWord], power: int, bottom):
        self.core = core
        self.power = power
        self.bottom = bottom


def _merge(left: _Node, right: _Node) -> None:
    # [u]^s <> [v]^t = [u <> [v]]^(s+t-1); u <> [v] appends [v] at the foot of
    # u's right spine, and [v] takes over as the new foot
    left.power += right.power - 1
    right.power = 1
    left.bottom.append(right)
    left.bottom = right.bottom


def _apply_p(u: list) -> _Node:
    """The operator on a normal value ``u``, which it consumes."""
    first, last = u[0], u[-1]
    if isinstance(first, Letter):
        if isinstance(last, Letter):
            # plain wrap: u -> [u]
            return _Node(u, 1, u)
        # u1[u2]^s -> [u1[u2]]^s; s = 1 is the plain wrap again
        power, last.power = last.power, 1
        return _Node(u, power, last.bottom)
    if len(u) == 1:
        # [u1]^s -> [u1]^(s+1)
        first.power += 1
        return first
    # [u1]^s u2 -> [u1 <> [u2]]^s and [u1]^s u2[u3]^t -> [u1 <> [u2[u3]]]^(s+t-1):
    # the head-0 case on the rest, merged into the first bracket
    _merge(first, _apply_p(u[1:]))
    return first


def _thaw(b: Bracket, spine: bool = False) -> _Node:
    """A node for ``b`` whose core stays frozen and only whose power may
    change; with ``spine``, a copy of its right spine whose foot a merge can
    append to."""
    if not spine:
        return _Node(b.core, b.power, None)
    node = cell = _Node(list(b.core.factors), b.power, None)
    while isinstance(cell.core[-1], Bracket):
        inner = cell.core[-1]
        cell.core[-1] = cell = _Node(list(inner.core.factors), inner.power, None)
    node.bottom = cell.core
    return node


def _freeze(value: list) -> tuple:
    """The factor tuple of an owned value, built without recursion.

    Each node is frozen after the nodes in its core and then takes its own
    place in the list that holds it; the lists are used up.
    """
    places = []  # (list, index) of every node, after the node that holds it
    todo = [value]
    while todo:
        factors = todo.pop()
        for i, f in enumerate(factors):
            if isinstance(f, _Node):
                places.append((factors, i))
                if isinstance(f.core, list):
                    todo.append(f.core)
    for factors, i in reversed(places):
        node = factors[i]
        core = node.core
        if isinstance(core, list):
            core = BracketedWord(tuple(core))
        factors[i] = Bracket(core, node.power)
    return tuple(value)


def _diamond(u: BracketedWord, v: BracketedWord) -> BracketedWord:
    last, first = u.factors[-1], v.factors[0]
    if isinstance(last, Letter) or isinstance(first, Letter):
        return BracketedWord(u.factors + v.factors)
    left = _thaw(last, spine=True)
    _merge(left, _thaw(first))
    return BracketedWord(u.factors[:-1] + _freeze([left]) + v.factors[1:])


def diamond(u: Union[AveragingWord, BracketedWord],
            v: Union[AveragingWord, BracketedWord]) -> AveragingWord:
    """Product of the free averaging algebra.

    Concatenation, except that a bracket meeting a bracket at the junction
    merges by ``[u']^s <> [v']^t = [u' <> [v']]^(s+t-1)``.  Copies only the
    left operand's right spine, where the merge appends.
    """
    ru, rv = certified(u).word, certified(v).word
    result = _diamond(ru, rv)
    # head/tail preservation holds for every product by construction
    if head_index(result) != head_index(ru) or tail_index(result) != tail_index(rv):
        raise AssertionError(f"diamond changed the head or tail index: {render_word(result)}")
    return _normal(result)


def apply_p(u: Union[AveragingWord, BracketedWord]) -> AveragingWord:
    """The averaging operator on normal forms.

    Copies the top level and, when the word has more than one factor, the
    first bracket's right spine: the places the operator edits.
    """
    factors = certified(u).word.factors
    value = list(factors)
    first, last = factors[0], factors[-1]
    if isinstance(first, Bracket):
        value[0] = _thaw(first, spine=len(factors) > 1)
    if isinstance(last, Bracket) and len(factors) > 1:
        value[-1] = _thaw(last)
    return _normal(BracketedWord(_freeze([_apply_p(value)])))


def reduce(w: Union[BracketedWord, AveragingWord]) -> AveragingWord:
    """Normal form of an arbitrary bracketed word, in time linear in its size.

    Evaluates ``w`` inside the free averaging algebra itself: concatenation
    becomes the product and each bracket layer one operator application.
    Identity on averaging words.
    """
    return _normal(BracketedWord(_freeze(_value(raw(w)))))


def _value(w: BracketedWord) -> list:
    # the product of the factors' values, folded left to right.  [w]^s is P
    # applied s times; past the first the value is one bracket, so the rest
    # add to its power, and it merges with a bracket before it
    value = []
    for f in w.factors:
        if isinstance(f, Bracket):
            node = _apply_p(_value(f.core))
            node.power += f.power - 1
            if value and isinstance(value[-1], _Node):
                _merge(value[-1], node)
                continue
            f = node
        value.append(f)
    return value


# ---------------------------------------------------------------------------
# Rule-based reduction: the independent oracle for ``reduce``.

class StepBudgetExceeded(RuntimeError):
    """The rewrite loop ran past its step budget; signals a termination bug."""


def _unwrap(b: Bracket) -> BracketedWord:
    """Content of the outermost literal layer of ``b``."""
    return b.core if b.power == 1 else word(Bracket(b.core, b.power - 1))


def _rule_adjacent(left: Bracket, right: Bracket) -> Bracket:
    # [U][V] -> [U[V]] applied to the outermost layer of the left factor
    return Bracket(BracketedWord(_unwrap(left).factors + (right,)), 1)


def _rule_bracket_headed(b: Bracket):
    # [[U]v] -> [U[v]] with v nonempty, at the innermost layer of b
    core = b.core
    if len(core.factors) < 2 or not isinstance(core.factors[0], Bracket):
        return None
    head = core.factors[0]
    rest = BracketedWord(core.factors[1:])
    new_core = BracketedWord(_unwrap(head).factors + (Bracket(rest, 1),))
    return Bracket(new_core, b.power)


def _rule_power_tail(b: Bracket):
    # [u[v]^s] -> [u[v]]^s with s >= 2, u nonempty, at the innermost layer
    core = b.core
    if len(core.factors) < 2:
        return None
    last = core.factors[-1]
    if not isinstance(last, Bracket) or last.power < 2:
        return None
    new_core = BracketedWord(core.factors[:-1] + (Bracket(last.core, 1),))
    return Bracket(new_core, last.power + b.power - 1)


def _step(w: BracketedWord, innermost: bool):
    """One rewrite at the leftmost redex; None when ``w`` is a normal form."""
    factors = w.factors

    def local(idx: int):
        f = factors[idx]
        if isinstance(f, Bracket):
            replaced = _rule_bracket_headed(f)
            if replaced is None:
                replaced = _rule_power_tail(f)
            if replaced is not None:
                return BracketedWord(factors[:idx] + (replaced,) + factors[idx + 1:])
        if (
            idx + 1 < len(factors)
            and isinstance(f, Bracket)
            and isinstance(factors[idx + 1], Bracket)
        ):
            merged = _rule_adjacent(f, factors[idx + 1])
            return BracketedWord(factors[:idx] + (merged,) + factors[idx + 2:])
        return None

    def descend(idx: int):
        f = factors[idx]
        if isinstance(f, Bracket):
            stepped = _step(f.core, innermost)
            if stepped is not None:
                return BracketedWord(
                    factors[:idx] + (Bracket(stepped, f.power),) + factors[idx + 1:]
                )
        return None

    order = (descend, local) if innermost else (local, descend)
    for idx in range(len(factors)):
        for attempt in order:
            result = attempt(idx)
            if result is not None:
                return result
    return None


def rewrite_reduce(w: Union[BracketedWord, AveragingWord], strategy: str = "innermost",
                   budget: Union[int, None] = None) -> AveragingWord:
    """Normal form by exhaustive rewriting with the three relation rules.

    R1: [u][v] -> [u[v]]        (adjacent bracket factors, any level)
    R2: [[u]v] -> [u[v]]        (v nonempty)
    R3: [u[v]^s] -> [u[v]]^s    (s >= 2, u nonempty)

    Independent of :func:`reduce`; the two must agree on every input.
    """
    if strategy not in ("innermost", "outermost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    current = raw(w)
    if budget is None:
        budget = 10 * word_size(current) ** 2
    innermost = strategy == "innermost"
    for _ in range(budget):
        stepped = _step(current, innermost)
        if stepped is None:
            return AveragingWord(current)
        current = stepped
    if _step(current, innermost) is None:
        return AveragingWord(current)
    raise StepBudgetExceeded(f"no normal form within {budget} steps")


# ---------------------------------------------------------------------------
# Linear combinations with exact rational coefficients

class LinCombSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class LinearCombination:
    """Finite formal sum of averaging words, zero coefficients dropped.

    Terms iterate in canonical word order: (degree, arity, rendered text).
    """

    terms: tuple  # tuple[tuple[AveragingWord, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @staticmethod
    def from_terms(pairs) -> "LinearCombination":
        acc: dict = {}
        for w, c in pairs:
            w = certified(w)
            c = Fraction(c)
            if c:
                acc[w] = acc.get(w, Fraction(0)) + c
        items = [(w, c) for w, c in acc.items() if c]
        items.sort(key=lambda wc: word_key(wc[0]))
        return LinearCombination(tuple(items))

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

    def map_words(self, fn: Callable) -> "LinearCombination":
        return LinearCombination.from_terms((fn(w), c) for w, c in self.terms)

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
                {"coeff": str(c), "word": render_word(w)} for w, c in self.terms
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
    pairs = []
    sign = 1
    for kind, body in _split_terms(stripped):
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
    # split on +/- that sit between terms; '-' inside a coefficient is kept
    out = []
    buf = []
    depth_brackets = 0
    for ch in text:
        if ch == "[":
            depth_brackets += 1
        elif ch == "]":
            depth_brackets -= 1
        if ch in "+-" and depth_brackets == 0 and buf and "".join(buf).strip():
            out.append(("term", "".join(buf).strip()))
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
            return Fraction(ctext), wtext.strip()
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
    """
    if isinstance(value, LinearCombination):
        total = target.zero
        for w, c in value.terms:
            total = target.add(total, target.scale(c, _eval_word(assignment, target, raw(w))))
        return total
    return _eval_word(assignment, target, raw(value))


def _eval_word(assignment, target, w: BracketedWord):
    result = None
    for f in w.factors:
        if isinstance(f, Letter):
            try:
                piece = assignment[f.symbol]
            except KeyError:
                raise KeyError(f"letter {f.symbol!r} has no assigned image") from None
        else:
            piece = _eval_word(assignment, target, f.core)
            for _ in range(f.power):
                piece = target.operator(piece)
        result = piece if result is None else target.multiply(result, piece)
    return result


def random_lincomb(rng, alphabet=("x", "y"), max_terms: int = 3,
                   max_depth: int = 3) -> LinearCombination:
    """Seeded random combination for property tests."""
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        w = random_averaging_word(rng, alphabet, max_depth=max_depth)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        pairs.append((w, c))
    return LinearCombination.from_terms(pairs)
