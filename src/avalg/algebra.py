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
    _trusted,
    certified,
    head_index,
    parse_word,
    random_averaging_word,
    raw,
    render_word,
    tail_index,
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
            core = _trusted(tuple(core))
        factors[i] = Bracket(core, node.power)
    return tuple(value)


def _diamond(u: BracketedWord, v: BracketedWord) -> BracketedWord:
    last, first = u.factors[-1], v.factors[0]
    if isinstance(last, Letter) or isinstance(first, Letter):
        return _trusted(u.factors + v.factors)
    left = _thaw(last, spine=True)
    _merge(left, _thaw(first))
    return _trusted(u.factors[:-1] + _freeze([left]) + v.factors[1:])


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

    A word that starts with a letter and ends in a letter or a power-1
    bracket is wrapped as it is.  Otherwise copies the top level and, when
    the word has more than one factor, the first bracket's right spine: the
    places the operator edits.
    """
    w = certified(u).word
    factors = w.factors
    first, last = factors[0], factors[-1]
    if isinstance(first, Letter) and (isinstance(last, Letter) or last.power == 1):
        return _normal(_trusted((Bracket(w),)))
    value = list(factors)
    if isinstance(first, Bracket):
        value[0] = _thaw(first, spine=len(factors) > 1)
    if isinstance(last, Bracket) and len(factors) > 1:
        value[-1] = _thaw(last)
    return _normal(_trusted(_freeze([_apply_p(value)])))


def reduce(w: Union[BracketedWord, AveragingWord]) -> AveragingWord:
    """Normal form of an arbitrary bracketed word, in time linear in its size.

    Evaluates ``w`` inside the free averaging algebra itself: concatenation
    becomes the product and each bracket layer one operator application.
    Identity on averaging words.
    """
    return _normal(_trusted(_freeze(_value(raw(w)))))


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


class _Cell:
    """A bracket ``[core]^power`` that the rewrite engine owns.

    ``core`` is a list of factors: letters, frozen brackets and cells.
    ``clean`` records that no redex lies inside the core, so a search need
    not enter it again.
    """

    __slots__ = ("core", "power", "clean")

    def __init__(self, core: list, power: int, clean: bool = False):
        self.core = core
        self.power = power
        self.clean = clean


def _owned(f, clean: bool = False) -> _Cell:
    """``f`` itself if it is a cell; a frozen bracket is copied one level deep."""
    if type(f) is _Cell:
        return f
    return _Cell(list(f.core.factors), f.power, clean)


def _frozen(top: list) -> tuple:
    """The factor tuple of the engine's word; cells are replaced bottom-up by
    brackets, without recursion, and frozen factors pass through."""
    cells = []  # (list, index) of every cell, after the cell that holds it
    todo = [top]
    while todo:
        factors = todo.pop()
        for k, f in enumerate(factors):
            if type(f) is _Cell:
                cells.append((factors, k))
                todo.append(f.core)
    for factors, k in reversed(cells):
        cell = factors[k]
        factors[k] = Bracket(_trusted(tuple(cell.core)), cell.power)
    return tuple(top)


def _rewrite(w: BracketedWord, innermost: bool, budget: Union[int, None]):
    """Rewrite ``w`` at its leftmost redex until none is left.

    Returns the normal form's factor tuple, or None when ``w`` has no redex.
    The search walks ``w`` with an explicit stack of ``(factors, index,
    owner)`` frames; ``owner`` is the bracket whose core is ``factors``.  The
    innermost strategy searches a bracket's core before its own rules, the
    outermost one after; the rules of ``factors[i]`` come in the order R2, R3,
    then R1 with ``factors[i+1]``.  A rewrite thaws the frozen brackets on its
    path into cells, and the search resumes where the rewrite can have made a
    redex: innermost, at the junction the rule made inside the rewritten
    bracket; outermost, at the rewritten bracket, after R3 of each owner whose
    last factor gained a power and the rules of an owner that R1 left with a
    one-bracket core.  Every verdict passed before a rewrite still holds, so
    the redexes are those that restarting at the top would find.
    """
    factors, i, owner = w.factors, 0, None
    stack = []
    local = not innermost  # at factors[i], the bracket's rules come next
    steps = 0

    def spend():
        nonlocal budget, steps
        if budget is None:
            budget = 10 * word_size(w) ** 2
        if steps >= budget:
            raise StepBudgetExceeded(f"no normal form within {budget} steps")
        steps += 1

    def climb(factors, i, owner, depth):
        # factors[i] gained a power: R3 at each owner it now ends with a power
        # >= 2 (R2 there was ruled out before the search entered that owner)
        while owner is not None and i == len(factors) - 1 and i and factors[i].power > 1:
            spend()
            f = factors[i]
            owner.power += f.power - 1
            f.power = 1
            depth -= 1
            factors, i, owner = stack[depth]

    while True:
        if i == len(factors):
            if not stack:
                return None if type(factors) is tuple else _frozen(factors)
            if type(owner) is _Cell:
                owner.clean = True
            factors, i, owner = stack.pop()
            i += not innermost
            local = True
            continue
        f = factors[i]
        if type(f) is Letter:
            i += 1
            local = not innermost
            continue
        core = f.core if type(f) is _Cell else f.core.factors
        if not local:
            if type(f) is not _Cell or not f.clean:
                stack.append((factors, i, owner))
                factors, i, owner = core, 0, f
                local = not innermost
                continue
            i += not innermost
            local = True
            continue
        if len(core) > 1 and type(core[0]) is not Letter:
            rule = 2
        elif len(core) > 1 and type(core[-1]) is not Letter and core[-1].power > 1:
            rule = 3
        elif i + 1 < len(factors) and type(factors[i + 1]) is not Letter:
            rule = 1
        else:
            i += innermost
            local = False
            continue

        spend()
        if type(factors) is tuple:
            # thaw the frozen frames at the foot of the path, top down
            stack.append((factors, i, owner))
            d = len(stack) - 1
            while d and type(stack[d - 1][0]) is tuple:
                d -= 1
            for k in range(d, len(stack)):
                frozen, at, b = stack[k]
                if k == 0:
                    stack[k] = (list(frozen), at, None)
                else:
                    up, up_at, _ = stack[k - 1]
                    cell = up[up_at] = _owned(b)
                    stack[k] = (cell.core, at, cell)
            factors, i, owner = stack.pop()

        if rule == 1:
            # [u]^s [v] -> [u'[v]] with u' = u, or [u]^(s-1) when s >= 2
            f, right = factors[i], factors.pop(i + 1)
            if f.power == 1:
                node = _owned(f)
                node.clean = False
                node.core.append(right)
            else:
                f = _owned(f, innermost)
                f.power -= 1
                node = _Cell([f, right], 1)
            factors[i] = node
            junction = len(node.core) - 2
            if owner is not None and len(factors) == 1:
                # the owner's core is the one bracket [u'[v]]: they collapse
                owner.core = node.core
                owner.power += 1
                owner.clean = False
                if innermost:
                    factors, i = node.core, junction
                else:
                    factors, i, owner = stack.pop()
                    climb(factors, i, owner, len(stack))
            elif innermost:
                stack.append((factors, i, owner))
                factors, i, owner = node.core, junction, node
        elif rule == 2:
            # [[u]^t v]^s -> [u'[v]]^s with u' = u, or [u]^(t-1) when t >= 2
            f = factors[i] = _owned(f)
            rest = f.core
            head = rest.pop(0)
            if len(rest) == 1 and type(rest[0]) is not Letter:
                tail = _owned(rest[0])  # [[v]^r] is [v]^(r+1)
                tail.power += 1
            else:
                tail = _Cell(rest, 1, innermost)
            if head.power == 1:
                f.core = _owned(head).core
            else:
                head = _owned(head, innermost)
                head.power -= 1
                f.core = [head]
            f.core.append(tail)
            f.clean = False
            if innermost:
                stack.append((factors, i, owner))
                factors, i, owner = f.core, len(f.core) - 2, f
        else:
            # [u[v]^t]^s -> [u[v]]^(t+s-1)
            f = factors[i] = _owned(f)
            last = f.core[-1] = _owned(f.core[-1], innermost)
            f.power += last.power - 1
            last.power = 1
            if not innermost:
                climb(factors, i, owner, len(stack))
        local = True


def rewrite_reduce(w: Union[BracketedWord, AveragingWord], strategy: str = "innermost",
                   budget: Union[int, None] = None) -> AveragingWord:
    """Normal form by exhaustive rewriting with the three relation rules.

    R1: [u][v] -> [u[v]]        (adjacent bracket factors, any level)
    R2: [[u]v] -> [u[v]]        (v nonempty)
    R3: [u[v]^s] -> [u[v]]^s    (s >= 2, u nonempty)

    Each step rewrites the leftmost redex in the chosen strategy's search
    order, at O(1) amortised cost after the first scan.  At most ``budget``
    steps are made (default ``10 * size^2``).  Independent of
    :func:`reduce`; the two must agree on every input, and the result is
    certified by a scan.
    """
    if strategy not in ("innermost", "outermost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    current = raw(w)
    factors = _rewrite(current, strategy == "innermost", budget)
    return AveragingWord(current if factors is None else _trusted(factors))


# ---------------------------------------------------------------------------
# Linear combinations with exact rational coefficients

class LinCombSyntaxError(ValueError):
    pass


def _collect(pairs, certify: Callable, key: Callable) -> tuple:
    """Formal-sum terms: each item certified by ``certify`` before its coefficient
    is made a Fraction; equal items add, zeros drop, sorted by ``key``."""
    acc: dict = {}
    for x, c in pairs:
        x = certify(x)
        c = Fraction(c)
        if c:
            acc[x] = acc.get(x, Fraction(0)) + c
    return tuple(sorted(((x, c) for x, c in acc.items() if c), key=lambda xc: key(xc[0])))


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
