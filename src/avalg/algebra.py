"""The free averaging algebra on averaging words.

An averaging operator ``P`` on an algebra satisfies

    P(x)P(y) = P(xP(y)) = P(P(x)y)   for all x, y.

The free such algebra on an alphabet has the averaging words of
:mod:`avalg.words` as a linear basis.  This module provides the product
``diamond``, the operator ``apply_p``, the reduction of arbitrary bracketed
words to normal form (two independent routes: evaluation and rewriting),
exact-rational linear combinations, and the universal map into any other
averaging algebra.  The combinations and the universal map live in
:mod:`avalg._lincomb`, and their names are read from there on first use.
"""

from __future__ import annotations

from typing import Callable, Union

from . import _forward
from ._record import BudgetExceeded, InputError
from .words import (
    AveragingWord,
    Bracket,
    BracketedWord,
    Letter,
    _close,
    _normal,
    _trusted,
    certified,
    head_index,
    raw,
    render_word,
    tail_index,
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

_HOME = dict.fromkeys(("LinearCombination", "LinCombSyntaxError", "parse_lincomb",
                       "universal_map", "random_lincomb"), "_lincomb")
_forward(globals())


# ---------------------------------------------------------------------------
# Evaluation core.  A value under construction is a list of factors that it
# alone owns; its brackets are _Node cells, so the two rules below edit in
# place and cost O(1).  Frozen factors (letters, and the unedited parts of
# certified operands) may sit in those lists and pass through _freeze as they
# are.  operad._graft runs the two rules and _freeze over tree vertices.

class _Node:
    """A bracket ``[core]^power`` under construction.

    ``core`` is a list of factors, or a frozen word that is not edited.
    ``bottom`` is the core list at the foot of the bracket's right spine, the
    one that ends in a letter: the place where a merge appends.  It is None
    when the spine below was left frozen, which only happens where no merge
    into this node follows.  ``clean``, read by the rewrite engine only,
    records that no redex lies inside the core.
    """

    __slots__ = ("core", "power", "bottom", "clean")

    def __init__(self, core: Union[list, BracketedWord], power: int, bottom,
                 clean: bool = False):
        self.core = core
        self.power = power
        self.bottom = bottom
        self.clean = clean


def _owned(f, clean: bool = False) -> _Node:
    """``f`` itself if it is a node; a frozen bracket is copied one level deep."""
    if type(f) is _Node:
        return f
    return _Node(list(f.core.factors), f.power, None, clean)


def _merge(left: _Node, right: _Node) -> None:
    # [u]^s <> [v]^t = [u <> [v]]^(s+t-1); u <> [v] appends [v] at the foot of
    # u's right spine, and [v] takes over as the new foot
    left.power += right.power - 1
    right.power = 1
    left.bottom.append(right)
    left.bottom = right.bottom


def _apply_p(u: list) -> _Node:
    """The operator on a normal value ``u``, which it consumes.  An end of
    ``u`` that is not a node begins (first) or ends (last) with a letter: a
    letter here, a leaf or a comb of tree vertices in ``operad._graft``."""
    first, last = u[0], u[-1]
    if not isinstance(first, _Node):
        if not isinstance(last, _Node):
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
    node = cell = _owned(b)
    while isinstance(cell.core[-1], Bracket):
        cell.core[-1] = cell = _owned(cell.core[-1])
    node.bottom = cell.core
    return node


def _freeze(value: list, close: Callable) -> tuple:
    """The entry tuple of an owned value, built without recursion: each node
    becomes ``close(core, power)`` after the nodes in its core, in the list
    that holds it; the lists are used up."""
    places = []  # (list, index) of every node, after the node that holds it
    todo = [value]
    while todo:
        factors = todo.pop()
        for i, f in enumerate(factors):
            if type(f) is _Node:
                places.append((factors, i))
                if isinstance(f.core, list):
                    todo.append(f.core)
    for factors, i in reversed(places):
        node = factors[i]
        factors[i] = close(node.core, node.power)
    return tuple(value)


def _bracket(core: Union[list, BracketedWord], power: int) -> Bracket:
    # close for words; a core that was never thawed comes frozen
    return _close(_trusted(tuple(core)) if isinstance(core, list) else core, power)


def _diamond(u: BracketedWord, v: BracketedWord) -> BracketedWord:
    last, first = u.factors[-1], v.factors[0]
    if isinstance(last, Letter) or isinstance(first, Letter):
        return _trusted(u.factors + v.factors)
    left = _thaw(last, spine=True)
    _merge(left, _thaw(first))
    return _trusted(u.factors[:-1] + _freeze([left], _bracket) + v.factors[1:])


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
        return _normal(_trusted((_close(w, 1),)))
    value = list(factors)
    if isinstance(first, Bracket):
        value[0] = _thaw(first, spine=len(factors) > 1)
    if isinstance(last, Bracket) and len(factors) > 1:
        value[-1] = _thaw(last)
    return _normal(_trusted(_freeze([_apply_p(value)], _bracket)))


def reduce(w: Union[BracketedWord, AveragingWord]) -> AveragingWord:
    """Normal form of an arbitrary bracketed word, in time linear in its size.

    Evaluates ``w`` inside the free averaging algebra itself: concatenation
    becomes the product and each bracket layer one operator application.
    Identity on averaging words.
    """
    return _normal(_trusted(_freeze(_value(raw(w)), _bracket)))


def _value(w: BracketedWord) -> list:
    # the product of the factors' values, folded left to right.  [w]^s is P
    # applied s times; past the first the value is one bracket, so the rest
    # add to its power, and it merges with a bracket before it.  The stack
    # holds the factors still to read around each open bracket, so any
    # depth evaluates.  Not words._evaluate, through which reduce took
    # 20.4-20.8 ms against 11.4-11.5 ms (426 words of an ``algebra`` pass)
    stack = []  # (enclosing factors left, their value so far, the open bracket's power)
    factors, value = iter(w.factors), []
    while True:
        for f in factors:
            if isinstance(f, Bracket):
                stack.append((factors, value, f.power))
                factors, value = iter(f.core.factors), []
                break
            value.append(f)
        else:
            if not stack:
                return value
            core, (factors, value, power) = value, stack.pop()
            node = _apply_p(core)
            node.power += power - 1
            if value and isinstance(value[-1], _Node):
                _merge(value[-1], node)
            else:
                value.append(node)


# ---------------------------------------------------------------------------
# Rule-based reduction: the independent oracle for ``reduce``.  It has its own
# rules and search; it shares with evaluation only the _Node container (whose
# ``clean`` mark it alone reads) and _freeze.

class StepBudgetExceeded(BudgetExceeded):
    """The rewrite loop ran past its step budget; signals a termination bug."""


def _rewrite(w: BracketedWord, innermost: bool, budget: Union[int, None]):
    """Rewrite ``w`` at its leftmost redex until none is left.

    Returns the normal form's factor tuple, or None when ``w`` has no redex.
    The search walks ``w`` with an explicit stack of ``(factors, index,
    owner)`` frames; ``owner`` is the bracket whose core is ``factors``.  The
    innermost strategy searches a bracket's core before its own rules, the
    outermost one after; the rules of ``factors[i]`` come in the order R2, R3,
    then R1 with ``factors[i+1]``.  A rewrite thaws the frozen brackets on its
    path into nodes, and the search resumes where the rewrite can have made a
    redex: innermost, at the junction the rule made inside the rewritten
    bracket; outermost, at the rewritten bracket, after R3 of each owner whose
    last factor gained a power.  Every verdict passed before a rewrite still
    holds, so the redexes are those that restarting at the top would find.
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
                return None if type(factors) is tuple else _freeze(factors, _bracket)
            if type(owner) is _Node:
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
        core = f.core if type(f) is _Node else f.core.factors
        if not local:
            if type(f) is not _Node or not f.clean:
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
                    node = up[up_at] = _owned(b)
                    stack[k] = (node.core, at, node)
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
                node = _Node([f, right], 1, None)
            factors[i] = node
            junction = len(node.core) - 2
            if innermost and owner is not None and len(factors) == 1:
                # the owner's core is the one bracket [u'[v]]: they collapse
                # (never outermost: R2 at the owner ran first, so its core begins with a letter)
                owner.core = node.core
                owner.power += 1
                owner.clean = False
                factors, i = node.core, junction
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
                tail = _Node(rest, 1, None, innermost)
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
        raise InputError(f"unknown strategy {strategy!r}")
    current = raw(w)
    factors = _rewrite(current, strategy == "innermost", budget)
    return AveragingWord(current if factors is None else _trusted(factors))
