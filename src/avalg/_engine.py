"""One engine that counts, walks, unranks and draws any family declared by
its case split.

:mod:`avalg._grammar` declares the averaging words in it, and
:mod:`avalg._families` the bracketed words, the unreduced trees and the
Schroeder trees.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import chain, product, starmap
from typing import Callable, Hashable, Iterator, Sequence


class Family:
    """The families named by the keys of one case split: the recursive
    method of Nijenhuis and Wilf (Combinatorial Algorithms, 1978) in the
    specification form of Flajolet, Zimmermann and Van Cutsem (TCS 132,
    1994), where a family is a sum of products of smaller families.

    ``split(key)`` yields the branches of the family ``key``, each ``(heads,
    rest, build)``: a member is one member of each family in ``heads`` and,
    unless ``rest`` is None, one of ``rest``, built as ``build(*heads)`` or
    ``build(*heads)(rest)``; so a walk runs Python code once per choice of
    heads, not per member.  A head stands inside many members, so its family
    is held as a group once needed; a rest is walked again under each choice
    of heads, or read off its group if it has one.  Only counts, nonempty
    branches and the heads' groups are held, never a family a caller walks."""

    def __init__(self, split: Callable[[Hashable], Iterator[tuple]]):
        self.split = split
        self.branches = lru_cache(maxsize=None)(self._branches)
        self.count = lru_cache(maxsize=None)(self._count)
        self._groups = {}

    def cache_clear(self) -> None:
        self.branches.cache_clear()
        self.count.cache_clear()
        self._groups.clear()

    def _branches(self, key) -> tuple:
        """The branches of ``key`` that hold members, as ``(heads, rest,
        build, size)``; past a family that counts 0, none is counted."""
        out = []
        for heads, rest, build in self.split(key):
            size = 1 if rest is None else self.count(rest)
            for head in heads:
                if not size:
                    break
                size *= self.count(head)
            if size:
                out.append((heads, rest, build, size))
        return tuple(out)

    def _count(self, key) -> int:
        return sum(branch[3] for branch in self.branches(key))

    def group(self, key) -> tuple:
        """The members of ``key``, built once and held."""
        held = self._groups.get(key)
        if held is None:
            held = self._groups[key] = tuple(self.walk(key))
        return held

    def walk(self, key) -> Iterator:
        """The members of ``key`` one at a time, in the order of its split:
        branch by branch, and in a branch the heads' members in product
        order (the first head slowest), each with every member of the rest."""
        held = self._groups.get(key)
        if held is not None:
            return iter(held)

        def pieces():
            for heads, rest, build, _ in self.branches(key):
                choices = product(*map(self.group, heads))
                if rest is None:
                    yield starmap(build, choices)
                    continue
                rests = self._groups.get(rest)
                for chosen in choices:
                    yield map(build(*chosen), self.walk(rest) if rests is None else rests)

        return chain.from_iterable(pieces())

    def unrank(self, key, rank: int):
        """The member at ``rank`` in :meth:`walk`'s order, found by descending
        through the counts: no family is built, only that member."""
        if not 0 <= rank < self.count(key):
            raise IndexError(f"rank {rank} is outside the family {key}")
        completions = []  # what each choice of heads makes of its rest's member
        while True:
            for heads, rest, build, size in self.branches(key):
                if rank < size:
                    break
                rank -= size
            if rest is not None:
                rank, rest_rank = divmod(rank, self.count(rest))
            chosen = []
            for head in reversed(heads):
                rank, index = divmod(rank, self.count(head))
                chosen.append(self.unrank(head, index))
            member = build(*reversed(chosen))
            if rest is None:
                break
            completions.append(member)
            key, rank = rest, rest_rank
        for complete in reversed(completions):
            member = complete(member)
        return member

    def draw(self, rng, keys: Sequence):
        """A member drawn uniformly from the union of the families ``keys``:
        a rank below their summed counts, unranked in the family it falls in."""
        counts = [self.count(key) for key in keys]
        rank = rng.randrange(sum(counts))
        for key, count in zip(keys, counts):
            if rank < count:
                return self.unrank(key, rank)
            rank -= count


def _itself(member):
    return member


_prefix = operator.attrgetter("__add__")  # a head's factors, put before the rest's
