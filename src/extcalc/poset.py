"""Finite posets as order-relation matrices, and the sites made of them."""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple


class PosetError(ValueError):
    """An order relation fails reflexivity, antisymmetry, or transitivity."""


class FinitePoset:
    """Elements 0..n-1 with a full order-relation matrix.

    leq[d][c] records d <= c.  With check (the default) the three order
    laws are checked exhaustively at construction and a violation names
    its witnesses; induced sub-posets, which inherit them, skip it.
    """

    __slots__ = ("size", "leq", "_covers")

    def __init__(self, leq: Sequence[Sequence[bool]], check: bool = True):
        rows = tuple(tuple(bool(x) for x in row) for row in leq)
        n = len(rows)
        if check:
            if any(len(row) != n for row in rows):
                raise PosetError("order relation matrix is not square")
            for i in range(n):
                if not rows[i][i]:
                    raise PosetError(f"reflexivity fails at element {i}")
            for i, j in itertools.product(range(n), repeat=2):
                if i != j and rows[i][j] and rows[j][i]:
                    raise PosetError(f"antisymmetry fails at ({i}, {j})")
            for i, j in itertools.product(range(n), repeat=2):
                if rows[i][j]:
                    for k in range(n):
                        if rows[j][k] and not rows[i][k]:
                            raise PosetError(
                                f"transitivity fails at ({i}, {j}, {k})")
        self.size, self.leq, self._covers = n, rows, None

    def elements(self) -> range:
        return range(self.size)

    def is_leq(self, d: int, c: int) -> bool:
        return self.leq[d][c]

    def strict_pairs(self) -> List[Tuple[int, int]]:
        """All pairs (d, c) with d < c, in lexicographic order."""
        return [(d, c) for d in range(self.size) for c in range(self.size)
                if d != c and self.leq[d][c]]

    @property
    def covers(self) -> Tuple[Tuple[int, int], ...]:
        """The pairs d ⋖ c (d < c, nothing between), made once, in order."""
        if self._covers is None:
            self._covers = tuple((d, c) for (d, c) in self.strict_pairs()
                                 if sum(self.leq[d][m] and self.leq[m][c]
                                        for m in range(self.size)) == 2)
        return self._covers

    def down_set(self, c: int) -> Tuple[int, ...]:
        return tuple(d for d in range(self.size) if self.leq[d][c])

    def induced(self, elems: Sequence[int]) -> "FinitePoset":
        elems = list(elems)
        return FinitePoset([[self.leq[a][b] for b in elems] for a in elems],
                           check=False)

    def down_poset(self, c: int) -> Tuple["FinitePoset", Tuple[int, ...]]:
        """The sub-poset below c together with its global element list."""
        elems = self.down_set(c)
        return self.induced(elems), elems

    def top(self) -> Optional[int]:
        for c in range(self.size):
            if all(self.leq[d][c] for d in range(self.size)):
                return c
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, FinitePoset) and self.leq == other.leq

    def __hash__(self) -> int:
        return hash(self.leq)

    def __repr__(self) -> str:
        return f"FinitePoset(size={self.size})"


def make_poset(n: int, relations: Sequence[Tuple[int, int]]) -> FinitePoset:
    """Poset from generating pairs (d, c) meaning d <= c, closed off.

    The reflexive-transitive closure is computed first; antisymmetry
    failures (cycles in the generators) are then reported by validation.
    """
    leq = [[i == j for j in range(n)] for i in range(n)]
    for (d, c) in relations:
        if not (0 <= d < n and 0 <= c < n):
            raise PosetError(f"relation ({d}, {c}) is out of range")
        leq[d][c] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                leq[i] = [x or y for x, y in zip(leq[i], leq[k])]
    return FinitePoset(leq)


def chain(n: int) -> FinitePoset:
    return FinitePoset([[d <= c for c in range(n)] for d in range(n)],
                       check=False)


def bowtie() -> FinitePoset:
    """z below two middles, both below two tops: z < m1, m2 < p, q.

    The intersection of the principal down-sets of p and q is
    {z, m1, m2}, which has no maximum.
    """
    return make_poset(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
