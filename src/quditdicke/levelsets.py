"""Bounded partial-occupation families with reverse-lexicographic labels.

For an occupation vector k the level-i family holds every vector a with
0 <= a_j <= k_j and sum(a) = i.  Labels are assigned in reverse
lexicographic order: label(x) < label(y) iff x is lexicographically
larger, comparing left to right at the first differing coordinate.  The
bond dimension of the sequential preparation is the cardinality of the
middle family.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator


def compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All length-d vectors of nonnegative integers summing to n, largest first entry first."""
    return (a for a in product(range(n, -1, -1), repeat=d) if sum(a) == n)


class LevelSetIndex:
    """All level families of one occupation vector, labeled and invertible."""

    def __init__(self, kvec):
        self.kvec = tuple(int(v) for v in kvec)
        if any(v < 0 for v in self.kvec) or not self.kvec:
            raise ValueError("occupation vector must be nonempty and nonnegative")
        self.n = sum(self.kvec)
        # descending lexicographic order, which is label order, so each level needs no sort
        levels = [[] for _ in range(self.n + 1)]
        for a in product(*(range(k, -1, -1) for k in self.kvec)):
            levels[sum(a)].append(a)
        self.levels = tuple(map(tuple, levels))
        self._label = tuple({a: j for j, a in enumerate(level)} for level in self.levels)

    def elements(self, i: int) -> tuple[tuple[int, ...], ...]:
        return self.levels[i]

    def cardinality(self, i: int) -> int:
        return len(self.levels[i])

    def label(self, i: int, a) -> int:
        """Position of ``a`` within level i (reverse-lexicographic rank)."""
        try:
            return self._label[i][tuple(a)]
        except KeyError:
            raise ValueError(f"{tuple(a)} is not in level {i} of {self.kvec}") from None

    def element(self, i: int, label: int) -> tuple[int, ...]:
        return self.levels[i][label]

    @property
    def chi(self) -> int:
        """Bond dimension: cardinality of the middle level."""
        return self.cardinality(self.n // 2)

    def to_dict(self) -> dict:
        return {
            "kvec": list(self.kvec),
            "levels": [
                {"i": i, "elements": [list(a) for a in level], "labels": list(range(len(level)))}
                for i, level in enumerate(self.levels)
            ],
            "chi": self.chi,
        }


def build_level_sets(kvec) -> LevelSetIndex:
    """Enumerate and label every level family of ``kvec``."""
    return LevelSetIndex(kvec)


def verify_level_set_proposition(kvec) -> tuple[bool, dict | None]:
    """Brute-force check of the label inequality under a level-0 increment.

    For every a in level i with a + unit(0) still admissible, the label of
    a + unit(0) in level i+1 must not exceed the label of a in level i,
    with equality exactly when i+1 <= k_0 and strict inequality otherwise.
    Returns (True, None) or (False, witness).
    """
    index = build_level_sets(kvec)
    k0 = index.kvec[0]
    for i in range(index.n):
        for a in index.elements(i):
            if a[0] + 1 > k0:
                continue
            bumped = (a[0] + 1,) + a[1:]
            lhs = index.label(i + 1, bumped)
            rhs = index.label(i, a)
            expected_equal = i + 1 <= k0
            ok = lhs == rhs if expected_equal else lhs < rhs
            if not ok:
                return False, {"i": i, "a": a, "label_after": lhs, "label_before": rhs, "equality_regime": expected_equal}
    return True, None
