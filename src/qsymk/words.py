"""Permutations, their statistics and their shuffles: the word-level oracle.

A permutation here is any sequence of distinct positive integers, not
necessarily 1..n.  The evaluators work directly from letter comparisons,
independently of the descent-mask formulas of `statistics`, and the test
suite checks the two routes against each other exhaustively.  The brute
force `shuffle_compatible_by_words` counts values over `shuffles` (the
interleavings as a set of `Permutation`s) and never goes through QSym.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product
from typing import Callable, Hashable, Union

from .compositions import Composition, Frozen, compositions_of, parse_natural
from .config import check_degree
from .errors import DisjointnessError
from .statistics import ShuffleCompatibilityReport, StatisticId, StatValue, _check_statistic, stat_name


class Permutation(Frozen):
    """A sequence of distinct positive integers."""

    __slots__ = __match_args__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        letters = tuple(letters)
        for x in letters:
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                raise ValueError(f"letters must be positive integers, got {letters!r}")
        if len(set(letters)) != len(letters):
            raise ValueError(f"letters must be distinct, got {letters!r}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if all(x <= 9 for x in self.letters):
            return "".join(str(x) for x in self.letters)
        return ",".join(str(x) for x in self.letters)


def parse_permutation(text: str) -> Permutation:
    """Parse `713649` (one-digit letters) or `10,2,7` (comma-separated), in ASCII digits."""
    s, name = text.strip(), f"a letter of permutation {text!r}"
    return Permutation(tuple(parse_natural(x.strip(), name) for x in (s.split(",") if "," in s else s)))

def standardize(p: Permutation) -> Permutation:
    """Replace the smallest letter by 1, the second smallest by 2, and so on.

    >>> str(standardize(parse_permutation("83416")))
    '52314'
    """
    rank = {x: r + 1 for r, x in enumerate(sorted(p.letters))}
    return Permutation(tuple(rank[x] for x in p.letters))


def perm_descent_composition(p: Permutation) -> Composition:
    """Lengths of the maximal increasing runs, in order.

    >>> perm_descent_composition(parse_permutation("379426"))
    Composition(parts=(3, 1, 2))
    """
    w = p.letters
    if not w:
        return Composition(())
    parts = []
    run = 1
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return Composition(tuple(parts))


def _peaks_at(v: tuple[int, ...], shift: int) -> frozenset[int]:
    """Positions i + shift of the peaks v[i-1] < v[i] > v[i+1] of v."""
    return frozenset([i + shift for i in range(1, len(v) - 1) if v[i - 1] < v[i] > v[i + 1]])


# Letters are positive: a 0 written at an end makes a boundary peak a peak.
_PERM_SET_EVAL: dict[StatisticId, Callable[[tuple[int, ...]], frozenset[int]]] = {
    StatisticId.Des: lambda w: frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i]),
    StatisticId.Pk: lambda w: _peaks_at(w, 1),
    StatisticId.Epk: lambda w: _peaks_at((0,) + w + (0,), 0),
    StatisticId.Lpk: lambda w: _peaks_at((0,) + w, 0),
    StatisticId.Rpk: lambda w: _peaks_at(w + (0,), 1),
    StatisticId.Val: lambda w: _peaks_at(tuple(-x for x in w), 1),
}


def _len_of(evaluate: Callable[[tuple[int, ...]], frozenset[int]]) -> Callable[[tuple[int, ...]], int]:
    return lambda w: len(evaluate(w))


# as on compositions, each count statistic is the size of its set
_PERM_EVAL: dict[StatisticId, Callable[[tuple[int, ...]], StatValue]] = {
    **_PERM_SET_EVAL,
    **{StatisticId(stat.value.lower()): _len_of(evaluate) for stat, evaluate in _PERM_SET_EVAL.items()},
    StatisticId.maj: lambda w: sum(i for i in range(1, len(w)) if w[i - 1] > w[i]),
}


def eval_on_permutation(stat: StatisticId, p: Permutation) -> StatValue:
    """Evaluate a statistic directly from letter comparisons."""
    return _PERM_EVAL[stat](p.letters)


def shuffles(p: Permutation, q: Permutation) -> set[Permutation]:
    """All interleavings of two disjoint permutations.

    >>> sorted(str(t) for t in shuffles(parse_permutation("13"), parse_permutation("42")))
    ['1342', '1423', '1432', '4123', '4132', '4213']
    """
    if set(p.letters) & set(q.letters):
        raise DisjointnessError(f"permutations share letters: {p} and {q}")
    total = len(p) + len(q)
    out = set()
    for spots in combinations(range(total), len(p)):
        word: list[int] = [0] * total
        chosen = set(spots)
        it_p = iter(p.letters)
        it_q = iter(q.letters)
        for i in range(total):
            word[i] = next(it_p) if i in chosen else next(it_q)
        out.add(Permutation(tuple(word)))
    return out


PermStatistic = Union[StatisticId, Callable[[Permutation], Hashable]]


def shuffle_distribution(stat: PermStatistic, p: Permutation, q: Permutation) -> Counter:
    """Multiset of statistic values over `shuffles(p, q)`.  A `StatisticId`
    is evaluated on the letters; any other callable gets each `Permutation`
    (a statistic on compositions belongs to `ideal.shuffle_compatibility_upto`)."""
    words = shuffles(p, q)
    _check_statistic(stat)
    if isinstance(stat, StatisticId):
        return Counter([_PERM_EVAL[stat](word.letters) for word in words])
    try:
        return Counter(map(stat, words))
    except AttributeError as exc:
        raise ValueError(f"{stat_name(stat)} is given a Permutation here; for a statistic on "
                         "compositions use ideal.shuffle_compatibility_upto") from exc


def realize_permutation(comp: Composition, offset: int = 0) -> Permutation:
    """A word on {offset+1, ..., offset+n} with the given descent composition.

    Built block by block: the r-th part takes the consecutive values
    immediately above everything used by the later parts, written in
    increasing order, which forces a descent exactly between blocks.

    >>> str(realize_permutation(Composition((2, 1))))
    '231'
    """
    letters: list[int] = []
    remaining = comp.n
    for j in comp.parts:
        base = offset + remaining - j
        letters.extend(range(base + 1, base + j + 1))
        remaining -= j
    return Permutation(tuple(letters))


def _random_representatives(a_comp: Composition, b_comp: Composition,
                            rng: random.Random) -> tuple[Permutation, Permutation]:
    """A second disjoint pair with the same descent compositions, on a
    randomly interleaved alphabet."""
    a, b = a_comp.n, b_comp.n
    pool = rng.sample(range(1, 3 * (a + b) + 2), a + b) if a + b else []
    first = set(rng.sample(pool, a)) if a else set()
    vals_a = sorted(x for x in pool if x in first)
    vals_b = sorted(x for x in pool if x not in first)

    def order_copy(p: Permutation, values: list[int]) -> Permutation:
        rank = {x: r for r, x in enumerate(sorted(p.letters))}
        return Permutation(tuple(values[rank[x]] for x in p.letters))

    return order_copy(realize_permutation(a_comp), vals_a), order_copy(realize_permutation(b_comp), vals_b)


def shuffle_compatible_by_words(stat: PermStatistic, max_total_len: int, seed: int = 0) -> ShuffleCompatibilityReport:
    """The word-level brute force of `statistics.check_shuffle_compatible`, the oracle
    of the F-product route: for every pair of lengths (a, b) with a + b <= max_total_len
    and every pair of descent compositions, `shuffle_distribution` is taken for a
    canonical disjoint pair of representatives and for a second randomized pair; the two
    must agree, and so must the distributions of all composition pairs with the same
    (a, b, value, value) signature."""
    check_degree(max_total_len)
    _check_statistic(stat)
    rng = random.Random(seed)
    name = stat_name(stat)
    for total in range(1, max_total_len + 1):
        for a in range(0, total + 1):
            b = total - a
            groups: dict = {}
            for left, right in product(compositions_of(a), compositions_of(b)):  # each enumerated once
                p1 = realize_permutation(left)
                q1 = realize_permutation(right, offset=a)
                dist = shuffle_distribution(stat, p1, q1)
                p2, q2 = _random_representatives(left, right, rng)
                if dist != shuffle_distribution(stat, p2, q2):
                    return ShuffleCompatibilityReport(name, max_total_len, False, witness={
                        "kind": "representative-dependence", "compositions": [str(left), str(right)],
                        "pair1": [str(p1), str(q1)], "pair2": [str(p2), str(q2)]})
                key = (a, b, stat(p1), stat(q1))
                seen = groups.get(key)
                if seen is None:
                    groups[key] = (left, right, dist)
                elif seen[2] != dist:
                    return ShuffleCompatibilityReport(name, max_total_len, False, witness={
                        "kind": "distribution-mismatch", "pair1": [str(seen[0]), str(seen[1])],
                        "pair2": [str(left), str(right)]})
    return ShuffleCompatibilityReport(name, max_total_len, True)
