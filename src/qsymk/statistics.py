"""Permutations and the thirteen descent statistics.

A permutation here is any sequence of distinct positive integers, not
necessarily 1..n.  Every statistic in `StatisticId` is a descent
statistic: its value depends only on the descent composition.  The
permutation-level evaluators work directly from letter comparisons,
while the composition-level evaluators are shift formulas on the
descent mask (the composition's index), a set statistic returned as a
mask; the two routes are independent implementations and the test
suite checks them against each other exhaustively.  Equivalence
classes are blocks of indices, the kernels' class format.

The shuffle-compatibility oracle works on letter tuples, through one
`itemgetter` per interleaving pattern, and never goes through QSym;
`shuffles`, the interleavings as a set of `Permutation`s, is its reference.

Position conventions (1-based, word of length n):
  descent   i in [n-1]     with w_i > w_{i+1}
  peak      i in [2, n-1]  with w_{i-1} < w_i > w_{i+1}
  valley    i in [2, n-1]  with w_{i-1} > w_i < w_{i+1}
  left peak   a peak, or i = 1 with w_1 > w_2
  right peak  a peak, or i = n with w_{n-1} < w_n
  exterior peak  a left or right peak; for n = 1 the single position 1
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from itertools import combinations
from operator import itemgetter
from typing import Callable, Hashable, Union

from .compositions import Composition, Frozen, compositions_of, full_mask, index_of, mask_to_set
from .config import check_degree
from .errors import DisjointnessError

StatValue = Union[int, frozenset]


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

    def __eq__(self, other: object) -> bool:  # direct, as equality and hashing are hot
        return self.letters == other.letters if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if all(x <= 9 for x in self.letters):
            return "".join(str(x) for x in self.letters)
        return ",".join(str(x) for x in self.letters)


def parse_permutation(text: str) -> Permutation:
    """Parse `713649` (one-digit letters) or `10,2,7` (comma-separated)."""
    s = text.strip()
    if "," in s:
        return Permutation(tuple(int(x) for x in s.split(",")))
    return Permutation(tuple(int(ch) for ch in s))


class StatisticId(enum.Enum):
    """The closed set of descent statistics, named as usually written."""

    Des = "Des"
    des = "des"
    maj = "maj"
    Pk = "Pk"
    pk = "pk"
    Epk = "Epk"
    epk = "epk"
    Lpk = "Lpk"
    lpk = "lpk"
    Rpk = "Rpk"
    rpk = "rpk"
    Val = "Val"
    val = "val"


def parse_statistic(name: str) -> StatisticId:
    """Look up a statistic by its case-sensitive name."""
    for stat in StatisticId:
        if stat.value == name:
            return stat
    raise ValueError(f"unknown statistic {name!r}; expected one of "
                     + ", ".join(s.value for s in StatisticId))


# -- permutations -----------------------------------------------------------

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


# -- compositions -----------------------------------------------------------
#
# Every word with descent composition L has the descent mask D of L, so
# each statistic is a function of D, and a set statistic is a mask too.
# Position i peaks when i is in D and i - 1 is not: `_peak_mask`.  As
# `_peaks_at` does on words, padding makes a boundary peak an ordinary
# peak.  Position 0 is never a descent, so position 1 peaks when it is a
# descent (a left peak), and `& ~1` drops it again.  Setting the bit of
# position n, `1 << n >> 1` (0 at n = 0), makes n peak when n - 1 is an
# ascent (a right peak).  Valleys are the peaks of the complement.

def _peak_mask(d: int) -> int:
    return d & ~(d << 1)


_SET_EVAL: dict[StatisticId, Callable[[int, int], int]] = {
    StatisticId.Des: lambda n, d: d,
    StatisticId.Pk: lambda n, d: _peak_mask(d) & ~1,
    StatisticId.Epk: lambda n, d: _peak_mask(d | 1 << n >> 1),
    StatisticId.Lpk: lambda n, d: _peak_mask(d),
    StatisticId.Rpk: lambda n, d: _peak_mask(d | 1 << n >> 1) & ~1,
    StatisticId.Val: lambda n, d: _peak_mask(d ^ full_mask(n)) & ~1,
}


def _size_of(evaluate: Callable[[int, int], int]) -> Callable[[int, int], int]:
    return lambda n, d: evaluate(n, d).bit_count()


# each count statistic is the size of its set, and named in lower case
_COMP_EVAL: dict[StatisticId, Callable[[int, int], int]] = {
    **_SET_EVAL,
    **{StatisticId(stat.value.lower()): _size_of(evaluate) for stat, evaluate in _SET_EVAL.items()},
    StatisticId.maj: lambda n, d: sum(mask_to_set(d)),
}


def eval_on_composition(stat: StatisticId, comp: Composition) -> StatValue:
    """Evaluate a statistic from the descent set alone; agrees with
    :func:`eval_on_permutation` on any word with that descent composition."""
    value = _COMP_EVAL[stat](comp.n, index_of(comp))
    return mask_to_set(value) if stat in _SET_EVAL else value


DescentStatistic = Union[StatisticId, Callable[[Composition], Hashable]]


def stat_name(stat: DescentStatistic) -> str:
    if isinstance(stat, StatisticId):
        return stat.value
    return getattr(stat, "__name__", str(stat))


def equivalence_classes(stat: DescentStatistic, n: int) -> tuple[tuple[int, ...], ...]:
    """Partition of the composition indices of n into blocks of equal
    statistic value, in the form of `KernelSpace.classes`: members
    ascending, blocks ordered by least member (the indices are met in
    ascending order).  A `StatisticId` is evaluated on the index, with
    no `Composition` built; any other callable on the `Composition`
    (used for planted control statistics)."""
    check_degree(n)
    if isinstance(stat, StatisticId):
        evaluate = _COMP_EVAL[stat]
        values = (evaluate(n, mask) for mask in range(1 << max(n - 1, 0)))
    else:
        values = map(stat, compositions_of(n))
    blocks: dict[Hashable, list[int]] = {}
    for mask, value in enumerate(values):
        blocks.setdefault(value, []).append(mask)
    return tuple(map(tuple, blocks.values()))


# -- shuffles ---------------------------------------------------------------

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


def _word_evaluator(stat: PermStatistic) -> Callable[[tuple[int, ...]], Hashable]:
    """The statistic on letter tuples; any other callable gets a `Permutation`."""
    if isinstance(stat, StatisticId):
        return _PERM_EVAL[stat]
    return lambda word: stat(Permutation(word))


def _interleavings(a: int, b: int) -> list[Callable[[tuple[int, ...]], tuple[int, ...]]]:
    """One map per interleaving of a word of length a with one of length
    b, from their concatenation to the interleaved word (`tuple` when
    a + b < 2, where `itemgetter` would return a bare letter)."""
    if a + b < 2:
        return [tuple]
    getters = []
    for spots in combinations(range(a + b), a):
        chosen = set(spots)
        from_p, from_q = iter(range(a)), iter(range(a, a + b))
        getters.append(itemgetter(*(next(from_p) if i in chosen else next(from_q) for i in range(a + b))))
    return getters


def _distribution(evaluate, interleavings, word: tuple[int, ...]) -> Counter:
    return Counter([evaluate(interleave(word)) for interleave in interleavings])


def shuffle_distribution(stat: PermStatistic, p: Permutation, q: Permutation) -> Counter:
    """Multiset of statistic values over all shuffles of p and q."""
    if set(p.letters) & set(q.letters):
        raise DisjointnessError(f"permutations share letters: {p} and {q}")
    return _distribution(_word_evaluator(stat), _interleavings(len(p), len(q)), p.letters + q.letters)


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


def _random_representatives(
    a_comp: Composition, b_comp: Composition, rng: random.Random
) -> tuple[Permutation, Permutation]:
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

    return (
        order_copy(realize_permutation(a_comp), vals_a),
        order_copy(realize_permutation(b_comp), vals_b),
    )


class ShuffleCompatibilityReport(Frozen):
    __slots__ = __match_args__ = ("statistic", "max_total_length", "compatible", "witness")

    def __init__(self, statistic: str, max_total_length: int, compatible: bool, witness: dict | None = None) -> None:
        self._init_fields(statistic, max_total_length, compatible, witness)

    def as_dict(self) -> dict:
        out = {
            "statistic": self.statistic,
            "max_total_length": self.max_total_length,
            "compatible": self.compatible,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_shuffle_compatible(
    stat: PermStatistic, max_total_len: int, seed: int = 0
) -> ShuffleCompatibilityReport:
    """Brute-force shuffle-compatibility oracle.

    For every pair of lengths (a, b) with a + b <= max_total_len and
    every pair of descent compositions, the multiset of statistic values
    over all shuffles is computed for a canonical disjoint pair of
    representatives and for a second randomized pair; the distributions
    must agree between representative choices, and across all
    composition pairs with the same (a, b, value, value) signature.

    Shuffles are letter tuples; a `StatisticId` is evaluated on the
    tuple, any other callable on `Permutation(word)`.
    """
    check_degree(max_total_len)
    rng = random.Random(seed)
    evaluate = _word_evaluator(stat)
    name = stat_name(stat)
    for total in range(1, max_total_len + 1):
        for a in range(0, total + 1):
            b = total - a
            interleavings = _interleavings(a, b)
            groups: dict = {}
            for left in compositions_of(a):
                for right in compositions_of(b):
                    p1 = realize_permutation(left)
                    q1 = realize_permutation(right, offset=a)
                    dist = _distribution(evaluate, interleavings, p1.letters + q1.letters)
                    p2, q2 = _random_representatives(left, right, rng)
                    if dist != _distribution(evaluate, interleavings, p2.letters + q2.letters):
                        return ShuffleCompatibilityReport(
                            name, max_total_len, False,
                            witness={
                                "kind": "representative-dependence",
                                "compositions": [str(left), str(right)],
                                "pair1": [str(p1), str(q1)],
                                "pair2": [str(p2), str(q2)],
                            },
                        )
                    key = (a, b, evaluate(p1.letters), evaluate(q1.letters))
                    seen = groups.get(key)
                    if seen is None:
                        groups[key] = (left, right, dist)
                    elif seen[2] != dist:
                        return ShuffleCompatibilityReport(
                            name, max_total_len, False,
                            witness={
                                "kind": "distribution-mismatch",
                                "pair1": [str(seen[0]), str(seen[1])],
                                "pair2": [str(left), str(right)],
                            },
                        )
    return ShuffleCompatibilityReport(name, max_total_len, True)
