"""The ideal property and shuffle-compatibility, both read off F products.

K^st is an ideal exactly when each F_x F_y projects to a function of the
st-class pair of (x, y), which is shuffle-compatibility (Gessel and
Zhuang): one scan of class-count fingerprints of the products, taken
from interleaving tables, decides both for any number of statistics.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, islice
from math import comb
from operator import or_
from typing import Iterable, Iterator, Sequence

from .compositions import from_index
from .config import check_degree
from .kernel import kernel_space
from .statistics import DescentStatistic, ShuffleCompatibilityReport, stat_name


def is_ideal_upto(stat: DescentStatistic, total_degree: int, max_witnesses: int = 3) -> dict:
    """Check that products of kernel basis rows with fundamental basis
    elements stay inside the kernel, for all bidegrees (a, b) with
    a + b <= total_degree: (F_c - F_top) F_b lies in K^st_s exactly when
    F_c F_b and F_top F_b project to the same st-class counts.  At (a, b)
    and (b, a) together that says F_x F_y projects to a function of the
    class pair of (x, y), so the verdict is `shuffle_compatibility_upto`'s.
    A failing statistic is scanned row by row for at most `max_witnesses`
    witnesses, rows in pivot order, factors in index order.  `ideal_reports` of one."""
    return ideal_reports([stat], total_degree, max_witnesses)[0]


def ideal_reports(stats: Iterable[DescentStatistic], total_degree: int, max_witnesses: int = 3) -> list[dict]:
    """The `is_ideal_upto` report of each statistic, in order, every verdict from one
    `_first_mismatches` scan, which fingerprints each product once for all of them."""
    check_degree(total_degree)
    stats = list(stats)
    if isinstance(max_witnesses, bool) or not isinstance(max_witnesses, int):
        raise ValueError(f"max_witnesses must be an int, got {max_witnesses!r}")
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be nonnegative, got {max_witnesses}")
    return [{"stat": stat_name(stat), "total_degree": total_degree, "ideal": first is None,
             "violations": [] if first is None else list(islice(_ideal_violations(stat, total_degree), max_witnesses))}
            for stat, first in zip(stats, _first_mismatches(stats, total_degree))]


def _ideal_violations(stat: DescentStatistic, total_degree: int) -> Iterator[dict]:
    """`is_ideal_upto`'s violations in order, each row c against the greatest member of
    its class by label (a top is its own, and skipped); a top is projected once per factor."""
    for s in range(2, total_degree + 1):
        labels = kernel_space(stat, s).labels
        for a in range(1, s):
            b, space, n = s - a, kernel_space(stat, a), 1 << (s - a - 1)
            tops = (space.classes[label][-1] * n + k for label in space.labels for k in range(n))
            for pair, ref in _product_mismatches(_fingerprints([labels], a, b)[0], enumerate(tops)):
                (c, k), (top, _) = divmod(pair, n), divmod(ref, n)
                row = {str(from_index(a, c)): "1", str(from_index(a, top)): "-1"}
                yield {"row_degree": a, "factor": str(from_index(b, k)), "row": row}


def _interleavings(a: int, b: int) -> tuple[list[array], list[array]]:
    """Tables (xs, ys) over the C(a + b, a) interleavings S of a word u of a letters
    with a word v of b larger letters: their shuffle along S has descent mask
    xs[x][S] | ys[y][S] when Des(u) = x and Des(v) = y.  A letter of v before one of
    u descends and the reverse never does, so xs holds those places and each descent
    of u whose letters stay adjacent, and ys each descent of v at its first letter (a
    letter of u between v's two is a place of xs).  C(a + b, a) (2^(a-1) + 2^(b-1))
    masks in arrays, built for one scan of one bidegree and kept by none."""
    s, code = a + b, "H" if a + b <= 17 else "Q"
    base, u_adjacent, v_letters = [], [], []
    for left in combinations(range(s), a):
        u = sum(1 << p for p in left)
        right = [p for p in range(s) if not u >> p & 1]
        base.append(u >> 1 & ~u)
        u_adjacent.append([1 << p if q == p + 1 else 0 for p, q in zip(left, left[1:])])
        v_letters.append([1 << p for p in right[:-1]])
    xs, ys = [array(code, base)], [array(code, [0]) * len(base)]
    for rows, columns in ((xs, zip(*u_adjacent)), (ys, zip(*v_letters))):
        for column in columns:  # row m ors the columns of m's bits into row 0
            rows += [array(code, map(or_, row, column)) for row in rows]
    return xs, ys


_PACKED_FINGERPRINT_BITS = 2048  # a sum costs the width of its ints


def _fingerprints(labelings: Sequence[Sequence[int]], a: int, b: int) -> list:
    """One fingerprint per labeling, mapping a pair index p = x 2^(b-1) + y, x of degree a
    and y of degree b, to the class counts through it of F_x F_y, read off the tables of
    `_interleavings(a, b)`.  The labelings whose slots fit `_PACKED_FINGERPRINT_BITS`
    count class l in the slot of w bits at l w past the fields of those before them, w the
    bit length of C(a + b, a): no count exceeds the C(a + b, a) < 2^w shuffles, so no slot
    carries.  They share one exact sum per pair, taken when first asked for, and each reads
    its own field.  Past the budget (Epk from degree 11, Lpk, Rpk from 12, Pk, Val from 13)
    a sum costs more than the classes, and a labeling counts a dict of them."""
    (xs, ys), width = _interleavings(a, b), comb(a + b, a).bit_length()
    n, sizes = len(ys), [width * (max(labels) + 1) for labels in labelings]
    packed = [i for i, size in enumerate(sizes) if size <= _PACKED_FINGERPRINT_BITS]
    offsets = dict(zip(packed, accumulate((sizes[i] for i in packed), initial=0)))
    slots = (map([1 << offsets[i] + slot for slot in range(0, sizes[i], width)].__getitem__, labelings[i])
             for i in packed)  # each packed labeling's slot of each mask
    weight = list(map(sum, zip(*slots)))
    sums = lru_cache(maxsize=None)(lambda p: sum(map(weight.__getitem__, map(or_, xs[p // n], ys[p % n]))))
    return [_masked(sums, (1 << size) - 1 << offsets[i]) if i in offsets else _counted(labels, xs, ys)
            for i, (labels, size) in enumerate(zip(labelings, sizes))]


def _masked(sums, field: int):  # a packed labeling's fingerprint: its field of the shared sums
    return lambda p: field & sums(p)


def _counted(labels: Sequence[int], xs, ys):  # a dict == runs in C, a Counter == does not
    label, n = labels.__getitem__, len(ys)
    return lambda p: dict(Counter(map(label, map(or_, xs[p // n], ys[p % n]))))


def _product_mismatches(fingerprint, pairs) -> Iterator[tuple[int, int]]:
    """Each (pair, reference) of pair indices whose F products differ by `fingerprint`, in
    order.  A pair that is its own reference is skipped, and each reference is
    fingerprinted once, when first compared."""
    wants = {}
    for pair, ref in pairs:
        if pair != ref:
            if ref not in wants:
                wants[ref] = fingerprint(ref)
            if fingerprint(pair) != wants[ref]:
                yield pair, ref


def _first_mismatches(stats: Sequence[DescentStatistic], max_total_len: int) -> list[dict | None]:
    """Each statistic's first mismatch as a witness, or None, from one scan: each index
    pair (x, y) of degrees (a, s - a), 1 <= a <= s - a, against its two classes' least
    members, the first pair of its class pair, wherever the statistic has a class of two
    at a or s - a (Des never has).  One `_fingerprints` per bidegree serves all of them."""
    check_degree(max_total_len)
    witnesses, live = [None] * len(stats), dict.fromkeys(range(len(stats)))
    for s in range(max_total_len + 1):  # degree 0 checks the statistics
        labels = {i: kernel_space(stats[i], s).labels for i in live}
        for a in range(1, s // 2 + 1):
            spaces = {i: (kernel_space(stats[i], a), kernel_space(stats[i], s - a)) for i in live}
            if not (scans := [i for i in live if spaces[i][0].dim or spaces[i][1].dim]):
                continue
            for i, fingerprint in zip(scans, _fingerprints([labels[i] for i in scans], a, s - a)):
                left, right = ([space.classes[label][0] for label in space.labels] for space in spaces[i])
                n = len(right)
                refs = (x * n + y for x in left for y in right)
                for pair, ref in islice(_product_mismatches(fingerprint, enumerate(refs)), 1):
                    names = [[str(from_index(a, x)), str(from_index(s - a, y))]
                             for x, y in (divmod(ref, n), divmod(pair, n))]
                    witnesses[i] = {"kind": "distribution-mismatch", "pair1": names[0], "pair2": names[1]}
                    del live[i]
            del fingerprint  # it holds the bidegree's sums, weights and tables
    return witnesses


def shuffle_compatibility_upto(stat: DescentStatistic, max_total_len: int) -> ShuffleCompatibilityReport:
    """Shuffle-compatibility from F products: the shuffles of words with descent
    compositions α and β have the descent compositions of F_α F_β (Gessel and Zhuang).
    `_first_mismatches` of one, in the order and with the witness of the oracle
    `words.shuffle_compatible_by_words`, for 1 <= a <= s - a only: as F_α F_β = F_β F_α,
    pairs that differ at (a, s - a) have mirrors that differ at (s - a, a), and at a = 0
    each F_∅ F_β = F_β projects to β's own class."""
    witness, = _first_mismatches([stat], max_total_len)
    return ShuffleCompatibilityReport(stat_name(stat), max_total_len, witness is None, witness)
