"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import zip_longest

from qsymk.compositions import complement_mask, reverse_mask
from qsymk.linalg import SparseVector
from qsymk.statistics import Permutation


def complement_permutation(p: Permutation) -> Permutation:
    """Replace the i-th smallest letter by the i-th largest."""
    ordered = sorted(p.letters)
    swap = {x: ordered[len(ordered) - 1 - i] for i, x in enumerate(ordered)}
    return Permutation(tuple(swap[x] for x in p.letters))


def reverse_permutation(p: Permutation) -> Permutation:
    return Permutation(p.letters[::-1])


def psi_vector(v: SparseVector) -> SparseVector:
    """The complement involution on F coordinates."""
    return SparseVector(v.n, {complement_mask(v.n, m): c for m, c in v.entries.items()})


def rho_vector(v: SparseVector) -> SparseVector:
    """The reverse involution on F coordinates."""
    return SparseVector(v.n, {reverse_mask(v.n, m): c for m, c in v.entries.items()})


# Closed forms for the distribution of des and maj over the shuffles of a word
# u of a letters with descent mask x and a word v of b letters with mask y,
# letters disjoint.  They use none of the combinatorics of the product DP or
# of the interleaving tables, so they check both at any degree.


@lru_cache(maxsize=1 << 16)
def maj(mask: int) -> int:
    """The major index of a descent mask: the sum of its positions."""
    return sum(t for t in range(1, mask.bit_length() + 1) if mask >> (t - 1) & 1)


def des_distribution(a: int, x: int, b: int, y: int) -> dict[int, int]:
    """{k: shuffles with k descents}.  With i = des u and j = des v there are
    C(a - i + j, k - i) C(b - j + i, k - j) of them (MacMahon)."""
    i, j = x.bit_count(), y.bit_count()
    counts = {k: math.comb(a - i + j, k - i) * math.comb(b - j + i, k - j) for k in range(max(i, j), a + b + 1)}
    return {k: count for k, count in counts.items() if count}


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of [n choose k]_q, by [n, k] = [n - 1, k - 1] + q^k [n - 1, k]."""
    if k in (0, n):
        return (1,)
    shifted = (0,) * k + gaussian_binomial(n - 1, k)
    return tuple(map(sum, zip_longest(gaussian_binomial(n - 1, k - 1), shifted, fillvalue=0)))


def maj_distribution(a: int, x: int, b: int, y: int) -> dict[int, int]:
    """{m: shuffles with major index m}: the coefficients of
    q^(maj u + maj v) [a + b choose a]_q (Garsia and Gessel)."""
    low = maj(x) + maj(y)
    return {low + e: count for e, count in enumerate(gaussian_binomial(a + b, a))}


def projected(counts, stat) -> dict[int, int]:
    """Sum (mask, count) pairs by `stat` of the mask."""
    out: dict[int, int] = {}
    for mask, count in counts:
        value = stat(mask)
        out[value] = out.get(value, 0) + count
    return out


class LoggedRows(list):
    """Interleaving-table rows that log the index of each row read."""

    def __init__(self, rows, log):
        super().__init__(rows)
        self.log = log

    def __getitem__(self, index):
        self.log.append(index)
        return super().__getitem__(index)


def log_products(monkeypatch, ideal):
    """Patch `ideal._interleavings` to log what each table serves: per table built, in
    order, ((a, b), x_reads, y_reads).  A product, summed or counted, reads row x of xs and
    then row y of ys, so zip(x_reads, y_reads) lists the (x, y) of each product taken."""
    built, real = [], ideal._interleavings

    def logged(a, b):
        (xs, ys), x_reads, y_reads = real(a, b), [], []
        built.append(((a, b), x_reads, y_reads))
        return LoggedRows(xs, x_reads), LoggedRows(ys, y_reads)

    monkeypatch.setattr(ideal, "_interleavings", logged)
    return built
