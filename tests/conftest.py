"""Shared helpers for the test suite."""

from __future__ import annotations

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
