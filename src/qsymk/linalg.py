"""Exact sparse linear algebra over the rationals.

A vector has a fixed degree n and is keyed by composition index in
[0, 2^(n-1)), in one basis of QSym_n (F or M); every stored coefficient
is nonzero: an `int` when integral, else a `fractions.Fraction`.  `rank`
and `spans_equal` do not depend on which basis, so long as every vector
of a call uses the same one.  All checks are exact equalities of
rationals; there is no tolerance anywhere.

Internally, elimination is fraction-free.  An echelon is a dict from
pivot column (a row's least column) to a primitive integer row, and
`_remainder` is the one loop that eliminates a vector against it, by
cross-multiplication.  Pivot divisions happen once, in `reduce`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .compositions import full_mask
from .errors import DegreeMismatchError

# Trigger a content reduction when coefficients pass this size; purely a
# performance guard, exactness does not depend on it.
_GROWTH_LIMIT = 1 << 256


# an integer, a/b, or a decimal with an exponent of at most 3 digits, in ASCII digits with
# no `_`: a part of what `Fraction` reads, which builds 10^999999999 for "1e999999999"
_EXACT_NUMBER = re.compile(r"\s*[-+]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?0*(\d{1,3}))?)\s*", re.ASCII)
_MAX_EXPONENT = 400  # each float's repr, 5e-324 to 1.7976931348623157e+308, lies within it


def _exact_number(value: object) -> int | Fraction:
    """`value` as an `int` when integral, else a `Fraction`; a ValueError if it has no exact reading."""
    if type(value) is int:
        return value
    try:
        if isinstance(value, str):
            match = _EXACT_NUMBER.fullmatch(value)
            if not match or int(match[1] or 0) > _MAX_EXPONENT:
                raise ValueError("not an integer, a/b or decimal in ASCII digits within the exponent bound")
        value = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"coefficient {value!r} is no exact number: {exc}") from exc
    return value.numerator if value.denominator == 1 else value


def exact_coefficients(n: int, coeffs: Mapping[int, object]) -> dict[int, int | Fraction]:
    """The coefficient rule of `SparseVector` and `qsym.QSymElement`:
    indices must lie in [0, 2^(n-1)) and zeros are dropped; an `int` is
    kept, and any other value becomes an exact `Fraction` (a text only when
    it matches `_EXACT_NUMBER`), which is an `int` again when its denominator is 1.

    >>> exact_coefficients(3, {0: Fraction(6, 3), 1: "1/2", 2: 0.0, 3: True})
    {0: 2, 1: Fraction(1, 2), 3: 1}
    """
    limit = full_mask(n) + 1
    clean: dict[int, int | Fraction] = {}
    for index, value in coeffs.items():
        if type(index) is not int or not 0 <= index < limit:
            raise ValueError(f"index {index!r} out of range for degree {n}")
        if type(value) is not int:  # nearly every value: skip the call
            value = _exact_number(value)
        if value:
            clean[index] = value
    return clean


class SparseVector:
    """A sparse vector of exact coefficients keyed by composition index.

    Immutable by convention: nothing in this package mutates `entries`
    after construction.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Mapping[int, Fraction | int]):
        self.n = n
        self.entries = exact_coefficients(n, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseVector)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        terms = ", ".join(f"{c}: {v}" for c, v in sorted(self.entries.items()))
        return f"SparseVector(n={self.n}, {{{terms}}})"


class RowBasis:
    """The rational view that `reduce` and `KernelSpace.basis` return: rows
    in reduced row-echelon form with recorded pivot columns.  Pivot columns
    strictly increase, each pivot entry is 1, and a pivot column is zero in
    every other row."""

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, n: int, rows: Sequence[SparseVector], pivots: Sequence[int]):
        self.n = n
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"RowBasis(n={self.n}, rank={self.rank}, pivots={self.pivots})"


def _integral(v: SparseVector) -> dict[int, int]:
    """v scaled by its common denominator; `v.entries` itself if integral."""
    denom = lcm(*(value.denominator for value in v.entries.values()))
    if denom == 1:
        return v.entries
    return {c: value.numerator * (denom // value.denominator) for c, value in v.entries.items()}


def _normalized(vec: dict[int, int]) -> dict[int, int]:
    """Divide by the content and make the leading coefficient positive."""
    g = 0
    for value in vec.values():
        g = gcd(g, value)
    if vec[min(vec)] < 0:
        g = -g
    if g != 1:
        for col in vec:
            vec[col] //= g
    return vec


def _eliminate(vec: dict[int, int], row: dict[int, int], col: int) -> None:
    """vec <- (row[col]/g) * vec - (vec[col]/g) * row, in place."""
    a, b = vec[col], row[col]
    g = gcd(a, b)
    scale_vec, scale_row = b // g, a // g
    if scale_vec != 1:
        for c in vec:
            vec[c] *= scale_vec
    big = False
    for c, value in row.items():
        nv = vec.get(c, 0) - scale_row * value
        if nv:
            vec[c] = nv
            if nv > _GROWTH_LIMIT or -nv > _GROWTH_LIMIT:
                big = True
        else:
            vec.pop(c, None)
    if big:
        _normalized(vec)


def _remainder(rows: dict[int, dict[int, int]], vec: dict[int, int]) -> dict[int, int]:
    """A copy of vec, its least column eliminated against `rows` until no
    row has that pivot: empty exactly when vec lies in the span of rows."""
    vec = dict(vec)
    while vec and (col := min(vec)) in rows:
        _eliminate(vec, rows[col], col)
    return vec


def _echelon(vectors: Iterable[SparseVector]) -> dict[int, dict[int, int]]:
    """Primitive integer pivot rows (not back-substituted) spanning vectors."""
    rows: dict[int, dict[int, int]] = {}
    for v in vectors:
        rest = _remainder(rows, _integral(v))
        if rest:
            rows[min(rest)] = _normalized(rest)
    return rows


def _row_basis(n: int, rows: dict[int, dict[int, int]]) -> RowBasis:
    """Back-substitute and rescale pivots to 1."""
    pivots = sorted(rows)
    pivot_set = set(pivots)
    reduced: dict[int, dict[int, int]] = {}
    for p in reversed(pivots):
        row = dict(rows[p])
        # Later rows are already fully reduced, so eliminating their
        # pivot columns cannot reintroduce other pivot columns.
        for q in sorted(c for c in row if c != p and c in pivot_set):
            if q in row:
                _eliminate(row, reduced[q], q)
        reduced[p] = _normalized(row)
    rational = [SparseVector(n, {c: Fraction(v, row[p]) for c, v in row.items()})
                for p, row in sorted(reduced.items())]
    return RowBasis(n, rational, pivots)


def _common_degree(vectors: Sequence[SparseVector], n: int | None) -> int:
    for v in vectors:
        if n is None:
            n = v.n
        elif v.n != n:
            raise DegreeMismatchError(f"mixed degrees {n} and {v.n}")
    if n is None:
        raise ValueError("degree required when no vectors are given")
    return n


def reduce(vectors: Iterable[SparseVector], n: int | None = None) -> RowBasis:
    """Row-reduce a family of vectors; the row space is preserved and the
    number of rows equals the rank."""
    vecs = list(vectors)
    return _row_basis(_common_degree(vecs, n), _echelon(vecs))


def in_span(v: SparseVector, basis: RowBasis) -> bool:
    """True iff v reduces to zero against the basis rows."""
    if v.n != basis.n:
        raise DegreeMismatchError(f"vector degree {v.n} vs basis degree {basis.n}")
    rows = {p: _integral(row) for p, row in zip(basis.pivots, basis.rows)}
    return not _remainder(rows, _integral(v))


def spans_equal(
    a: Iterable[SparseVector], b: Iterable[SparseVector], n: int | None = None
) -> bool:
    """True iff rank(A) = rank(B) and every vector of B lies in span(A).

    >>> spans_equal([SparseVector(3, {0: 1})], [SparseVector(3, {0: -2})])
    True
    >>> spans_equal([SparseVector(3, {0: 1})], [SparseVector(3, {1: 1})])
    False
    """
    avecs, bvecs = list(a), list(b)
    _common_degree(avecs + bvecs, n)
    rows_a = _echelon(avecs)
    if len(rows_a) != len(_echelon(bvecs)):
        return False
    return not any(_remainder(rows_a, _integral(v)) for v in bvecs)


def rank(vectors: Iterable[SparseVector], n: int | None = None) -> int:
    """The rank of a family of vectors, without back-substitution.

    >>> rank([SparseVector(3, {0: 1, 1: 2}), SparseVector(3, {0: -2, 1: -4})])
    1
    """
    vecs = list(vectors)
    _common_degree(vecs, n)
    return len(_echelon(vecs))


def is_independent(vectors: Iterable[SparseVector], n: int | None = None) -> bool:
    """True iff the rank equals the number of vectors given."""
    vecs = list(vectors)
    if not vecs and n is None:
        return True
    return rank(vecs, n) == len(vecs)
