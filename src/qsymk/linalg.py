"""Exact sparse linear algebra over the rationals.

Vectors live in the F-coordinate space of a fixed degree n: entries are
keyed by composition index in [0, 2^(n-1)) and every stored coefficient
is nonzero: an `int` when integral, else a `fractions.Fraction`.  All
checks are exact equalities of rationals; there is no tolerance anywhere.

Internally, elimination is fraction-free: rows are primitive integer
vectors (content 1) combined by cross-multiplication, and divisions by
the pivot happen only once, when producing the reduced row-echelon rows
of a `RowBasis`.  Pivots are chosen as the smallest column index.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DegreeMismatchError

# Trigger a content reduction when coefficients pass this size; purely a
# performance guard, exactness does not depend on it.
_GROWTH_LIMIT = 1 << 256


def exact_coefficients(n: int, coeffs: Mapping[int, object]) -> dict[int, int | Fraction]:
    """The coefficient rule of `SparseVector` and `qsym.QSymElement`:
    indices must lie in [0, 2^(n-1)) and zeros are dropped; an `int` is
    kept, and any other value becomes an exact `Fraction`, which is an
    `int` again when its denominator is 1.

    >>> exact_coefficients(3, {0: Fraction(6, 3), 1: "1/2", 2: 0.0, 3: True})
    {0: 2, 1: Fraction(1, 2), 3: 1}
    """
    limit = 1 << max(n - 1, 0)
    clean: dict[int, int | Fraction] = {}
    for index, value in coeffs.items():
        if not 0 <= index < limit:
            raise ValueError(f"index {index} out of range for degree {n}")
        if type(value) is not int:
            value = Fraction(value)
            if value.denominator == 1:
                value = value.numerator
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
    """Rows in reduced row-echelon form with recorded pivot columns.

    Invariants: pivot columns strictly increase, each pivot entry is 1,
    and a pivot column is zero in every other row.
    """

    __slots__ = ("n", "rows", "pivots", "_int_rows")

    def __init__(self, n: int, rows: Sequence[SparseVector], pivots: Sequence[int],
                 _int_rows: dict[int, dict[int, int]] | None = None):
        self.n = n
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        if _int_rows is None:
            _int_rows = {p: _to_int_vec(r) for p, r in zip(self.pivots, self.rows)}
        self._int_rows = _int_rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"RowBasis(n={self.n}, rank={self.rank}, pivots={self.pivots})"


def _to_int_vec(v: SparseVector) -> dict[int, int]:
    denom = lcm(*(value.denominator for value in v.entries.values()))
    if denom == 1:
        return _normalized(dict(v.entries))
    return _normalized({c: value.numerator * (denom // value.denominator) for c, value in v.entries.items()})


def _normalized(vec: dict[int, int]) -> dict[int, int]:
    """Divide by the content and make the leading coefficient positive."""
    if not vec:
        return vec
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


class _Echelon:
    """Incremental integer row-echelon accumulator (not back-substituted)."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict[int, int]) -> bool:
        """Reduce vec against the current rows; insert the remainder as a
        new pivot row.  Returns True iff the rank grew."""
        vec = dict(vec)
        while vec:
            col = min(vec)
            row = self.rows.get(col)
            if row is None:
                self.rows[col] = _normalized(vec)
                return True
            _eliminate(vec, row, col)
        return False

    def reduces_to_zero(self, vec: dict[int, int]) -> bool:
        vec = dict(vec)
        while vec:
            col = min(vec)
            row = self.rows.get(col)
            if row is None:
                return False
            _eliminate(vec, row, col)
        return True

    def to_row_basis(self) -> RowBasis:
        """Back-substitute and rescale pivots to 1."""
        pivots = sorted(self.rows)
        pivot_set = set(pivots)
        reduced: dict[int, dict[int, int]] = {}
        for p in reversed(pivots):
            row = dict(self.rows[p])
            # Later rows are already fully reduced, so eliminating their
            # pivot columns cannot reintroduce other pivot columns.
            for q in sorted(c for c in row if c != p and c in pivot_set):
                if q in row:
                    _eliminate(row, reduced[q], q)
            reduced[p] = _normalized(row)
        rows = []
        int_rows = {}
        for p in pivots:
            row = reduced[p]
            lead = row[p]
            rows.append(SparseVector(self.n, {c: Fraction(v, lead) for c, v in row.items()}))
            int_rows[p] = row
        return RowBasis(self.n, rows, pivots, _int_rows=int_rows)


def _common_degree(vectors: Sequence[SparseVector], n: int | None) -> int:
    for v in vectors:
        if n is None:
            n = v.n
        elif v.n != n:
            raise DegreeMismatchError(f"mixed degrees {n} and {v.n}")
    if n is None:
        raise ValueError("degree required when no vectors are given")
    return n


def _echelon_of(vectors: Sequence[SparseVector], n: int) -> _Echelon:
    ech = _Echelon(n)
    for v in vectors:
        ech.add(_to_int_vec(v))
    return ech


def reduce(vectors: Iterable[SparseVector], n: int | None = None) -> RowBasis:
    """Row-reduce a family of vectors; the row space is preserved and the
    number of rows equals the rank."""
    vecs = list(vectors)
    n = _common_degree(vecs, n)
    return _echelon_of(vecs, n).to_row_basis()


def in_span(v: SparseVector, basis: RowBasis) -> bool:
    """True iff v reduces to zero against the basis rows."""
    if v.n != basis.n:
        raise DegreeMismatchError(f"vector degree {v.n} vs basis degree {basis.n}")
    ech = _Echelon(basis.n)
    ech.rows = basis._int_rows
    return ech.reduces_to_zero(_to_int_vec(v))


def spans_equal(
    a: Iterable[SparseVector], b: Iterable[SparseVector], n: int | None = None
) -> bool:
    """True iff rank(A) = rank(B) = rank(A u B)."""
    avecs = list(a)
    bvecs = list(b)
    n = _common_degree(avecs + bvecs, n)
    ech_a = _echelon_of(avecs, n)
    ech_b = _echelon_of(bvecs, n)
    if ech_a.rank != ech_b.rank:
        return False
    # ech_a is not read again, so it can take the rows of B itself
    return not any(ech_a.add(_to_int_vec(v)) for v in bvecs)


def rank(vectors: Iterable[SparseVector], n: int | None = None) -> int:
    """The rank of a family of vectors, without back-substitution."""
    vecs = list(vectors)
    return _echelon_of(vecs, _common_degree(vecs, n)).rank


def is_independent(vectors: Iterable[SparseVector], n: int | None = None) -> bool:
    """True iff the rank equals the number of vectors given."""
    vecs = list(vectors)
    if not vecs and n is None:
        return True
    return rank(vecs, n) == len(vecs)
