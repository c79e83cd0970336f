from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymk.errors import DegreeMismatchError
from qsymk.linalg import (
    SparseVector,
    in_span,
    is_independent,
    rank,
    reduce,
    spans_equal,
)


def vec(n, **cols):
    return SparseVector(n, {int(k): v for k, v in cols.items()})


def gauss_jordan(vectors, n):
    """Textbook dense Gauss-Jordan over Fraction: (rows, pivots) of the
    reduced row-echelon form, an oracle independent of `linalg`."""
    width = 1 << max(n - 1, 0)
    rows = [[Fraction(v.entries.get(c, 0)) for c in range(width)] for v in vectors]
    pivots = []
    for col in range(width):
        r = len(pivots)
        below = [i for i in range(r, len(rows)) if rows[i][col]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    rref = tuple(SparseVector(n, dict(enumerate(row))) for row in rows[:len(pivots)])
    return rref, tuple(pivots)


def assert_matches_gauss_jordan(a, b, n):
    """reduce, rank, in_span and spans_equal on families a and b agree
    with the dense oracle."""
    rows, pivots = gauss_jordan(a, n)
    basis = reduce(a, n)
    assert basis.rows == rows
    assert basis.pivots == pivots
    assert rank(a, n) == len(pivots)
    for v in b:
        assert in_span(v, basis) == (len(gauss_jordan([*a, v], n)[1]) == len(pivots))
    # the RREF is unique, so equal spans are equal oracle rows
    assert spans_equal(a, b, n) == (gauss_jordan(b, n)[0] == rows)
    assert spans_equal(a, [*reversed(a), *a[:1]], n)


entry_dicts = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=15),
        st.builds(
            Fraction,
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=5,
    ),
    max_size=6,
)


def seeded_families():
    """The families of the reduce, rank-invariance and idempotence tests."""
    families = [
        ([SparseVector(3, {0: 1, 1: 1}), SparseVector(3, {1: 1})], None),
        ([SparseVector(3, {0: 2, 2: -1}), SparseVector(3, {0: 4, 2: -2})], None),
        ([SparseVector(6, {i: 1}) for i in range(32)], None),
        ([SparseVector(3, {0: Fraction(1, 3), 1: 1})], None),
        ([], 4),
    ]
    for seed, width, count in ((3, 4, 6), (11, 5, 7)):
        rng = random.Random(seed)
        for _ in range(20):
            families.append(([
                SparseVector(5, {rng.randrange(16): rng.randint(-4, 4) for _ in range(width)})
                for _ in range(count)
            ], 5))
    return families


def test_sparse_vector_drops_zeros():
    v = SparseVector(3, {0: 0, 1: Fraction(1, 2)})
    assert v.entries == {1: Fraction(1, 2)}
    assert SparseVector(3, {}).is_zero()
    # an index is an int: True == 1 and 1.0 == 1 would otherwise pass the range check
    for index in (5, True, 1.0):
        with pytest.raises(ValueError, match=f"index {index!r} out of range for degree 3"):
            SparseVector(3, {index: 1})


def test_sparse_vector_hash_and_row_basis_repr():
    a, b = SparseVector(3, {2: Fraction(4, 2), 0: "1/2"}), SparseVector(3, {0: Fraction(1, 2), 2: 2})
    assert a == b and hash(a) == hash(b)
    assert a != SparseVector(4, b.entries)
    basis = reduce([SparseVector(3, {0: 2, 1: 2}), SparseVector(3, {2: 1})])
    assert repr(basis) == "RowBasis(n=3, rank=2, pivots=(0, 2))"


def test_reduce_examples():
    basis = reduce([SparseVector(3, {0: 1, 1: 1}), SparseVector(3, {1: 1})])
    assert basis.rank == 2
    assert basis.rows == (SparseVector(3, {0: 1}), SparseVector(3, {1: 1}))
    assert basis.pivots == (0, 1)

    v = SparseVector(3, {0: 2, 2: -1})
    assert reduce([v, SparseVector(3, {0: 4, 2: -2})]).rank == 1

    units = [SparseVector(6, {i: 1}) for i in range(32)]
    assert reduce(units).rank == 32


def test_reduce_empty_needs_degree():
    basis = reduce([], n=4)
    assert basis.rank == 0 and basis.n == 4
    with pytest.raises(ValueError):
        reduce([])


def test_reduce_normalizes_pivots_to_one():
    basis = reduce([SparseVector(3, {0: Fraction(1, 3), 1: 1})])
    assert basis.rows[0].entries == {0: Fraction(1), 1: Fraction(3)}


def test_reduce_is_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        vectors = [
            SparseVector(5, {rng.randrange(16): rng.randint(-3, 3) for _ in range(4)})
            for _ in range(6)
        ]
        basis = reduce(vectors, n=5)
        again = reduce(basis.rows, n=5)
        assert again.rows == basis.rows
        assert again.pivots == basis.pivots


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(11)
    for _ in range(20):
        vectors = [
            SparseVector(5, {rng.randrange(16): rng.randint(-4, 4) for _ in range(5)})
            for _ in range(7)
        ]
        rank = reduce(vectors, n=5).rank
        assert rank <= min(len(vectors), 16)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert reduce(shuffled, n=5).rank == rank
        scaled = [
            SparseVector(5, {c: v * Fraction(rng.choice([1, 2, -3]), rng.choice([1, 5]))
                             for c, v in w.entries.items()})
            for w in vectors
        ]
        assert reduce(scaled, n=5).rank == rank


@given(entry_dicts)
@settings(max_examples=80)
def test_rref_invariants(entry_dicts):
    vectors = [SparseVector(5, d) for d in entry_dicts]
    basis = reduce(vectors, n=5)
    assert list(basis.pivots) == sorted(basis.pivots)
    assert len(set(basis.pivots)) == basis.rank == len(basis.rows)
    for i, row in enumerate(basis.rows):
        assert min(row.entries) == basis.pivots[i]
        assert row.entries[basis.pivots[i]] == 1
        for j, other in enumerate(basis.rows):
            if i != j:
                assert basis.pivots[i] not in other.entries
    # row space is preserved both ways
    assert spans_equal(vectors, basis.rows, n=5)


def test_in_span_examples():
    basis = reduce([SparseVector(4, {1: 1})], n=4)
    assert in_span(SparseVector(4, {}), basis)
    assert not in_span(SparseVector(4, {0: 1}), basis)
    mixed = reduce([vec(4, **{"0": 1, "1": 1}), vec(4, **{"1": 1, "2": Fraction(1, 2)})])
    assert in_span(vec(4, **{"0": 1, "2": Fraction(-1, 2)}), mixed)
    empty = reduce([], n=4)
    assert in_span(SparseVector(4, {}), empty)
    assert not in_span(SparseVector(4, {3: 1}), empty)


def test_degree_mismatch_errors():
    with pytest.raises(DegreeMismatchError):
        reduce([SparseVector(3, {0: 1}), SparseVector(4, {0: 1})])
    basis = reduce([SparseVector(3, {0: 1})])
    with pytest.raises(DegreeMismatchError):
        in_span(SparseVector(4, {0: 1}), basis)
    with pytest.raises(DegreeMismatchError):
        spans_equal([SparseVector(3, {0: 1})], [SparseVector(4, {0: 1})])


def test_spans_equal_examples():
    a = [SparseVector(3, {0: 1, 2: 1})]
    assert spans_equal(a, a)
    assert spans_equal([SparseVector(3, {0: 1})], [SparseVector(3, {0: 2})])
    assert not spans_equal(
        [SparseVector(3, {0: 1})],
        [SparseVector(3, {0: 1}), SparseVector(3, {1: 1})],
    )
    assert spans_equal([], [SparseVector(3, {})], n=3)
    # planted negatives: equal ranks, different spans
    e = [SparseVector(3, {i: 1}) for i in range(4)]
    assert not spans_equal([e[0]], [e[1]])
    assert not spans_equal([SparseVector(3, {0: 1, 1: 1})], [SparseVector(3, {0: 1, 1: -1})])
    assert not spans_equal([e[0], e[1]], [e[0], e[2]])
    assert not spans_equal([e[0], e[1], e[2]], [e[1], e[2], e[3]])


def test_is_independent_examples():
    assert is_independent([])
    v = SparseVector(3, {1: 1})
    assert not is_independent([v, v])
    assert is_independent([v, SparseVector(3, {0: 1, 1: 5})])


def test_rank_matches_reduce():
    for vectors, n in seeded_families():
        assert rank(vectors, n) == reduce(vectors, n).rank
    with pytest.raises(ValueError):
        rank([])


def test_reduction_agrees_when_content_reduction_triggers(monkeypatch):
    # force the mid-elimination content reduction to run on every step
    import qsymk.linalg as linalg

    rng = random.Random(21)
    batches = []
    for _ in range(10):
        batches.append([
            SparseVector(5, {rng.randrange(16): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(6)})
            for _ in range(7)
        ])
    expected = [reduce(vectors, n=5).rows for vectors in batches]
    monkeypatch.setattr(linalg, "_GROWTH_LIMIT", 2)
    for vectors, rows in zip(batches, expected):
        assert reduce(vectors, n=5).rows == rows


@given(entry_dicts, entry_dicts)
@settings(max_examples=80)
def test_linalg_matches_dense_gauss_jordan(a_dicts, b_dicts):
    a = [SparseVector(5, d) for d in a_dicts]
    b = [SparseVector(5, d) for d in b_dicts]
    assert_matches_gauss_jordan(a, b, 5)
    # b spans the same space as a: a's rows scaled and mixed
    assert_matches_gauss_jordan(a, [*reduce(a, 5).rows[::-1], *a], 5)


def test_seeded_families_match_dense_gauss_jordan():
    families = [(a, n if n is not None else a[0].n) for a, n in seeded_families()]
    for (a, n), (b, m) in zip(families, families[1:] + families[:1]):
        assert_matches_gauss_jordan(a, b if m == n else [], n)
