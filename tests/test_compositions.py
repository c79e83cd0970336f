from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymk.compositions import (
    Composition,
    DescentSet,
    complement,
    complement_mask,
    composition_of,
    compositions_of,
    descent_set,
    from_index,
    index_of,
    inversions,
    parse_composition,
    refines,
    reverse,
    reverse_mask,
)
from conftest import reverse_mask_by_positions
from qsymk.config import check_degree, set_max_degree
from qsymk.errors import DegreeLimitError, InvalidSubsetError
from qsymk.statistics import perm_descent_composition, realize_permutation, Permutation

parts_strategy = st.lists(st.integers(min_value=1, max_value=9), max_size=8).map(tuple)


def test_descent_set_examples():
    assert descent_set(Composition((3, 1, 2))) .positions == frozenset({3, 4})
    assert descent_set(Composition((3, 1, 2))).n == 6
    d = descent_set(Composition((2, 1, 3, 1, 1, 2)))
    assert (d.n, d.positions) == (10, frozenset({2, 3, 6, 7, 8}))
    empty = descent_set(Composition(()))
    assert (empty.n, empty.positions) == (0, frozenset())


def test_composition_of_examples():
    assert composition_of(10, {3, 8}) == Composition((3, 5, 2))
    assert composition_of(5, set()) == Composition((5,))
    assert composition_of(4, {1, 2, 3}) == Composition((1, 1, 1, 1))


def test_composition_of_rejects_bad_positions():
    with pytest.raises(InvalidSubsetError):
        composition_of(5, {5})
    with pytest.raises(InvalidSubsetError):
        composition_of(5, {0})
    # positions are ints: not bools (True == 1), floats or strings
    for bad in ({True}, {1.0}, {"1"}, {2, False}):
        with pytest.raises(InvalidSubsetError, match="is not in"):
            composition_of(4, bad)
        with pytest.raises(InvalidSubsetError):
            DescentSet(4, bad)
    with pytest.raises(ValueError):
        composition_of(-1, set())
    # the degree is a nonnegative int: not a bool, float or string
    for n, positions in ((-2, []), ("a", []), (True, []), (2.0, [1]), (False, [])):
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            DescentSet(n, positions)
    # with no degree limit: every composition has a descent set
    big = Composition((40, 2))
    assert descent_set(big) == DescentSet(42, {40})
    assert DescentSet(0, ()).mask == 0


def test_from_index_rejects_out_of_range_masks():
    assert from_index(3, 3) == Composition((1, 1, 1))
    # an index is an int: True == 1 and 1.0 == 1 would otherwise pass the range check
    for mask in (4, -1, True, 1.0):
        with pytest.raises(InvalidSubsetError, match=f"index {mask!r} out of range for degree 3"):
            from_index(3, mask)


def test_mask_helpers_refuse_stray_masks():
    # complement_mask(3, 8) was 11, no index of degree 3; reverse_mask dropped the
    # stray bit of 8 (giving 3) and read -1 as 0; complement_mask(3, True) was 2
    for helper in (complement_mask, reverse_mask):
        for mask in (8, 4, -1, True, False, 1.0, "1"):
            with pytest.raises(InvalidSubsetError, match=f"^index {re.escape(repr(mask))} out of range for degree 3$"):
                helper(3, mask)
        with pytest.raises(InvalidSubsetError):
            helper(0, 1)
    assert [complement_mask(3, m) for m in range(4)] == [3, 2, 1, 0]
    assert [reverse_mask(3, m) for m in range(4)] == [3, 1, 2, 0]
    assert complement_mask(0, 0) == reverse_mask(0, 0) == complement_mask(1, 0) == reverse_mask(1, 0) == 0


def test_reverse_mask_matches_the_position_loop():
    for n in range(0, 12):
        for mask in range(1 << n >> 1):
            assert reverse_mask(n, mask) == reverse_mask_by_positions(n, mask), (n, mask)


def test_descent_set_composition_of_inverse():
    for n in range(0, 13):
        seen = set()
        for comp in compositions_of(n):
            d = descent_set(comp)
            assert composition_of(d.n, d.positions) == comp
            seen.add(comp)
        for positions in map(set, _subsets(range(1, n))):
            comp = composition_of(n, positions)
            assert descent_set(comp).positions == frozenset(positions)
        assert len(seen) == len(compositions_of(n))


def _subsets(universe):
    items = list(universe)
    for bits in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if (bits >> i) & 1]


def test_compositions_of_counts_and_examples():
    assert {c for c in compositions_of(3)} == {
        Composition((3,)),
        Composition((1, 2)),
        Composition((2, 1)),
        Composition((1, 1, 1)),
    }
    assert len(compositions_of(4)) == 8
    assert compositions_of(0) == (Composition(()),)
    for n in range(1, 17):
        assert len(compositions_of(n)) == 2 ** (n - 1)


def test_index_round_trip():
    for n in range(0, 9):
        for i, comp in enumerate(compositions_of(n)):
            assert index_of(comp) == i
            assert from_index(n, i) == comp


def test_refines_examples():
    assert refines(Composition((2, 1, 3, 1, 1, 2)), Composition((3, 5, 2)))
    L = Composition((2, 3))
    assert refines(L, L)
    assert not refines(Composition((3, 5, 2)), Composition((2, 1, 3, 1, 1, 2)))
    assert not refines(Composition((2,)), Composition((3,)))


def test_refines_is_partial_order():
    for n in range(0, 8):
        comps = compositions_of(n)
        for a in comps:
            assert refines(a, a)
        for a, b in itertools.permutations(comps, 2):
            if refines(a, b) and refines(b, a):
                assert a == b
        for a, b, c in itertools.product(comps, repeat=3):
            if refines(a, b) and refines(b, c):
                assert refines(a, c)


def test_complement_examples():
    assert complement(Composition((4, 1, 2, 3))) == Composition((1, 1, 1, 3, 2, 1, 1))
    for n in range(1, 7):
        assert complement(Composition((n,))) == Composition((1,) * n)


def test_complement_involution_and_permutation_oracle():
    # Comp of the complemented word equals the complement composition
    for n in range(0, 9):
        for comp in compositions_of(n):
            assert complement(complement(comp)) == comp
            word = realize_permutation(comp)
            top = n + 1
            flipped = Permutation(tuple(top - x for x in word.letters))
            assert perm_descent_composition(flipped) == complement(comp)


def _ribbon_column_heights(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column heights of the ribbon shape, read left to right: rows of
    the given lengths, consecutive rows overlapping in one column."""
    if not parts:
        return ()
    heights: dict[int, int] = {}
    start = 1
    for length in parts:
        for col in range(start, start + length):
            heights[col] = heights.get(col, 0) + 1
        start = start + length - 1
    return tuple(heights[c] for c in sorted(heights))


def test_complement_matches_ribbon_column_reading():
    assert _ribbon_column_heights((4, 1, 2, 3)) == (1, 1, 1, 3, 2, 1, 1)
    for n in range(0, 9):
        for comp in compositions_of(n):
            assert complement(comp).parts == _ribbon_column_heights(comp.parts)


def test_reverse_examples():
    # reversing the realizing word, not the part list
    assert reverse(Composition((4, 1, 2, 3))) == Composition((1, 1, 2, 3, 1, 1, 1))
    assert reverse(Composition((5,))) == Composition((1, 1, 1, 1, 1))
    assert reverse(Composition((2, 1))) == Composition((2, 1))


def test_reverse_involution_and_permutation_oracle():
    for n in range(0, 9):
        for comp in compositions_of(n):
            assert reverse(reverse(comp)) == comp
            word = realize_permutation(comp)
            backwards = Permutation(word.letters[::-1])
            assert perm_descent_composition(backwards) == reverse(comp)


def test_inversions_examples():
    assert inversions(Composition((2, 1, 2, 1, 1))) == 5
    assert inversions(Composition((1, 1, 2))) == 0
    assert inversions(Composition((2, 1))) == 1
    assert inversions(Composition(())) == 0


@given(parts_strategy)
def test_inversions_matches_pair_count(parts):
    comp = Composition(parts)
    expected = sum(
        1 for k, l in itertools.combinations(range(len(parts)), 2) if parts[k] > parts[l]
    )
    assert inversions(comp) == expected


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((0, 1))
    with pytest.raises(ValueError):
        Composition((-2,))
    # a bool is an int to isinstance, but no part
    for parts in ((True, 2), (2, False), (1.0,)):
        with pytest.raises(ValueError, match="positive integers"):
            Composition(parts)
    for bad in (3.5, True, "3"):
        with pytest.raises(ValueError, match="degree must be an int"):
            check_degree(bad)


def test_text_form():
    assert str(Composition((3, 1, 2))) == "(3,1,2)"
    assert list(Composition((3, 1, 2))) == [3, 1, 2]
    assert str(Composition(())) == "()"
    assert parse_composition("(3,1,2)") == Composition((3, 1, 2))
    assert parse_composition("()") == Composition(())
    with pytest.raises(ValueError):
        parse_composition("3,1,2")


def test_parts_are_ascii_digits_only():
    # int() reads a sign, `_` and other scripts' digits, so "(+1, 1_0)" was (1,10) and
    # "(٣)" was (3); a part is ASCII digits alone, and the error quotes the text
    for text in ("(+1, 1_0)", "(1_0)", "(٣)", "(1,-2)", "(1, ,2)", "(0x1)"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_composition(text)
    assert parse_composition(" ( 1 , 02 ) ") == Composition((1, 2))  # spaces around a part are stripped


@given(parts_strategy)
@settings(max_examples=60)
def test_text_round_trip(parts):
    comp = Composition(parts)
    assert parse_composition(str(comp)) == comp


def test_degree_limit():
    with pytest.raises(DegreeLimitError):
        compositions_of(17)
    set_max_degree(4)
    try:
        with pytest.raises(DegreeLimitError):
            compositions_of(5)
        assert len(compositions_of(4)) == 8
    finally:
        set_max_degree(None)
    assert len(compositions_of(5)) == 16


def test_degree_limit_must_be_an_int_or_none():
    from qsymk.config import max_degree

    before = max_degree()
    for bad in (True, False, 4.5, 5.0, "5"):
        with pytest.raises(ValueError, match="degree limit must be an int"):
            set_max_degree(bad)
        assert max_degree() == before
    with pytest.raises(ValueError, match="nonnegative"):
        set_max_degree(-1)
    assert set_max_degree(5) is None
    try:
        assert max_degree() == 5
    finally:
        assert set_max_degree(None) == 5
    assert max_degree() == before
