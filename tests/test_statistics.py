from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from conftest import complement_permutation, reverse_permutation
from qsymk.compositions import Composition, compositions_of, from_index, index_of
from qsymk.config import set_max_degree
from qsymk import statistics
from qsymk.errors import DegreeLimitError, DisjointnessError
from qsymk.statistics import (
    Permutation,
    ShuffleCompatibilityReport,
    StatisticId,
    _random_representatives,
    check_shuffle_compatible,
    equivalence_classes,
    eval_on_composition,
    eval_on_permutation,
    parse_permutation,
    parse_statistic,
    perm_descent_composition,
    realize_permutation,
    shuffle_distribution,
    shuffles,
    standardize,
    stat_name,
)

S = StatisticId


def test_standardize_examples():
    assert standardize(parse_permutation("83416")) == parse_permutation("52314")
    assert standardize(parse_permutation("123")) == parse_permutation("123")
    assert standardize(parse_permutation("971")) == parse_permutation("321")


def test_perm_descent_composition_examples():
    assert perm_descent_composition(parse_permutation("379426")) == Composition((3, 1, 2))
    assert perm_descent_composition(parse_permutation("12345")) == Composition((5,))
    assert perm_descent_composition(parse_permutation("713649")) == Composition((1, 3, 2))
    assert perm_descent_composition(Permutation(())) == Composition(())


def test_eval_on_permutation_worked_example():
    p = parse_permutation("713649")
    expected = {
        S.Des: frozenset({1, 4}),
        S.des: 2,
        S.maj: 5,
        S.Pk: frozenset({4}),
        S.pk: 1,
        S.Epk: frozenset({1, 4, 6}),
        S.epk: 3,
        S.Lpk: frozenset({1, 4}),
        S.lpk: 2,
        S.Rpk: frozenset({4, 6}),
        S.rpk: 2,
        # valleys at 7>1<3 and 6>4<9
        S.Val: frozenset({2, 5}),
        S.val: 2,
    }
    for stat, value in expected.items():
        assert eval_on_permutation(stat, p) == value, stat


def test_eval_on_permutation_small_cases():
    one = parse_permutation("1")
    assert eval_on_permutation(S.Epk, one) == frozenset({1})
    assert eval_on_permutation(S.epk, one) == 1
    assert eval_on_permutation(S.Lpk, one) == frozenset()
    assert eval_on_permutation(S.Rpk, one) == frozenset()
    empty = Permutation(())
    assert eval_on_permutation(S.Des, empty) == frozenset()
    assert eval_on_permutation(S.Epk, empty) == frozenset()
    assert eval_on_permutation(S.maj, empty) == 0


def test_eval_on_composition_examples():
    assert eval_on_composition(S.Pk, Composition((3, 1, 2))) == frozenset({3})
    assert eval_on_composition(S.pk, Composition((2, 2, 1))) == 2
    assert eval_on_composition(S.val, Composition((1, 2, 2))) == 2
    assert eval_on_composition(S.Val, Composition((1, 2, 2))) == frozenset({2, 4})
    assert eval_on_composition(S.maj, Composition((1, 3, 2))) == 5


def _peaks_from_partial_sums(comp: Composition) -> frozenset[int]:
    # end of each non-final part of size >= 2
    parts = comp.parts
    out = set()
    total = 0
    for k, part in enumerate(parts):
        total += part
        if part >= 2 and k < len(parts) - 1:
            out.add(total)
    return frozenset(out)


def _valleys_from_partial_sums(comp: Composition) -> frozenset[int]:
    # start of each non-initial part of size >= 2
    parts = comp.parts
    out = set()
    total = 0
    for k, part in enumerate(parts):
        if part >= 2 and k >= 1:
            out.add(total + 1)
        total += part
    return frozenset(out)


def test_partial_sum_formulas_agree():
    for n in range(0, 10):
        for comp in compositions_of(n):
            assert eval_on_composition(S.Pk, comp) == _peaks_from_partial_sums(comp)
            assert eval_on_composition(S.pk, comp) == len(_peaks_from_partial_sums(comp))
            assert eval_on_composition(S.Val, comp) == _valleys_from_partial_sums(comp)
            assert eval_on_composition(S.val, comp) == len(_valleys_from_partial_sums(comp))


def test_composition_and_permutation_routes_agree():
    for n in range(0, 8):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            comp = perm_descent_composition(p)
            for stat in StatisticId:
                assert eval_on_permutation(stat, p) == eval_on_composition(stat, comp), (
                    stat, word,
                )


def test_standardization_invariance_sampled():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randint(0, 6)
        letters = tuple(rng.sample(range(1, 13), size))
        p = Permutation(letters)
        q = standardize(p)
        for stat in StatisticId:
            assert eval_on_permutation(stat, p) == eval_on_permutation(stat, q)


def test_peak_valley_complement_symmetry():
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            pc = complement_permutation(p)
            assert eval_on_permutation(S.Pk, p) == eval_on_permutation(S.Val, pc)
            assert eval_on_permutation(S.pk, p) == eval_on_permutation(S.val, pc)


def test_left_right_peak_reversal_symmetry():
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            pr = reverse_permutation(p)
            rpk_rev = eval_on_permutation(S.Rpk, pr)
            assert eval_on_permutation(S.Lpk, p) == frozenset(n + 1 - i for i in rpk_rev)
            assert eval_on_permutation(S.lpk, p) == eval_on_permutation(S.rpk, pr)


def test_exterior_peak_count_is_valley_count_plus_one():
    for n in range(1, 11):
        for comp in compositions_of(n):
            assert eval_on_composition(S.epk, comp) == eval_on_composition(S.val, comp) + 1


# The position-loop evaluators that the mask formulas replaced, kept as
# the oracle of `eval_on_composition` and `equivalence_classes` at degrees
# the permutation route cannot reach.

def _comp_peaks(n: int, mask: int) -> frozenset[int]:
    return frozenset(
        i for i in range(2, n)
        if (mask >> (i - 1)) & 1 and not (mask >> (i - 2)) & 1
    )


def _comp_valleys(n: int, mask: int) -> frozenset[int]:
    return frozenset(
        i for i in range(2, n)
        if not (mask >> (i - 1)) & 1 and (mask >> (i - 2)) & 1
    )


def _comp_left_peaks(n: int, mask: int) -> frozenset[int]:
    out = set(_comp_peaks(n, mask))
    if n >= 2 and mask & 1:
        out.add(1)
    return frozenset(out)


def _comp_right_peaks(n: int, mask: int) -> frozenset[int]:
    out = set(_comp_peaks(n, mask))
    if n >= 2 and not (mask >> (n - 2)) & 1:
        out.add(n)
    return frozenset(out)


def _comp_exterior_peaks(n: int, mask: int) -> frozenset[int]:
    if n == 1:
        return frozenset({1})
    return _comp_left_peaks(n, mask) | _comp_right_peaks(n, mask)


def _mask_positions(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


_VIA_POSITIONS = {
    S.Des: lambda n, m: _mask_positions(m),
    S.des: lambda n, m: m.bit_count(),
    S.maj: lambda n, m: sum(_mask_positions(m)),
    S.Pk: _comp_peaks,
    S.pk: lambda n, m: len(_comp_peaks(n, m)),
    S.Epk: _comp_exterior_peaks,
    S.epk: lambda n, m: len(_comp_exterior_peaks(n, m)),
    S.Lpk: _comp_left_peaks,
    S.lpk: lambda n, m: len(_comp_left_peaks(n, m)),
    S.Rpk: _comp_right_peaks,
    S.rpk: lambda n, m: len(_comp_right_peaks(n, m)),
    S.Val: _comp_valleys,
    S.val: lambda n, m: len(_comp_valleys(n, m)),
}


def _comp_eval_via_positions(stat: StatisticId, comp: Composition):
    return _VIA_POSITIONS[stat](comp.n, index_of(comp))


def _classes_via_positions(stat, n: int) -> tuple[tuple[int, ...], ...]:
    """Compositions grouped by value, then converted to index blocks."""
    blocks: dict = {}
    for comp in compositions_of(n):
        value = _comp_eval_via_positions(stat, comp) if isinstance(stat, StatisticId) else stat(comp)
        blocks.setdefault(value, []).append(comp)
    return tuple(tuple(index_of(c) for c in block) for block in blocks.values())


def max_part(comp: Composition) -> int:
    return max(comp.parts) if comp.parts else 0


def test_mask_formulas_match_position_loops():
    for n in range(0, 13):
        for comp in compositions_of(n):
            for stat in StatisticId:
                assert eval_on_composition(stat, comp) == _comp_eval_via_positions(stat, comp), (
                    stat, comp,
                )


def test_equivalence_classes_match_position_loops():
    for n in range(0, 11):
        for stat in [*StatisticId, max_part]:
            assert equivalence_classes(stat, n) == _classes_via_positions(stat, n), (stat, n)


def test_equivalence_classes_examples():
    blocks = equivalence_classes(S.Pk, 4)
    as_sets = {frozenset(str(from_index(4, c)) for c in block) for block in blocks}
    assert as_sets == {
        frozenset({"(4)", "(1,3)", "(1,1,2)", "(1,1,1,1)"}),
        frozenset({"(2,2)", "(2,1,1)"}),
        frozenset({"(3,1)", "(1,2,1)"}),
    }
    assert len(equivalence_classes(S.pk, 4)) == 2
    assert all(len(block) == 1 for block in equivalence_classes(S.Des, 5))
    assert len(equivalence_classes(S.Des, 5)) == 16


def test_shuffles_examples():
    result = shuffles(parse_permutation("13"), parse_permutation("42"))
    assert {str(t) for t in result} == {"1342", "1432", "1423", "4132", "4123", "4213"}
    assert shuffles(parse_permutation("1"), Permutation(())) == {parse_permutation("1")}
    assert len(shuffles(parse_permutation("123"), parse_permutation("456"))) == 20
    with pytest.raises(DisjointnessError):
        shuffles(parse_permutation("12"), parse_permutation("23"))


def test_shuffle_distribution_examples():
    des_dist = shuffle_distribution(S.Des, parse_permutation("13"), parse_permutation("42"))
    assert des_dist == Counter(
        {
            frozenset({3}): 1,
            frozenset({2, 3}): 1,
            frozenset({2}): 1,
            frozenset({1, 3}): 1,
            frozenset({1}): 1,
            frozenset({1, 2}): 1,
        }
    )
    pk_dist = shuffle_distribution(S.pk, parse_permutation("12"), parse_permutation("34"))
    assert pk_dist == Counter({0: 2, 1: 4})
    maj_dist = shuffle_distribution(S.maj, Permutation(()), parse_permutation("21"))
    assert maj_dist == Counter({1: 1})
    with pytest.raises(DisjointnessError, match="share letters"):
        shuffle_distribution(S.Des, parse_permutation("13"), parse_permutation("32"))


def test_realize_permutation():
    assert str(realize_permutation(Composition((2, 1)))) == "231"
    assert realize_permutation(Composition((4,)), offset=3).letters == (4, 5, 6, 7)
    assert str(realize_permutation(Composition((1, 1, 1)))) == "321"
    for n in range(0, 8):
        for comp in compositions_of(n):
            for offset in (0, 5):
                word = realize_permutation(comp, offset)
                assert perm_descent_composition(word) == comp
                assert set(word.letters) == set(range(offset + 1, offset + n + 1))


def test_shuffle_compatibility_positive():
    for stat in (S.Pk, S.pk, S.Des, S.maj):
        report = check_shuffle_compatible(stat, 6)
        assert report.compatible, report.witness


def first_letter(p: Permutation):
    return p.letters[0] if p.letters else 0


def max_run(p: Permutation):
    return max(perm_descent_composition(p).parts, default=0)


def runs_mod_3(p: Permutation):
    return len(perm_descent_composition(p).parts) % 3


def test_shuffle_compatibility_rejects_letter_dependent_statistic():
    report = check_shuffle_compatible(first_letter, 5)
    assert not report.compatible
    assert report.witness is not None
    assert report.witness["kind"] == "representative-dependence"


def _shufflecheck_via_shuffles(stat, max_total_len: int, seed: int = 0) -> ShuffleCompatibilityReport:
    """The oracle: `check_shuffle_compatible` through `shuffles()`, one
    validated `Permutation` per interleaving."""
    rng = random.Random(seed)
    evaluate = (lambda p: eval_on_permutation(stat, p)) if isinstance(stat, StatisticId) else stat
    name = stat_name(stat)
    for total in range(1, max_total_len + 1):
        for a in range(0, total + 1):
            b = total - a
            groups: dict = {}
            for left in compositions_of(a):
                for right in compositions_of(b):
                    p1 = realize_permutation(left)
                    q1 = realize_permutation(right, offset=a)
                    dist = Counter(evaluate(t) for t in shuffles(p1, q1))
                    p2, q2 = _random_representatives(left, right, rng)
                    dist2 = Counter(evaluate(t) for t in shuffles(p2, q2))
                    if dist != dist2:
                        return ShuffleCompatibilityReport(
                            name, max_total_len, False,
                            witness={
                                "kind": "representative-dependence",
                                "compositions": [str(left), str(right)],
                                "pair1": [str(p1), str(q1)],
                                "pair2": [str(p2), str(q2)],
                            },
                        )
                    key = (a, b, evaluate(p1), evaluate(q1))
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


def test_shufflecheck_matches_shuffles_oracle():
    for stat in StatisticId:
        for length in range(0, 7):
            for seed in range(3):
                report = check_shuffle_compatible(stat, length, seed)
                assert report.as_dict() == _shufflecheck_via_shuffles(stat, length, seed).as_dict()
    kinds = {}
    for planted in (max_run, runs_mod_3, first_letter):
        for seed in range(3):
            report = check_shuffle_compatible(planted, 6, seed)
            assert report.as_dict() == _shufflecheck_via_shuffles(planted, 6, seed).as_dict()
            kinds[planted.__name__] = report.witness["kind"]
    assert kinds == {
        "max_run": "distribution-mismatch",
        "runs_mod_3": "distribution-mismatch",
        "first_letter": "representative-dependence",
    }


def test_shufflecheck_builds_no_permutation_per_interleaving(monkeypatch):
    def refuse(*args):
        raise AssertionError("the shuffle oracle was called")

    built = 0
    init = Permutation.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(statistics, "shuffles", refuse)
    monkeypatch.setattr(Permutation, "__init__", counting)
    assert check_shuffle_compatible(S.Pk, 6).compatible
    sizes = [(len(compositions_of(a)) * len(compositions_of(total - a)), math.comb(total, a))
             for total in range(1, 7) for a in range(total + 1)]
    pairs = sum(count for count, _ in sizes)
    # two representative pairs per composition pair, each shuffled in full
    interleavings = sum(2 * count * words for count, words in sizes)
    assert built <= 6 * pairs < interleavings


def test_shuffle_compatibility_validates_length():
    # an empty length range would otherwise report "compatible"
    with pytest.raises(ValueError):
        check_shuffle_compatible(S.Pk, -1)
    set_max_degree(4)
    try:
        with pytest.raises(DegreeLimitError):
            check_shuffle_compatible(S.Pk, 5)
    finally:
        set_max_degree(None)


def test_parse_statistic_is_case_sensitive():
    assert parse_statistic("Pk") is S.Pk
    assert parse_statistic("pk") is S.pk
    with pytest.raises(ValueError):
        parse_statistic("PK")


def test_permutation_text_forms():
    assert str(parse_permutation("10,2,7")) == "10,2,7"
    assert str(parse_permutation("713649")) == "713649"
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    for letters in ((True, 3), (2, False), (1.0, 2)):
        with pytest.raises(ValueError, match="positive integers"):
            Permutation(letters)
