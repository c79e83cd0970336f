from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter

import pytest

from conftest import complement_permutation, log_products, reverse_permutation
from qsymk.compositions import Composition, compositions_of, from_index, index_of
from qsymk.config import set_max_degree
from qsymk import ideal, kernel, statistics, words
from qsymk.errors import DegreeLimitError, DisjointnessError
from qsymk.kernel import (RelationId, check_spanning_F, is_ideal_upto, kernel_space, quotient_dimension,
                          shuffle_compatibility_upto)
from qsymk.qsym import _f_basis_product, fundamental, multiply_f
from qsymk.statistics import (
    Permutation,
    StatisticId,
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


def test_permutation_letters_are_ascii_digits_only():
    # int() read "1_2,3" as 12,3 and "٣12" as 312; a letter is ASCII digits alone, and
    # the error quotes the text
    for text in ("1_2,3", "٣12", "+1,2", "1,,2", "1 2"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_permutation(text)
    assert parse_permutation(" 10, 2,1 ") == Permutation((10, 2, 1))  # spaces around a letter are stripped
    assert parse_permutation("312") == Permutation((3, 1, 2))


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


# The per-mask formulas that the whole-degree keys replaced, one call per mask, kept as
# their oracle up to degree 12; the word-level evaluators are the oracle to degree 8.

def _peak_mask(d: int) -> int:
    return d & ~(d << 1)


_PER_MASK_SETS = {
    S.Des: lambda n, d: d,
    S.Pk: lambda n, d: _peak_mask(d) & ~1,
    S.Epk: lambda n, d: _peak_mask(d | 1 << n >> 1),
    S.Lpk: lambda n, d: _peak_mask(d),
    S.Rpk: lambda n, d: _peak_mask(d | 1 << n >> 1) & ~1,
    S.Val: lambda n, d: _peak_mask(d ^ ((1 << n >> 1) - 1)) & ~1,
}
_PER_MASK = {
    **_PER_MASK_SETS,
    **{S(stat.value.lower()): lambda n, d, f=f: f(n, d).bit_count() for stat, f in _PER_MASK_SETS.items()},
    S.maj: lambda n, d: sum(_mask_positions(d)),
}


def _statistics_off_their_oracles(words_to: int, per_mask_to: int) -> set[StatisticId]:
    """The statistics whose keys for a whole degree differ from the word-level value of
    a word realizing each mask (degrees <= `words_to`) or from the per-mask formula
    (degrees <= `per_mask_to`); a set statistic's key is its mask."""
    off = set()
    for stat in StatisticId:
        for n in range(per_mask_to + 1):
            masks = range(1 << n >> 1)
            keys = statistics._keys(stat, n, masks)
            if keys != [_PER_MASK[stat](n, d) for d in masks]:
                off.add(stat)
            if n <= words_to:
                on_words = (eval_on_permutation(stat, realize_permutation(from_index(n, d))) for d in masks)
                if keys != [sum(1 << (i - 1) for i in v) if isinstance(v, frozenset) else v for v in on_words]:
                    off.add(stat)
    return off


def test_whole_degree_keys_meet_the_word_route_and_the_per_mask_formulas():
    assert _statistics_off_their_oracles(8, 12) == set()


def test_a_shifted_peak_mask_is_caught(monkeypatch):
    # planted: Pk's peak mask shifted by one position, so a descent counts where the
    # position after it ascends; Pk and pk, its size, must both disagree
    monkeypatch.setitem(statistics._SET_KEYS, S.Pk, lambda n, ds: [d & ~(d >> 1) & ~1 for d in ds])
    assert _statistics_off_their_oracles(4, 4) == {S.Pk, S.pk}


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


def word_des_mod_2(p: Permutation):
    return sum(x > y for x, y in zip(p.letters, p.letters[1:])) % 2


def word_double_descents(p: Permutation):
    w = p.letters
    return sum(w[i - 1] > w[i] > w[i + 1] for i in range(1, len(w) - 1))


# the same planted descent statistics on compositions, for the product route
def parts_mod_3(comp: Composition):
    return len(comp.parts) % 3


def des_mod_2(comp: Composition):
    return max(len(comp.parts) - 1, 0) % 2


def double_descents(comp: Composition):
    mask = index_of(comp)
    return (mask & mask >> 1).bit_count()


def first_part(comp: Composition):
    return comp.parts[0] if comp.parts else 0


PLANTED = [(max_part, max_run), (parts_mod_3, runs_mod_3), (des_mod_2, word_des_mod_2),
           (double_descents, word_double_descents)]


def test_shuffle_compatibility_rejects_letter_dependent_statistic():
    report = check_shuffle_compatible(first_letter, 5)
    assert not report.compatible
    assert report.witness is not None
    assert report.witness["kind"] == "representative-dependence"


def test_shufflecheck_matches_shuffles_oracle():
    # the F-product route against the word-level brute force, which gets
    # each statistic's word evaluator
    for stat in StatisticId:
        on_word = lambda p, stat=stat: eval_on_permutation(stat, p)
        for length in range(0, 8):
            report = check_shuffle_compatible(stat, length).as_dict()
            for seed in range(3) if length < 7 else (0,):
                brute = check_shuffle_compatible(on_word, length, seed).as_dict()
                assert report == dict(brute, statistic=stat.value), (stat, length, seed)
            # the product route draws no random pair
            assert all(check_shuffle_compatible(stat, length, seed).as_dict() == report for seed in (1, 2))
    kinds = {max_run: "distribution-mismatch", runs_mod_3: "distribution-mismatch",
             first_letter: "representative-dependence"}
    for planted, kind in kinds.items():
        for seed in range(3):
            assert check_shuffle_compatible(planted, 6, seed).witness["kind"] == kind


def test_shuffle_distribution_counts_the_f_product():
    # the shuffles of words with descent compositions alpha and beta have
    # the descent compositions of F_alpha F_beta, with its coefficients
    for total in range(7):
        for a in range(total + 1):
            for alpha, beta in itertools.product(compositions_of(a), compositions_of(total - a)):
                product = list(multiply_f(fundamental(alpha), fundamental(beta)).terms())
                p, q = realize_permutation(alpha), realize_permutation(beta, a)
                for stat in StatisticId:
                    want = Counter()
                    for comp, coeff in product:
                        want[eval_on_composition(stat, comp)] += coeff
                    assert shuffle_distribution(stat, p, q) == want, (stat, alpha, beta)


def test_a_statistic_on_compositions_is_refused_on_words():
    # it used to fail with "'Permutation' object has no attribute 'parts'"
    calls = [lambda: check_shuffle_compatible(max_part, 3),
             lambda: shuffle_distribution(max_part, Permutation((1,)), Permutation((2,)))]
    for call in calls:
        with pytest.raises(ValueError, match="given a Permutation.*ideal.shuffle_compatibility_upto") as info:
            call()
        assert isinstance(info.value.__cause__, AttributeError)


def test_a_statistic_on_permutations_is_refused_on_compositions():
    # the mirror mistake: it used to fail with "'Composition' object has no attribute 'letters'"
    def first_letter(p: Permutation) -> int:
        return p.letters[0]

    rels = [RelationId.Arrow1]
    calls = [lambda: equivalence_classes(first_letter, 3), lambda: kernel_space(first_letter, 3),
             lambda: quotient_dimension(first_letter, 3), lambda: check_spanning_F(first_letter, 3, rels),
             lambda: is_ideal_upto(first_letter, 3), lambda: ideal.shuffle_compatibility_upto(first_letter, 3)]
    for call in calls:
        with pytest.raises(ValueError, match="first_letter is given a Composition.*check_shuffle_compatible") as info:
            call()
        assert isinstance(info.value.__cause__, AttributeError)


def test_planted_statistics_fail_both_routes():
    fails_from = {}
    for on_comp, on_word in PLANTED:
        for length in range(0, 8):
            report = shuffle_compatibility_upto(on_comp, length).as_dict()
            brute = check_shuffle_compatible(on_word, length).as_dict()
            assert report == dict(brute, statistic=on_comp.__name__), (on_comp.__name__, length)
            if not report["compatible"]:
                fails_from.setdefault(on_comp.__name__, length)
    assert fails_from == {"max_part": 5, "parts_mod_3": 5, "des_mod_2": 4, "double_descents": 3}


def test_ideal_iff_shuffle_compatible():
    # Gessel and Zhuang: K^st is an ideal exactly when st is shuffle-compatible
    for stat in [*StatisticId, *(on_comp for on_comp, _ in PLANTED), first_part]:
        for length in range(0, 8):
            compatible = shuffle_compatibility_upto(stat, length).compatible
            assert is_ideal_upto(stat, length)["ideal"] == compatible, (stat_name(stat), length)


def test_shufflecheck_builds_no_permutation_per_interleaving(monkeypatch):
    def refuse(*args):
        raise AssertionError("the word-level route was taken")

    built = 0
    init = Permutation.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(words, "shuffles", refuse)
    monkeypatch.setattr(Permutation, "__init__", counting)
    assert check_shuffle_compatible(S.Pk, 8).compatible
    assert built == 0  # no word at all


def test_shufflecheck_compares_the_pairs_of_half_the_bidegrees_from_a_1(monkeypatch):
    # F_α F_β = F_β F_α, so the scan visits the bidegrees (a, s - a) with a <= s - a
    # only, and F_∅ F_β = F_β, so it skips a = 0; (1, 1) has one pair, its own
    # reference, and is skipped too.  Each pair x 2^(b-1) + y goes to the one
    # `_product_mismatches` with the first pair of its (class, class) group, whether Pk's
    # classes are packed, as they fit the bit budget, or counted in dicts with no budget,
    # and a pair alone in its group is compared with nothing
    seen, fingerprinted = [], []
    real, prints = ideal._product_mismatches, ideal._fingerprints

    def recording(fingerprint, pairs):
        pairs = list(pairs)
        seen.append(pairs)
        return real(fingerprint, iter(pairs))

    monkeypatch.setattr(ideal, "_product_mismatches", recording)
    monkeypatch.setattr(ideal, "_fingerprints", lambda labelings, a, b: fingerprinted.append((a, b))
                        or prints(labelings, a, b))
    bidegrees = [(a, s - a) for s in range(3, 9) for a in range(1, s // 2 + 1)]
    assert shuffle_compatibility_upto(S.Pk, 8).compatible
    packed = seen.copy()
    seen.clear()
    monkeypatch.setattr(ideal, "_PACKED_FINGERPRINT_BITS", 0)
    assert shuffle_compatibility_upto(S.Pk, 8).compatible
    assert seen == packed and fingerprinted == bidegrees * 2
    compared, handed = 0, 0
    for (a, b), pairs in zip(bidegrees, seen, strict=True):
        left, right = kernel_space(S.Pk, a).labels, kernel_space(S.Pk, b).labels
        grid, firsts = list(itertools.product(range(len(left)), range(len(right)))), {}
        for x, y in grid:
            firsts.setdefault((left[x], right[y]), x * len(right) + y)
        assert pairs == [(x * len(right) + y, firsts[left[x], right[y]]) for x, y in grid]
        groups = Counter((left[x], right[y]) for x, y in grid)
        compared += sum(groups[left[x], right[y]] > 1 for x, y in grid)
        handed += len(pairs)
    assert (compared, handed) == (421, 426)  # 5 pairs are alone in their group


def test_the_packed_scan_sums_only_the_pairs_it_compares(monkeypatch):
    # a pair is compared, or is the reference of one, exactly when x's class or y's has a
    # second member; only those are summed, each once, however often it is asked for
    tables = log_products(monkeypatch, ideal)
    assert shuffle_compatibility_upto(S.Epk, 9).compatible
    summed, pairs = 0, 0
    for (a, b), x_reads, y_reads in tables:
        shared = [{x for block in kernel_space(S.Epk, n).classes if len(block) > 1 for x in block} for n in (a, b)]
        grid = list(itertools.product(range(1 << a - 1), range(1 << b - 1)))
        assert sorted(zip(x_reads, y_reads, strict=True)) == [(x, y) for x, y in grid
                                                              if x in shared[0] or y in shared[1]], (a, b)
        summed, pairs = summed + len(x_reads), pairs + len(grid)
    assert (summed, pairs) == (557, 904)


def _first_mismatch(stat, max_total_len):
    """The one-statistic route, a plain loop over the DP's products: each pair against the
    first pair of its class pair, by their class sums, as the witness of
    `shuffle_compatibility_upto`, or None."""
    for s in range(max_total_len + 1):
        labels = kernel_space(stat, s).labels
        for a in range(1, s // 2 + 1):
            left, right = ([space.classes[label][0] for label in space.labels]
                           for space in (kernel_space(stat, a), kernel_space(stat, s - a)))
            for pair in itertools.product(range(len(left)), range(len(right))):
                first = left[pair[0]], right[pair[1]]
                sums = [kernel._class_sums(labels, _f_basis_product(a, x, s - a, y)) for x, y in (pair, first)]
                if sums[0] != sums[1]:
                    names = [[str(from_index(a, x)), str(from_index(s - a, y))] for x, y in (first, pair)]
                    return {"kind": "distribution-mismatch", "pair1": names[0], "pair2": names[1]}
    return None


SCANNED = [*StatisticId, max_part, parts_mod_3, first_part, des_mod_2, double_descents]
FAILS_FROM = {max_part: 5, parts_mod_3: 5, des_mod_2: 4, double_descents: 3}


def test_the_shared_scan_meets_the_one_statistic_route():
    # each statistic alone, and all of them in one scan, at every length to 9: the
    # same first mismatch, pair for pair, as a plain loop over the DP's products
    want = {stat: _first_mismatch(stat, 9) for stat in SCANNED}
    assert [stat for stat in SCANNED if want[stat]] == [max_part, parts_mod_3, des_mod_2, double_descents]
    for length in range(10):
        expected = [want[stat] if FAILS_FROM.get(stat, length + 1) <= length else None for stat in SCANNED]
        assert ideal._first_mismatches(SCANNED, length) == expected, length
        for stat, witness in zip(SCANNED, expected):
            assert ideal._first_mismatches([stat], length) == [witness], (stat_name(stat), length)
    # the dict route, for statistics whose slots pass the budget, finds the same
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideal, "_PACKED_FINGERPRINT_BITS", 0)
        assert ideal._first_mismatches(SCANNED, 9) == [want[stat] for stat in SCANNED]


# failing planted statistics between passing ones, packed side by side
BATCH = [S.Pk, max_part, S.des, double_descents, first_part, des_mod_2, S.maj, parts_mod_3, S.Epk]


def test_failing_statistics_between_passing_ones_keep_their_verdicts():
    # each verdict and witness in one scan of the batch is that of its one-statistic call
    for length in (4, 5, 7):
        reports = kernel.ideal_reports(BATCH, length)
        assert reports == [is_ideal_upto(stat, length) for stat in BATCH], length
        assert [report["ideal"] for report in reports] == [FAILS_FROM.get(stat, length + 1) > length for stat in BATCH]
        assert ideal._first_mismatches(BATCH, length) == [
            shuffle_compatibility_upto(stat, length).witness for stat in BATCH], length
    assert kernel.ideal_reports(iter(BATCH), 5) == kernel.ideal_reports(BATCH, 5)  # any iterable


def test_a_field_shifted_by_one_class_is_caught(monkeypatch):
    # the mutant reads each packed statistic's field one slot too high.  Alone, no verdict
    # moves: the class counts of F_x F_y sum to C(s, a), so two that differ do so in two
    # classes or more.  In a batch, a statistic also reads the first class of the one
    # packed after it: Pk fails on max_part's counts, and max_part's witness moves
    real, masked = ideal._fingerprints, ideal._masked

    def shifted(labelings, a, b):
        width = math.comb(a + b, a).bit_length()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ideal, "_masked", lambda sums, field: masked(sums, field << width))
            return real(labelings, a, b)

    witness = _first_mismatch(max_part, 6)
    monkeypatch.setattr(ideal, "_fingerprints", shifted)
    assert [ideal._first_mismatches([stat], 6) for stat in (S.Pk, max_part)] == [[None], [witness]]
    assert ideal._first_mismatches([S.Pk, max_part], 6)[0] is not None
    assert ideal._first_mismatches([max_part, S.Pk], 6) != [witness, None]
    assert ideal._first_mismatches(BATCH, 7) != [shuffle_compatibility_upto(stat, 7).witness for stat in BATCH]


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
    assert [parse_statistic(stat.value) for stat in S] == list(S)
    names = "Des, des, maj, Pk, pk, Epk, epk, Lpk, lpk, Rpk, rpk, Val, val"
    # a name is looked up, not scanned for; a member itself, or any other non-str, is no name
    for bad in ("PK", "", " Pk", S.Pk, None, 3, ["Pk"]):
        with pytest.raises(ValueError) as info:
            parse_statistic(bad)
        assert str(info.value) == f"unknown statistic {bad!r}; expected one of {names}"


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
