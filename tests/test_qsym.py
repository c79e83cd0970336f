from __future__ import annotations

import copy
import gc
import itertools
import json
import math
import random
import re
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from qsymk import qsym, words
from qsymk.compositions import Composition, compositions_of, from_index, mask_to_set
from qsymk.config import max_degree, set_max_degree
from qsymk.errors import BasisTagError, DegreeLimitError, DegreeMismatchError, InvalidSubsetError, QsymkError
from qsymk.kernel import RelationId, edge_vectors, monomial_span_vectors, relation_edges
from qsymk.linalg import SparseVector, reduce
from qsymk.qsym import (
    QSymElement,
    _f_basis_product,
    ehrenborg_psi_m,
    element_from_json_dict,
    element_to_json_dict,
    f_to_m,
    fundamental,
    lemma22b_combination,
    lemma22c_combination,
    m_to_f,
    monomial,
    multiply_f,
    multiply_f_via_shuffles,
    psi,
    rho,
)
from qsymk.statistics import StatisticId

from conftest import des_distribution, maj, maj_distribution, projected

C = Composition


def F(*parts):
    return fundamental(C(parts))


def M(*parts):
    return monomial(C(parts))


def test_f_to_m_examples():
    assert f_to_m(F(2)) == M(2) + M(1, 1)
    assert f_to_m(F(1, 1)) == M(1, 1)
    assert f_to_m(F(3)) == M(3) + M(1, 2) + M(2, 1) + M(1, 1, 1)


def test_m_to_f_examples():
    assert m_to_f(M(2)) == F(2) - F(1, 1)
    assert m_to_f(M(1, 1)) == F(1, 1)


def test_round_trip_all_basis_elements():
    for n in range(0, 9):
        for comp in compositions_of(n):
            assert m_to_f(f_to_m(fundamental(comp))) == fundamental(comp)
            assert f_to_m(m_to_f(monomial(comp))) == monomial(comp)


def test_basis_tag_enforced():
    with pytest.raises(BasisTagError):
        f_to_m(M(2))
    with pytest.raises(BasisTagError):
        m_to_f(F(2))
    with pytest.raises(BasisTagError):
        multiply_f(F(2), M(2))
    with pytest.raises(BasisTagError):
        QSymElement(2, "X", {})


def test_element_index_validation_and_degree_limit():
    from qsymk.errors import DegreeLimitError

    for index in (4, True, 1.0):
        with pytest.raises(ValueError, match=f"index {index!r} out of range for degree 2"):
            QSymElement(2, "F", {index: 1})
    with pytest.raises(DegreeLimitError):
        multiply_f(F(9), F(9))  # product degree 18 exceeds the default limit


def test_addition_rules():
    assert (M(2) + M(2)).coeffs == {0: Fraction(2)}
    mixed = M(2) + F(1, 1)
    assert mixed.basis == "F"
    assert mixed == F(2)  # (F2 - F11) + F11
    with pytest.raises(DegreeMismatchError):
        F(2) + F(3)
    # a number is no element of QSym_n, so + and - refuse it
    for with_int in (lambda e: e + 1, lambda e: e - 1):
        with pytest.raises(TypeError):
            with_int(F(2))


def test_multiply_f_examples():
    assert multiply_f(F(1), F(1)) == F(2) + F(1, 1)
    six = multiply_f(F(2), F(1, 1))
    assert six == F(1, 3) + F(2, 2) + F(1, 1, 2) + F(3, 1) + F(1, 2, 1) + F(2, 1, 1)
    empty = fundamental(C(()))
    assert multiply_f(empty, F(2, 1)) == F(2, 1)
    assert multiply_f(F(2, 1), empty) == F(2, 1)


def test_multiply_matches_shuffle_oracle_and_offsets():
    for a in range(0, 9):
        for b in range(0, 8 - a + 1):
            for left in compositions_of(a):
                for right in compositions_of(b):
                    product = multiply_f(fundamental(left), fundamental(right))
                    assert product == multiply_f_via_shuffles(left, right)
                    assert product == multiply_f_via_shuffles(left, right, 3, 20)


def _index_pairs(max_total):
    """(a, mask_a, b, mask_b) for every ordered pair of compositions with a + b <= max_total."""
    for s in range(max_total + 1):
        for a in range(s + 1):
            for x, y in itertools.product(range(1 << max(a - 1, 0)), range(1 << max(s - a - 1, 0))):
                yield a, x, s - a, y


def _dp_counts(key, packed):
    """The product DP's {mask: count} for `key`, run on packed ints or on
    `_MaskCounts` and decoded apart from `_f_basis_product`."""
    if not packed:
        counts = qsym._product_dp(*key, qsym._MaskCounts({0: 1}), 1)
        assert type(counts) is qsym._MaskCounts
        return dict(counts)
    total, size = qsym._product_dp(*key, 1, 16), 1 << max(key[0] + key[2] - 1, 0)
    assert total >> 16 * size == 0, key
    slots = array("H", total.to_bytes(2 * size, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return {mask: count for mask, count in enumerate(slots) if count}


def test_both_count_types_of_the_product_dp_agree():
    # every ordered pair up to degree 10, so each pair of factors in both
    # orders, and a sample up to degree 18.  The counts of a product sum to
    # the C(a + b, a) shuffles: a 16-bit slot that overflowed would carry into
    # the next slot and break that sum.
    assert math.comb(qsym._PACKED_MAX_DEGREE, qsym._PACKED_MAX_DEGREE // 2) < 1 << 16
    rng = random.Random(23)
    sampled = [(a, rng.randrange(1 << (a - 1)), s - a, rng.randrange(1 << (s - a - 1)))
               for s in range(11, 19) for a in range(1, s)]
    for key in [*_index_pairs(10), *sampled]:
        packed = _dp_counts(key, packed=True)
        assert packed == _dp_counts(key, packed=False) == dict(_f_basis_product(*key)), key
        assert sum(packed.values()) == math.comb(key[0] + key[2], key[0]), key


def _check_closed_forms(key, counts):
    pairs = counts.items()
    assert projected(pairs, int.bit_count) == des_distribution(*key), key
    assert projected(pairs, maj) == maj_distribution(*key), key


def test_product_dp_meets_the_des_and_maj_closed_forms():
    # MacMahon's des and Garsia-Gessel's maj distributions over the shuffles
    # rest on none of the DP's combinatorics: every ordered pair to degree 10
    # and a sample at 13-16 on both count types, and above the packed limit
    # the dict type through multiply_f
    rng = random.Random(26)
    sampled = [(a, rng.randrange(1 << (a - 1)), s - a, rng.randrange(1 << (s - a - 1)))
               for s in range(13, 17) for a in rng.sample(range(1, s), 4)]
    for key in [*_index_pairs(10), *sampled]:
        for packed in (True, False):
            _check_closed_forms(key, _dp_counts(key, packed))
    previous = set_max_degree(22)
    try:
        for s in range(19, 23):
            for a in (1, 2, 3, 4, s - 2):
                key = (a, rng.randrange(1 << (a - 1)), s - a, rng.randrange(1 << (s - a - 1)))
                product = multiply_f(fundamental(from_index(*key[:2])), fundamental(from_index(*key[2:])))
                _check_closed_forms(key, product.coeffs)
    finally:
        set_max_degree(previous)


def test_product_dp_commutes():
    # QSym is commutative: the DP counts the same masks in either order of the factors
    for a, x, b, y in _index_pairs(9):
        if (a, x) < (b, y):
            assert _f_basis_product(a, x, b, y) == _f_basis_product(b, y, a, x), (a, x, b, y)


def test_products_take_the_count_type_their_density_picks(monkeypatch):
    # a lopsided product has few of the 2^(n-1) masks a packed int holds, so it
    # counts on dicts at any degree: F(1) F(29) has 30 shuffles, where a packed
    # int would have 2^29 slots.  Denser products are packed up to degree 18.
    dp, kinds = qsym._product_dp, []
    monkeypatch.setattr(qsym, "_product_dp", lambda *key: kinds.append(type(key[4])) or dp(*key))
    previous = set_max_degree(30)
    try:
        assert multiply_f(F(1), F(29)) == multiply_f_via_shuffles(C((1,)), C((29,)))
        assert multiply_f(F(2, 1), F(3, 24)) == multiply_f_via_shuffles(C((2, 1)), C((3, 24)))
    finally:
        set_max_degree(previous)
    for key in ((1, 0, 10, 0b101), (2, 1, 11, 0b110), (9, 0, 10, 0b11)):
        _f_basis_product(*key)
    assert kinds == [qsym._MaskCounts] * 5
    kinds.clear()
    for key in ((1, 0, 9, 0b101), (3, 1, 9, 0b110), (4, 0b10, 10, 0), (9, 0b1, 9, 0b11)):
        _f_basis_product(*key)
    assert kinds == [int] * 4


def test_multiply_f_holds_nothing_after_it_returns():
    # a long-lived caller's memory stays bounded: 64 distinct degree-14 products,
    # each with thousands of terms, leave no allocation behind once they are dropped
    rng = random.Random(34)
    factors = [(fundamental(from_index(7, x)), fundamental(from_index(7, y)))
               for x, y in rng.sample(list(itertools.product(range(64), repeat=2)), 64)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for left, right in factors:
            assert sum(multiply_f(left, right).coeffs.values()) == math.comb(14, 7)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held


def test_multiply_f_associative_commutative_sampled():
    rng = random.Random(5)
    comps = [comp for n in range(0, 4) for comp in compositions_of(n)]
    for _ in range(25):
        a, b, c = (fundamental(rng.choice(comps)) for _ in range(3))
        if a.n + b.n + c.n > 8:
            continue
        assert multiply_f(a, b) == multiply_f(b, a)
        assert multiply_f(multiply_f(a, b), c) == multiply_f(a, multiply_f(b, c))


def test_psi_examples():
    assert psi(F(4, 1, 2, 3)) == F(1, 1, 1, 3, 2, 1, 1)
    # M-route stays in the M basis and matches the F-route
    image = psi(M(2))
    assert image.basis == "M"
    assert image == -M(2)
    assert f_to_m(psi(m_to_f(M(2)))) == image


def test_psi_involution_random_elements():
    rng = random.Random(9)
    for n in range(0, 8):
        size = 1 << max(n - 1, 0)
        coeffs = {rng.randrange(size): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(min(4, size))}
        for basis in ("F", "M"):
            e = QSymElement(n, basis, coeffs)
            assert psi(psi(e)) == e
            assert rho(rho(e)) == e


def test_ehrenborg_examples():
    assert ehrenborg_psi_m(C((1, 1))) == M(1, 1) + M(2)
    for n in range(1, 7):
        expected = (-1) ** (n - 1) * monomial(C((n,)))
        assert ehrenborg_psi_m(C((n,))) == expected


def test_ehrenborg_agrees_with_f_route():
    for n in range(0, 9):
        for comp in compositions_of(n):
            via_f = f_to_m(psi(m_to_f(monomial(comp))))
            assert ehrenborg_psi_m(comp) == via_f


def test_rho_examples():
    assert rho(F(2, 1)) == F(2, 1)
    assert rho(F(3)) == F(1, 1, 1)
    assert rho(F(1, 2)) == F(1, 2)
    left, right = F(2), F(1)
    assert rho(multiply_f(left, right)) == multiply_f(rho(left), rho(right))


def test_rho_on_m_basis_matches_f_round_trip():
    # the M branch (position reversal, then psi) against converting
    # through the F basis and back
    def via_f(e):
        return f_to_m(rho(m_to_f(e)))

    for n in range(0, 10):
        for comp in compositions_of(n):
            image = rho(monomial(comp))
            assert image.basis == "M"
            assert image == via_f(monomial(comp)), comp
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 9)
        size = 1 << max(n - 1, 0)
        coeffs = {rng.randrange(size): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 6))}
        e = QSymElement(n, "M", coeffs)
        assert rho(e) == via_f(e), e


def test_involutions_are_algebra_maps_sampled():
    comps = [comp for n in range(0, 4) for comp in compositions_of(n)]
    for left, right in itertools.product(comps, repeat=2):
        a, b = fundamental(left), fundamental(right)
        assert psi(multiply_f(a, b)) == multiply_f(psi(a), psi(b))
        assert rho(multiply_f(a, b)) == multiply_f(rho(a), rho(b))


def test_lemma22b_examples():
    assert lemma22b_combination(2, frozenset(), 1) == F(2)
    assert lemma22b_combination(3, frozenset(), 2) == QSymElement(3, "F", {0: 1, 1: -1})


def test_lemma22c_examples():
    assert lemma22c_combination(3, frozenset(), 2) == QSymElement(3, "F", {0: 1, 1: -1})
    got = lemma22c_combination(4, frozenset(), 3)
    # B runs over {} and {1}: (F - F_{B u {2}}) terms with alternating signs
    expected = (F(4) - F(2, 2)) - (F(1, 3) - F(1, 1, 2))
    assert got == expected


def test_lemma22_preconditions():
    with pytest.raises(ValueError):
        lemma22b_combination(3, frozenset({2}), 2)
    with pytest.raises(ValueError):
        lemma22b_combination(3, frozenset(), 5)
    with pytest.raises(ValueError):
        lemma22c_combination(3, frozenset(), 1)  # k - 1 = 0 not allowed
    with pytest.raises(ValueError):
        lemma22c_combination(4, frozenset({1}), 2)  # k - 1 in C


def test_a_degree_past_the_limit_is_refused_before_enumerating(monkeypatch):
    # the lemma combinations enumerated 2^(n-3) submasks, and the word route
    # built all C(a + b, a) shuffles, before the element refused the degree:
    # seconds at degree 24, and no answer at 40
    def refuse(*_):
        raise AssertionError("enumerated past the degree limit")

    monkeypatch.setattr(qsym, "_submasks", refuse)
    monkeypatch.setattr(words, "shuffles", refuse)
    n = max_degree() + 1
    for call in (lambda: lemma22b_combination(n, set(), 3), lambda: lemma22c_combination(n, set(), 3),
                 lambda: multiply_f_via_shuffles(C((n // 2,)), C((n - n // 2,)))):
        with pytest.raises(DegreeLimitError):
            call()


def test_lemma22_names_a_bad_position_or_k():
    # position 7 of C at degree 4 used to raise "index 69 out of range for degree 4"
    for call in (lemma22b_combination, lemma22c_combination):
        with pytest.raises(InvalidSubsetError, match=r"^position 7 is not in \[3\] for degree 4$"):
            call(4, {7}, 2)
        # a k that is no int in [n-1] raised an untyped TypeError, and True was 1
        for k in (2.5, True, "2"):
            with pytest.raises(ValueError, match=f"^k must be an int in \\[3\\], got {re.escape(repr(k))}$"):
                call(4, set(), k)


def test_lemma22_identities_small():
    for n in range(1, 7):
        for mask in range(1 << (n - 1)):
            c_set = mask_to_set(mask)
            for k in range(1, n):
                if (mask >> (k - 1)) & 1:
                    continue
                pair = m_to_f(QSymElement(n, "M", {mask: 1, mask | (1 << (k - 1)): 1}))
                assert lemma22b_combination(n, c_set, k) == pair
                if k >= 2 and not (mask >> (k - 2)) & 1:
                    assert lemma22c_combination(n, c_set, k) == pair


def test_json_round_trip():
    e = m_to_f(M(2)) + F(1, 1)
    data = element_to_json_dict(e)
    assert data == {
        "degree": 2,
        "basis": "F",
        "terms": [{"composition": "(2)", "coeff": "1"}],
    }
    assert element_from_json_dict(json.loads(json.dumps(data))) == e
    rich = QSymElement(3, "M", {0: Fraction(-1, 2), 3: 2})
    assert element_from_json_dict(element_to_json_dict(rich)) == rich


def test_json_rejects_foreign_degree_and_repeated_compositions():
    foreign = {"degree": 5, "basis": "F", "terms": [{"composition": "(1,2)", "coeff": "3"}]}
    with pytest.raises(DegreeMismatchError):
        element_from_json_dict(foreign)
    repeated = {"degree": 3, "basis": "F", "terms": [
        {"composition": "(1,2)", "coeff": "1"}, {"composition": "(1,2)", "coeff": "2"}]}
    with pytest.raises(ValueError):
        element_from_json_dict(repeated)
    # a missing or ill-typed field is a ValueError that names it
    term = {"composition": "(1,2)", "coeff": "1"}
    malformed = [
        ({"degree": 3, "basis": "F"}, "terms"),
        ({"degree": "3", "basis": "F", "terms": [term]}, "degree"),
        ({"degree": 3, "basis": "F", "terms": [{"composition": "(1,2)"}]}, "coeff"),
        ({"degree": 3, "basis": "F", "terms": [{"composition": [1, 2], "coeff": "1"}]},
         "composition"),
        ({"degree": 3, "terms": [term]}, "basis"),
        ({"degree": 3, "basis": "F", "terms": ["(1,2)"]}, "composition"),
        ({"degree": True, "basis": "F", "terms": []}, "degree"),
        ({"degree": 3, "basis": "F", "terms": [{"composition": "(1,2)", "coeff": True}]}, "coeff"),
        # Fraction("1/0") raises ZeroDivisionError, and Fraction("nan") a ValueError naming no field
        ({"degree": 3, "basis": "F", "terms": [{"composition": "(1,2)", "coeff": "1/0"}]}, "coeff"),
        ({"degree": 3, "basis": "F", "terms": [{"composition": "(1,2)", "coeff": "nan"}]}, "coeff"),
    ]
    # json.loads accepts Infinity and NaN, which are no exact coefficients
    for literal in ("Infinity", "-Infinity", "NaN"):
        text = f'{{"degree": 3, "basis": "F", "terms": [{{"composition": "(1,2)", "coeff": {literal}}}]}}'
        malformed.append((json.loads(text), "coeff"))
    for data, field in malformed:
        with pytest.raises(ValueError, match=repr(field)):
            element_from_json_dict(data)


def test_json_float_coefficients_read_as_their_decimal_text():
    # 0.1 used to be kept as the binary float, 3602879701896397/36028797018963968
    for literal, want in (("0.1", Fraction(1, 10)), ("2.5", Fraction(5, 2)), ("3.0", 3),
                          ("-1e-05", Fraction(-1, 100000)), ("1e+16", 10**16)):
        text = f'{{"degree": 3, "basis": "F", "terms": [{{"composition": "(1,2)", "coeff": {literal}}}]}}'
        elem = element_from_json_dict(json.loads(text))
        assert list(elem.terms()) == [(C((1, 2)), want)], literal
        assert type(elem.coeffs[1]) is type(want), literal
        assert element_to_json_dict(elem)["terms"][0]["coeff"] == str(want), literal


def test_json_coefficient_text_is_bounded():
    # Fraction("1e999999999") builds the power of ten in full, about 22x slower per
    # decade of exponent; the reader refuses an exponent past 400 first, and `_` and
    # other scripts' digits, which Fraction also reads.  Every float's repr fits
    def element(coeff):
        return {"degree": 3, "basis": "F", "terms": [{"composition": "(1,2)", "coeff": coeff}]}

    start = time.perf_counter()
    with pytest.raises(ValueError, match="'coeff'"):
        element_from_json_dict(element("1e999999999"))
    assert time.perf_counter() - start < 0.1
    for text in ("1_000", "1e401", "-1e-401", "1e0401x", "٣", "1/٣", "0x10", "1/-3"):
        with pytest.raises(ValueError, match="'coeff'"):
            element_from_json_dict(element(text))
    for coeff, want in (("1/3", Fraction(1, 3)), ("0.1", Fraction(1, 10)), ("1e3", 1000), (" -2 ", -2),
                        ("1e400", 10**400), ("1E-0400", Fraction(1, 10**400)), (1e300, 10**300),
                        (5e-324, Fraction(5, 10**324)), (10**30, 10**30)):
        assert element_from_json_dict(element(coeff)).coeffs == {1: want}, coeff


def test_every_coefficient_entry_point_takes_the_text_rule():
    # elements, vectors and scalars read a coefficient by the JSON reader's rule, so no
    # text builds a huge power of ten (about 40x slower per decade of exponent), and a
    # value with no exact reading, text or not, is a ValueError that names it; a Decimal
    # is read as its text, so Decimal("1e1000000") is refused as fast as "1e1000000"
    entry_points = (lambda value: QSymElement(3, "F", {0: value}).coeffs,
                    lambda value: SparseVector(3, {0: value}).entries,
                    lambda value: (value * QSymElement(3, "F", {0: 1})).coeffs)
    for bad in ("1e5000000", "1e999999999", "\u0663", "1_0", "1/0", "0x10", float("inf"), float("nan"), None, [1],
                Decimal("1e1000000"), Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity")):
        for build in entry_points:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                build(bad)
            assert time.perf_counter() - start < 0.1, bad
    # an integral value, an int scalar too, is stored as an int
    for good, want in (("1e400", 10**400), (" -1/2 ", Fraction(-1, 2)), (0.5, Fraction(1, 2)), (3, 3), (True, 1),
                       (Decimal("2.5"), Fraction(5, 2)), (Decimal("1E+2"), 100)):
        for build in entry_points:
            assert build(good) == {0: want} and type(build(good)[0]) is type(want), good


# Values a JSON reader can hand over: every JSON type, the non-finite floats json.loads
# accepts, degrees past the limit, and composition and coefficient texts of both kinds.
JSON_JUNK = (None, True, False, 0, -1, 3, 17, 10**30, 2.5, 1e308, float("inf"), float("nan"), "", "x", "3",
             "(1,2)", [], [1, "a"], {}, {"composition": "(3)"}, {"composition": "(3)", "coeff": "1"})
JSON_COMPOSITIONS = ("(1,2)", "(2,1)", "(3)", "(1,1,1)", "()", "(", "1,2", "(1,,2)", "(0,3)", "(-1,4)", "(a)",
                     " (3) ", "(1,2,)", "(4)", "(1,1)")
JSON_COEFFS = ("1", "-2", "1/2", "0", "0.5", "1/0", "0/0", "x", "", " 1", "1e3", "--1", "inf", "nan", 1, 0, 0.25)


def _json_containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _json_containers(child)


def test_fuzzed_json_elements_raise_only_typed_errors():
    # seeded: a valid-looking element, then up to three edits anywhere in it (a field
    # dropped or set to junk, a list entry replaced or appended); the reader returns an
    # element or raises QsymkError or ValueError, never another exception
    rng, outcomes = random.Random(5), Counter()
    for _ in range(600):
        data = {"degree": rng.choice((3, 3, 3, 0, 2)), "basis": rng.choice("FMF"), "terms": [
            {"composition": rng.choice(JSON_COMPOSITIONS), "coeff": rng.choice(JSON_COEFFS)}
            for _ in range(rng.randint(0, 3))]}
        for _ in range(rng.randint(0, 3)):
            place, junk = rng.choice(list(_json_containers(data))), copy.deepcopy(rng.choice(JSON_JUNK))
            if isinstance(place, dict):
                key = rng.choice([*place, "extra"])
                if rng.random() < 0.3:
                    place.pop(key, None)
                else:
                    place[key] = junk
            elif place and rng.random() < 0.5:
                place[rng.randrange(len(place))] = junk
            else:
                place.append(junk)
        if rng.random() < 0.05:
            data = copy.deepcopy(rng.choice(JSON_JUNK))
        try:
            elem = element_from_json_dict(data)
        except (QsymkError, ValueError):
            outcomes["refused"] += 1
        else:
            assert element_from_json_dict(element_to_json_dict(elem)) == elem
            outcomes["read"] += 1
    assert min(outcomes["read"], outcomes["refused"]) >= 30, outcomes  # both sides are exercised


def test_json_and_basis_changes_enforce_the_degree_limit():
    huge = {"degree": 40, "basis": "M", "terms": [{"composition": "(40)", "coeff": "1"}]}
    with pytest.raises(DegreeLimitError):
        element_from_json_dict(huge)
    negative = {"degree": -3, "basis": "M", "terms": []}
    with pytest.raises(ValueError):
        element_from_json_dict(negative)
    # a basis change enumerates 2^(n-1) supersets; the element refuses
    # such a degree before one starts
    with pytest.raises(DegreeLimitError):
        m_to_f(QSymElement(24, "M", {0: 1}))
    with pytest.raises(DegreeLimitError):
        f_to_m(QSymElement(24, "F", {0: 1}))


def test_elements_refuse_degrees_outside_the_limit():
    with pytest.raises(ValueError):
        QSymElement(-3, "M", {0: 1})
    with pytest.raises(DegreeLimitError):
        fundamental(C((40,)))
    with pytest.raises(DegreeLimitError):
        monomial(C((40,)))
    with pytest.raises(DegreeLimitError):
        ehrenborg_psi_m(C((22,)))
    # an element built before the limit was lowered still meets the
    # basis changes' own check
    m_elem, f_elem = QSymElement(12, "M", {0: 1}), QSymElement(12, "F", {0: 1})
    set_max_degree(8)
    try:
        with pytest.raises(DegreeLimitError):
            m_to_f(m_elem)
        with pytest.raises(DegreeLimitError):
            f_to_m(f_elem)
    finally:
        set_max_degree(None)


def _all_int(elem):
    coeffs = elem.coeffs if isinstance(elem, QSymElement) else elem.entries
    return all(type(value) is int for value in coeffs.values())


def test_coefficient_rule_keeps_integral_values_int():
    rng = random.Random(11)

    def integral(n, basis, count):
        size = 1 << max(n - 1, 0)
        return QSymElement(n, basis, {rng.randrange(size): rng.randint(-4, 4) for _ in range(count)})

    for n in range(0, 9):
        samples = [integral(n, basis, 4) for basis in ("M", "F") for _ in range(3)]
        for comp in compositions_of(n):
            samples += [fundamental(comp), monomial(comp)]
        for e in samples:
            images = [psi(e), rho(e), m_to_f(e) if e.basis == "M" else f_to_m(e)]
            assert all(map(_all_int, images)), e
        for mask in range(1 << max(n - 1, 0)):
            for k in range(1, n):
                if not (mask >> (k - 1)) & 1:
                    c_set = mask_to_set(mask)
                    assert _all_int(lemma22b_combination(n, c_set, k))
                    if k >= 2 and not (mask >> (k - 2)) & 1:
                        assert _all_int(lemma22c_combination(n, c_set, k))
        for stat in (StatisticId.Pk, StatisticId.Epk):
            assert all(map(_all_int, reduce(monomial_span_vectors(stat, n), n).rows))
        edges = edge_vectors(relation_edges({RelationId.Arrow1, RelationId.Arrow2, RelationId.Arrow3}, n))
        assert all(map(_all_int, reduce(edges, n).rows))
    for a in range(0, 5):
        for b in range(0, 9 - a):
            assert _all_int(multiply_f(integral(a, "F", 2), integral(b, "F", 2)))

    # rational input still gives Fractions where a value is not integral
    half = m_to_f(QSymElement(3, "M", {0: Fraction(1, 2)}))
    assert half.coeffs and all(value.denominator == 2 for value in half.coeffs.values())
    assert reduce([SparseVector(3, {0: 2, 1: 1})]).rows[0].entries == {0: 1, 1: Fraction(1, 2)}

    # other integral input types are stored as int
    mixed = {0: True, 1: "3", 2: 2.0, 3: Fraction(6, 3)}
    assert QSymElement(3, "F", mixed).coeffs == SparseVector(3, mixed).entries == {0: 1, 1: 3, 2: 2, 3: 2}
    assert _all_int(QSymElement(3, "F", mixed)) and _all_int(SparseVector(3, mixed))

    for k in (-3, 1, 7):
        as_int, as_fraction = QSymElement(3, "M", {1: k}), QSymElement(3, "M", {1: Fraction(k)})
        assert as_int == as_fraction and hash(as_int) == hash(as_fraction)

    x = QSymElement(3, "F", {0: 3, 3: -7})
    assert 0.1 * x == Fraction(0.1) * x != Fraction(1, 10) * x
