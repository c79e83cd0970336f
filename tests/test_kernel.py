from __future__ import annotations

import gc
import itertools
import json
import math
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymk import bridges, cli, compositions, config, ideal, kernel, linalg, monomial_span, qsym, statistics
from qsymk.compositions import (
    Composition,
    complement_mask,
    compositions_of,
    from_index,
    index_of,
    reverse_mask,
    set_to_mask,
)
from qsymk.errors import DegreeLimitError, RelationUnsoundError
from qsymk.kernel import (
    RelationGraph,
    RelationId,
    check_basis_F,
    check_section4_props,
    check_spanning_F,
    check_spanning_M,
    check_symmetry_bridges,
    edge_vectors,
    f_family,
    is_ideal_upto,
    kernel_space,
    m_family,
    monomial_span_terms,
    monomial_span_vectors,
    omega_sets,
    quotient_dimension,
    relation_edges,
    shuffle_compatibility_upto,
)
from qsymk.linalg import SparseVector, in_span, is_independent, rank, reduce, spans_equal
from qsymk.qsym import QSymElement, _f_basis_product, f_sparse, f_to_m, m_to_f, multiply_f_via_shuffles
from qsymk.statistics import (
    Permutation,
    StatisticId,
    check_shuffle_compatible,
    equivalence_classes,
    shuffle_distribution,
    stat_name,
)

from conftest import des_distribution, log_products, maj, maj_distribution, psi_vector, rho_vector

C = Composition
R = RelationId
S = StatisticId


@pytest.fixture
def cold_graphs():
    """Empty the relation-graph cache before and after the test, and hand
    the test the call that empties it: a check run right after that call
    builds its graph and finds its components, and no graph built under a
    patch outlives the test."""
    clear = kernel._relation_edges.cache_clear
    clear()
    yield clear
    clear()


def max_part(comp: Composition) -> int:
    return max(comp.parts) if comp.parts else 0


def test_kernel_dimensions():
    assert kernel_space(S.Pk, 4).dim == 5
    assert kernel_space(S.Pk, 5).dim == 11
    assert kernel_space(S.pk, 5).dim == 13
    for n in range(0, 7):
        assert kernel_space(S.Des, n).dim == 0


def test_kernel_dimension_law():
    for n in range(1, 9):
        for stat in StatisticId:
            assert kernel_space(stat, n).dim + quotient_dimension(stat, n) == 2 ** (n - 1)


def test_quotient_dimension_examples():
    assert quotient_dimension(S.Pk, 4) == 3
    assert quotient_dimension(S.Pk, 5) == 5
    for n in range(1, 11):
        # possible peak counts are 0 .. floor((n-1)/2)
        assert quotient_dimension(S.pk, n) == (n - 1) // 2 + 1


def _fibonacci(k: int) -> int:
    """F_k with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# The number of st-classes at degree n is the number of values st takes on the
# descent sets D of [n - 1], counted from what each statistic is rather than from
# the mask formulas of `statistics`:
# - Des: every D occurs; des: 0..n-1 descents; maj: every sum 0..C(n, 2) of a D.
# - Pk, Val: the sets of {2, ..., n - 1} with no two consecutive members, F_n of them.
# - Lpk, Rpk: the same in {1, ..., n - 1} or {2, ..., n}, F_(n+1) each.
# - Epk: the nonempty such sets of {1, ..., n}, F_(n+2) - 1 (an exterior peak always exists).
# - pk, val: 0..floor((n-1)/2); epk: 1..floor((n+1)/2); lpk, rpk: 0..floor(n/2).
CLASS_COUNTS = {
    S.Des: lambda n: 2 ** (n - 1),
    S.des: lambda n: n,
    S.maj: lambda n: math.comb(n, 2) + 1,
    S.Pk: _fibonacci,
    S.Val: _fibonacci,
    S.Lpk: lambda n: _fibonacci(n + 1),
    S.Rpk: lambda n: _fibonacci(n + 1),
    S.Epk: lambda n: _fibonacci(n + 2) - 1,
    S.pk: lambda n: (n + 1) // 2,
    S.epk: lambda n: (n + 1) // 2,
    S.val: lambda n: (n + 1) // 2,
    S.lpk: lambda n: n // 2 + 1,
    S.rpk: lambda n: n // 2 + 1,
}


def test_class_counts_follow_closed_forms_past_the_goldens():
    # the dims goldens stop at degree 11; these counts reach 18, above the default limit
    assert set(CLASS_COUNTS) == set(StatisticId)
    previous = config.set_max_degree(18)
    try:
        for n in range(1, 19):
            for stat, count in CLASS_COUNTS.items():
                assert quotient_dimension(stat, n) == count(n), (stat, n)
                assert kernel_space(stat, n).dim == 2 ** (n - 1) - count(n), (stat, n)
            kernel._kernel_space.cache_clear()  # one degree's spaces at a time: 2^17 labels each at 18
    finally:
        config.set_max_degree(previous)


def test_kernel_rref_matches_per_class_construction():
    # the written-down basis equals the elimination of the class-difference
    # generators, row for row, for every statistic and a planted one
    for stat in [*StatisticId, max_part]:
        for n in range(0, 10):
            generators = [
                SparseVector(n, {block[0]: 1, other: -1})
                for block in equivalence_classes(stat, n)
                for other in block[1:]
            ]
            expected = reduce(generators, n)
            basis = kernel_space(stat, n).basis
            assert basis.rows == expected.rows, (stat, n)
            assert basis.pivots == expected.pivots, (stat, n)


def test_kernel_classes_need_no_composition_round_trip(monkeypatch):
    # the classes come from the statistics as index blocks; no Composition
    # is built, and no index is turned into a Composition and back on the
    # way to a kernel
    counts = {"index_of": 0, "Composition": 0}

    def counting_index_of(comp):
        counts["index_of"] += 1
        return index_of(comp)

    init = Composition.__init__

    def counting_init(self, *args, **kwargs):
        counts["Composition"] += 1
        init(self, *args, **kwargs)

    for module in (compositions, statistics, kernel):
        monkeypatch.setattr(module, "index_of", counting_index_of)
    monkeypatch.setattr(Composition, "__init__", counting_init)
    for n in range(0, 12):
        for stat in StatisticId:
            kernel._kernel_space.__wrapped__(stat, n)
    assert counts == {"index_of": 0, "Composition": 0}


def test_dimension_queries_do_not_build_the_basis():
    def parts_parity(comp: Composition) -> int:
        return len(comp.parts) % 2

    space = kernel_space(parts_parity, 7)
    assert space.dim == 64 - 2
    assert quotient_dimension(parts_parity, 7) == 2
    assert "basis" not in vars(space)
    assert "labels" not in vars(space)
    assert space.basis.rank == space.dim


def test_in_span_matches_class_sum_oracle():
    rng = random.Random(13)
    n = 6
    for stat in (S.Pk, S.pk, S.Epk):
        ks = kernel_space(stat, n)
        classes = equivalence_classes(stat, n)
        for _ in range(60):
            entries = {rng.randrange(32): Fraction(rng.randint(-3, 3)) for _ in range(5)}
            v = SparseVector(n, entries)
            class_sums_vanish = all(
                sum(v.entries.get(c, Fraction(0)) for c in block) == 0
                for block in classes
            )
            assert in_span(v, ks.basis) == class_sums_vanish
            assert (not any(kernel._class_sums(ks.labels, v.entries.items()).values())) == class_sums_vanish


def test_membership_example_from_spanning_set():
    # both compositions have peak set {3}
    graph = relation_edges({R.Arrow1, R.Arrow2}, 5)
    basis = reduce(edge_vectors(graph), 5)
    v = SparseVector(5, {index_of(C((1, 2, 2))): 1, index_of(C((1, 2, 1, 1))): -1})
    assert in_span(v, basis)


def test_check_spanning_F_positive():
    for n in range(0, 9):
        assert check_spanning_F(S.Pk, n, {R.Arrow1, R.Arrow2})
        assert check_spanning_F(S.pk, n, {R.Arrow1, R.Arrow2, R.Arrow3})
        assert check_spanning_F(S.Val, n, {R.ValArrow1, R.ValArrow2})
        assert check_spanning_F(S.val, n, {R.ValArrow1, R.ValArrow2, R.ValArrow3})
        assert check_spanning_F(S.Epk, n, {R.EpkArrow})


def test_check_spanning_F_negative():
    # without the swap relation the peak-number classes stay apart
    assert not check_spanning_F(S.pk, 5, {R.Arrow1, R.Arrow2})
    # splits alone do not reach the tail-split classes
    assert not check_spanning_F(S.Pk, 4, {R.Arrow1})


def test_check_spanning_F_unsound_relation():
    with pytest.raises(RelationUnsoundError):
        check_spanning_F(S.Pk, 4, {R.Arrow3})  # swaps move the peak positions
    with pytest.raises(RelationUnsoundError):
        check_spanning_F(S.Des, 4, {R.Arrow1})


def test_check_basis_F():
    for n in range(0, 9):
        assert check_basis_F(S.Pk, n, {R.PkBasisArrow})
        assert check_basis_F(S.pk, n, {R.PkNumBasisArrow})
    # spanning but linearly dependent
    assert not check_basis_F(S.Pk, 5, {R.Arrow1, R.Arrow2})


def test_basis_edge_counts_match_dimensions():
    for n in range(0, 9):
        assert len(relation_edges({R.PkBasisArrow}, n).edges) == kernel_space(S.Pk, n).dim
        assert len(relation_edges({R.PkNumBasisArrow}, n).edges) == kernel_space(S.pk, n).dim


def test_monomial_span_vectors_examples():
    assert monomial_span_vectors(S.Pk, 2) == [f_sparse(QSymElement(2, "M", {0: 1}))]

    def m_vec(n, terms):
        return f_sparse(QSymElement(n, "M", {index_of(C(j)): c for j, c in terms.items()}))

    got = monomial_span_vectors(S.Pk, 4)
    expected = [
        m_vec(4, {(4,): 1, (2, 2): 1}),
        m_vec(4, {(2, 2): 1, (1, 1, 2): 1}),
        m_vec(4, {(3, 1): 1, (2, 1, 1): 1}),
        m_vec(4, {(1, 3): 1, (1, 2, 1): 1}),
        m_vec(4, {(1, 1, 2): 1}),
    ]
    assert sorted(map(repr, got)) == sorted(map(repr, expected))

    pk_extra = monomial_span_vectors(S.pk, 4)
    assert sorted(map(repr, pk_extra)) == sorted(
        map(repr, expected + [m_vec(4, {(1, 2, 1): 1, (2, 1, 1): -1})])
    )

    with pytest.raises(ValueError):
        monomial_span_vectors(S.Val, 4)


def test_check_spanning_M():
    for n in range(0, 9):
        assert check_spanning_M(S.Pk, n)
        assert check_spanning_M(S.pk, n)
        assert check_spanning_M(S.Epk, n)


def test_monomial_span_terms_are_the_vectors_in_m_coordinates():
    ctilde = {index_of(C((1, 1, 2))): 1}
    swap = {index_of(C((1, 2, 1))): 1, index_of(C((2, 1, 1))): -1}
    assert ctilde in monomial_span_terms(S.Pk, 4) and swap not in monomial_span_terms(S.Pk, 4)
    assert ctilde in monomial_span_terms(S.pk, 4) and swap in monomial_span_terms(S.pk, 4)
    for stat in (S.Pk, S.pk, S.Epk):
        for n in range(0, 8):
            terms = monomial_span_terms(stat, n)
            assert all(len(t) in (1, 2) and set(t.values()) <= {1, -1} for t in terms)
            assert monomial_span_vectors(stat, n) == [f_sparse(QSymElement(n, "M", t)) for t in terms]
    with pytest.raises(ValueError):
        monomial_span_terms(S.Val, 4)


def test_projected_m_is_the_class_sums_of_m_to_f():
    for stat in StatisticId:
        for n in range(0, 10):
            space = kernel_space(stat, n)
            proj = monomial_span._projected_m(space.labels)
            assert len(proj) == 1 << max(n - 1, 0)
            for c, got in enumerate(proj):
                image = m_to_f(QSymElement(n, "M", {c: 1})).coeffs
                want = {k: v for k, v in kernel._class_sums(space.labels, image.items()).items() if v}
                assert got == want, (stat, n, c)


def _check_spanning_M_via_F(stat, n) -> bool:
    """The F-coordinate route: membership and rank of the F images."""
    vectors, space = monomial_span_vectors(stat, n), kernel_space(stat, n)
    in_kernel = not any(any(kernel._class_sums(space.labels, v.entries.items()).values()) for v in vectors)
    return in_kernel and rank(vectors, n) == space.dim


def test_check_spanning_M_agrees_with_the_F_route(monkeypatch):
    for stat in (S.Pk, S.pk, S.Epk):
        for n in range(0, 11):
            assert check_spanning_M(stat, n) and _check_spanning_M_via_F(stat, n)
    # both routes reject the planted families alike, including a sign flip
    terms_of = monomial_span.monomial_span_terms
    n = 7
    for stat in (S.Pk, S.pk, S.Epk):
        honest = terms_of(stat, n)
        flipped = [{c: -v if i else v for i, (c, v) in enumerate(t.items())} for t in honest]
        for planted in (honest[1:], flipped, honest + [{0: 1}]):
            monkeypatch.setattr(monomial_span, "monomial_span_terms", lambda st, deg, ts=planted: ts)
            assert not check_spanning_M(stat, n)
            assert not _check_spanning_M_via_F(stat, n)


def test_check_spanning_M_makes_no_f_expansion(monkeypatch):
    calls = []
    m_to_f_of = qsym.m_to_f

    def counted(elem):
        calls.append(elem)
        return m_to_f_of(elem)

    monkeypatch.setattr(qsym, "m_to_f", counted)
    assert check_spanning_M(S.pk, 9)
    assert calls == []
    monomial_span_vectors(S.pk, 9)
    assert len(calls) == len(monomial_span_terms(S.pk, 9))


def test_check_spanning_M_matches_span_equality(monkeypatch):
    # membership plus rank against the old route, exact span equality
    for stat in (S.Pk, S.pk, S.Epk):
        for n in range(0, 9):
            rows = kernel_space(stat, n).basis.rows
            assert spans_equal(monomial_span_vectors(stat, n), rows, n)
            assert check_spanning_M(stat, n)
    # planted negatives, written in M coordinates: a spanning combination
    # dropped, a non-kernel vector (F_(6), as its M expansion) added, and
    # both at once (full rank, so only membership rejects it)
    n = 6
    pk_terms = monomial_span_terms(S.Pk, n)
    ctilde = {index_of(C((1, 1, 1, 1, 2))): 1}
    outside = f_to_m(QSymElement(n, "F", {0: 1})).coeffs
    assert f_sparse(QSymElement(n, "M", outside)) == SparseVector(n, {0: 1})
    dropped = [t for t in pk_terms if t != ctilde]
    assert len(dropped) == len(pk_terms) - 1
    planted = (dropped, pk_terms + [outside], dropped + [outside])
    rows = kernel_space(S.Pk, n).basis.rows
    for terms in planted:
        vectors = [f_sparse(QSymElement(n, "M", t)) for t in terms]
        monkeypatch.setattr(monomial_span, "monomial_span_terms", lambda stat, n, ts=terms: ts)
        assert not spans_equal(vectors, rows, n)
        assert not check_spanning_M(S.Pk, n)


def test_monomial_checks_need_a_statistic_id():
    # a name used to be reported as a statistic with no monomial set
    for call in (monomial_span_terms, monomial_span_vectors, check_spanning_M):
        with pytest.raises(ValueError, match="needs a StatisticId, got 'Pk'$"):
            call("Pk", 4)


@pytest.mark.parametrize("call", [
    lambda stat: kernel_space(stat, 3),
    lambda stat: equivalence_classes(stat, 3),
    lambda stat: quotient_dimension(stat, 2),
    lambda stat: check_spanning_F(stat, 3, {R.Arrow1, R.Arrow2}),
    lambda stat: is_ideal_upto(stat, 3),
    lambda stat: is_ideal_upto(stat, 0),
    lambda stat: shuffle_distribution(stat, Permutation((1,)), Permutation((2, 3))),
    lambda stat: check_shuffle_compatible(stat, 3),
    lambda stat: shuffle_compatibility_upto(stat, 0),
], ids=["kernel_space", "equivalence_classes", "quotient_dimension", "check_spanning_F",
        "is_ideal_upto", "is_ideal_upto_at_0", "shuffle_distribution", "check_shuffle_compatible",
        "shuffle_compatibility_upto"])
def test_a_name_or_none_is_no_statistic(call):
    # a name or None used to fail inside `map` with "'str' object is not
    # callable", and an unhashable value in the kernel cache with a TypeError
    for stat in ("Pk", None, [1], {"a": 1}):
        want = f"^{re.escape(repr(stat))} is neither a StatisticId nor a callable; parse_statistic"
        with pytest.raises(ValueError, match=want):
            call(stat)


class _Unhashable:
    """A callable statistic that cannot key a cache: the number of parts."""

    __hash__ = None

    def __call__(self, comp):
        return len(comp)


@pytest.mark.parametrize("call", [
    lambda stat: kernel_space(stat, 3),
    lambda stat: quotient_dimension(stat, 2),
    lambda stat: check_spanning_F(stat, 3, {R.Arrow1, R.Arrow2}),
    lambda stat: is_ideal_upto(stat, 3),
    lambda stat: shuffle_compatibility_upto(stat, 3),
], ids=["kernel_space", "quotient_dimension", "check_spanning_F", "is_ideal_upto", "shuffle_compatibility_upto"])
def test_an_unhashable_callable_is_refused_by_name(call):
    # it passed the statistic check and died in the kernel cache with
    # "TypeError: unhashable type"; the classes need no cache
    stat = _Unhashable()
    with pytest.raises(ValueError, match=f"^statistic {re.escape(str(stat))} is unhashable"):
        call(stat)
    assert equivalence_classes(stat, 3) == ((0,), (1, 2), (3,))


# -- the signed rank ------------------------------------------------------------

def _m_families(n: int) -> list[list[dict[int, int]]]:
    """The monomial spanning families of Pk, pk and Epk, and the M sides of
    the Section 4 families (regions 1-3 and 1-4)."""
    family = _honest_family(n)
    return [monomial_span_terms(stat, n) for stat in (S.Pk, S.pk, S.Epk)] + [
        [m for r, _, m in family if r <= last] for last in (3, 4)
    ]


def test_signed_rank_matches_elimination():
    for n in range(0, 11):
        for terms in _m_families(n):
            assert monomial_span._signed_rank(terms) == rank([SparseVector(n, t) for t in terms], n), n


@pytest.mark.parametrize("terms, want", [
    ([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 0: 1}], 3),     # a cycle with an odd number of + edges
    ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}], 2),    # a cycle with two + edges: balanced
    ([{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: -1}], 2),  # a cycle with none: balanced
    ([{0: 1, 1: -1}, {1: 1, 2: 1}, {2: 1}], 3),          # a 1-term vector joins a balanced component
    ([{0: 1, 1: -1}, {1: 1, 2: 1}, {3: -1}, {3: 1, 0: 1}], 4),  # a small unbalanced one joins it
    ([{0: 1}, {1: 1}, {0: 1, 1: 1}, {1: 1, 2: -1}], 3),  # two unbalanced components merged, then grown
    ([{0: 1, 1: 1}, {0: 1, 1: 1}, {1: 1}, {1: 1}], 2),   # repeated terms
    ([{0: 1, 1: 1}, {}], 1),                             # the empty combination adds nothing
    ([], 0),
], ids=["odd-cycle", "even-cycle", "positive-cycle", "half-edge", "unbalanced-joins",
        "unbalanced-merged", "repeated", "empty-term", "no-terms"])
def test_signed_rank_on_planted_graphs(terms, want):
    assert monomial_span._signed_rank(terms) == rank([SparseVector(3, t) for t in terms], 3) == want


@pytest.mark.parametrize("terms", [
    [{0: 1, 1: 1, 2: 1}],
    [{0: 2}],
    [{0: 1, 1: 0}],
    [{0: 1, 1: 1}, {0: Fraction(1, 2), 1: 1}],
], ids=["three-terms", "coefficient-2", "coefficient-0", "half"])
def test_signed_rank_refuses_other_shapes(terms):
    with pytest.raises(ValueError, match="not a signed-graph combination"):
        monomial_span._signed_rank(terms)


# one- and two-term +-1 combinations on the indices 0..6, repeats and {} included
_signed_terms = st.lists(
    st.one_of(
        st.just({}),
        st.builds(lambda a, s: {a: s}, st.integers(0, 6), st.sampled_from((1, -1))),
        st.builds(
            lambda ab, s, t: {ab[0]: s, ab[1]: t},
            st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True),
            st.sampled_from((1, -1)),
            st.sampled_from((1, -1)),
        ),
    ),
    max_size=9,
)


@given(_signed_terms)
@settings(max_examples=200, deadline=None)
def test_signed_rank_matches_rank_on_random_signed_graphs(terms):
    assert monomial_span._signed_rank(terms) == rank([SparseVector(4, t) for t in terms], 4)


@given(_signed_terms, _signed_terms)
@settings(max_examples=200, deadline=None)
def test_signed_span_equality_matches_spans_equal_on_random_signed_graphs(xs, ys):
    want = spans_equal([SparseVector(4, x) for x in xs], [SparseVector(4, y) for y in ys], 4)
    assert monomial_span._signed_spans_equal(xs, ys) == want
    # a family spans what it spans, and its own members lie in it
    assert monomial_span._signed_spans_equal(ys, ys)


def _components_by_search(graph: RelationGraph) -> tuple[tuple[int, ...], ...]:
    """Components by breadth-first search over the undirected edges, each
    started from the least vertex not yet reached."""
    neighbours: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for a, b, _ in graph.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    reached: set[int] = set()
    blocks = []
    for start in graph.vertices:
        if start in reached:
            continue
        block, frontier = {start}, [start]
        while frontier:
            frontier = [w for v in frontier for w in neighbours[v] - block]
            block.update(frontier)
        reached |= block
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


@st.composite
def _random_graphs(draw) -> RelationGraph:
    n = draw(st.integers(0, 4))
    vertex = st.integers(0, (1 << max(n - 1, 0)) - 1)
    # loops, parallel and antiparallel pairs all arise among these edges
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    return RelationGraph(n, tuple((a, b, "x") for a, b in pairs))


@given(_random_graphs())
@settings(max_examples=200, deadline=None)
def test_connected_components_match_a_search(graph):
    assert kernel.connected_components(graph) == _components_by_search(graph)


def test_signed_span_equality_matches_spans_equal():
    cycle = [{0: 1, 1: -1}, {1: 1, 2: -1}]  # balanced: x0 + x1 + x2 = 0
    pairs = [
        (cycle, cycle, True),
        ([{0: 1, 2: -1}, {1: 1, 2: -1}], cycle, True),  # another tree of the same cycle
        ([{0: 1, 1: 1}, {1: 1, 2: -1}], cycle, False),  # a sign flipped
        (cycle[:1], cycle, False),                      # a combination dropped
        (cycle, cycle[:1], False),
        (cycle + [{2: 1}], cycle, False),               # a half-edge added
        ([{0: 1, 1: 1, 2: 1}], cycle, False),           # three terms, outside the span
        ([{3: 1, 0: -1}], cycle, False),                # an untouched index
        ([{0: 1}, {1: 1, 2: 1}, {1: 1, 2: -1}], [{0: 1}, {1: 1}, {2: 1}], True),
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], [{0: 1}, {1: 1}, {2: 1}], True),  # odd cycle
        ([{0: 1, 1: 1}, {}], [{0: 1, 1: 1}], True),
    ]
    for xs, ys, want in pairs:
        spans = spans_equal([SparseVector(3, x) for x in xs], [SparseVector(3, y) for y in ys], 3)
        assert monomial_span._signed_spans_equal(xs, ys) == spans == want, (xs, ys)
    # a many-term x inside the span leaves xs no signed graph to rank
    with pytest.raises(ValueError, match="not a signed-graph combination"):
        monomial_span._signed_spans_equal([{0: 1, 1: 1, 2: -2}], cycle)


# -- the subset-indexed regions ----------------------------------------------

def _brute_regions(n: int):
    """Independent enumeration of the four regions, straight from the
    membership conditions, using explicit sets."""
    universe = list(range(1, n))
    om1, om2, om3, om4 = set(), set(), set(), set()
    subsets = []
    for bits in range(1 << len(universe)):
        subsets.append(frozenset(universe[i] for i in range(len(universe)) if (bits >> i) & 1))
    for c in subsets:
        for k in universe:
            if c != frozenset(universe) and k not in c and k - 1 not in c and (k - 2 in c or k - 2 == 0):
                om1.add((c, k))
            if (
                c <= frozenset(range(1, n - 1))
                and c != frozenset(range(1, n - 1))
                and n - 2 in c
                and k not in c
                and k + 1 in c
                and (k - 1 in c or k - 1 == 0)
            ):
                om2.add((c, k))
            aug = c | {0}
            if (
                n - 1 in c
                and (k - 1 in aug)
                and k in c
                and k + 1 not in c
                and k + 2 in c
                and all(j + 1 in c or j + 2 in c for j in aug if j != n - 1)
            ):
                om4.add((c, k))
    if n >= 2:
        om3.add((frozenset(range(1, n - 1)), n - 1))
    return om1, om2, om3, om4


def test_omega_sets_against_brute_force():
    for n in range(0, 12):
        om = omega_sets(n)
        b1, b2, b3, b4 = _brute_regions(n)
        assert set(om.om1) == b1, n
        assert set(om.om2) == b2, n
        assert set(om.om3) == b3, n
        assert set(om.om4) == b4, n
        for region in (om.om1, om.om2, om.om3, om.om4):
            keys = [(set_to_mask(c), k) for c, k in region]
            assert keys == sorted(keys), n


def test_region_masks_against_brute_force():
    # bit k-1 of a region's mask is set exactly when the brute force puts (C, k) in that region
    for n in range(0, 10):
        brute = _brute_regions(n)
        for c_mask in range(1 << max(n - 1, 0)):
            masks = monomial_span._regions(n, c_mask)
            assert all(0 <= mask <= compositions.full_mask(n) for mask in masks), (n, c_mask)
            for k in range(1, n):
                pair = (compositions.mask_to_set(c_mask), k)
                assert [mask >> (k - 1) & 1 for mask in masks] == [pair in region for region in brute], pair


def test_omega_small_cases():
    om2deg = omega_sets(2)
    assert om2deg.om3 == ((frozenset(), 1),)
    for n in range(0, 3):
        assert omega_sets(n).om1 == ()
    for n in range(0, 4):
        assert omega_sets(n).om2 == ()
        assert omega_sets(n).om4 == ()
    for n in range(0, 2):
        assert omega_sets(n).om3 == ()
    assert set(omega_sets(4).om1) == {
        (frozenset(), 2),
        (frozenset({1}), 3),
        (frozenset({3}), 2),
    }


def test_omega_regions_disjoint_and_counted():
    for n in range(0, 9):
        om = omega_sets(n)
        regions = [set(om.om1), set(om.om2), set(om.om3), set(om.om4)]
        for a, b in itertools.combinations(regions, 2):
            assert not (a & b)
        # the first and fourth regions biject with the split/swap edges
        assert len(om.om1) == len(relation_edges({R.Arrow1}, n).edges)
        assert len(om.om4) == len(relation_edges({R.Arrow3}, n).edges)


def test_family_examples():
    f = f_family(3, frozenset(), 1, 2)
    m = m_family(3, frozenset(), 1, 2)
    assert f == QSymElement(2, "F", {0: 1, 1: -1})
    assert m == QSymElement(2, "M", {0: 1})
    assert m_to_f(m) == f

    # region-4 member ({1,3}, 1) at degree 4: the swap (1,2,1) -> (2,1,1)
    assert (frozenset({1, 3}), 1) in set(omega_sets(4).om4)
    f4 = f_family(4, frozenset({1, 3}), 1, 4)
    m4 = m_family(4, frozenset({1, 3}), 1, 4)
    swap_pair = {index_of(C((1, 2, 1))): 1, index_of(C((2, 1, 1))): -1}
    assert f4 == QSymElement(4, "F", swap_pair)
    assert m4 == QSymElement(4, "M", swap_pair)

    # region-1 instance at degree 4 must satisfy k-2 in C u {0}
    got = f_family(1, frozenset(), 2, 4)
    assert got == QSymElement(4, "F", {0: 1, 1: -1})
    with pytest.raises(ValueError):
        f_family(1, frozenset(), 3, 4)
    with pytest.raises(ValueError):
        m_family(2, frozenset(), 1, 2)
    # a region is an int in 1..4: not True (== 1), nor 3.0, nor 5
    for region, c, k, n in ((5, frozenset(), 1, 2), (True, frozenset(), 2, 4), (3.0, frozenset({1, 2}), 3, 4)):
        for family in (f_family, m_family):
            with pytest.raises(ValueError, match="region must be 1..4"):
                family(region, c, k, n)
    # positions of C and k that are not ints in [n-1] are in no region
    n = 4
    outside = ((frozenset({0}), 2), (frozenset({n}), 2), (frozenset(), 0), (frozenset(), n))
    not_ints = ((frozenset({"1"}), 2), (frozenset({1.0}), 3), (frozenset(), 2.0), (frozenset({True}), 3))
    for c, k in (*outside, *not_ints):
        for family in (f_family, m_family):
            with pytest.raises(ValueError, match="not in region"):
                family(1, c, k, n)
    # bools are not positions, though True == 1 would place them in a region
    for family in (f_family, m_family):
        with pytest.raises(ValueError, match="not in region"):
            family(3, frozenset(), True, 2)


def test_section4_props():
    for n in range(0, 8):
        report = check_section4_props(n)
        assert report["pass"], report
    deg2 = check_section4_props(2)
    assert deg2["results"]["lemma_om4_matches_arrow3"]


def test_section4_props_planted_negatives(monkeypatch):
    n = 5
    relation_edges_of = monomial_span.relation_edges

    def one_arrow3_edge_dropped(rels, degree):
        graph = relation_edges_of(rels, degree)
        if RelationId.Arrow3 not in set(rels):
            return graph
        dropped = next(e for e in graph.edges if e[2] == "3")
        return RelationGraph(graph.n, tuple(e for e in graph.edges if e != dropped), graph.marks)

    monkeypatch.setattr(monomial_span, "relation_edges", one_arrow3_edge_dropped)
    results = check_section4_props(n)["results"]
    assert not results["lemma_om4_matches_arrow3"]
    assert not results["prop44_f_family_spans_Fpk"]
    monkeypatch.undo()

    ctilde = {index_of(C((1,) * (n - 2) + (2,))): 1}
    span_terms_of = monomial_span.monomial_span_terms
    monkeypatch.setattr(
        monomial_span, "monomial_span_terms",
        lambda stat, degree: [t for t in span_terms_of(stat, degree) if t != ctilde],
    )
    report = check_section4_props(n)
    assert not report["pass"]
    assert not report["results"]["prop42_m_family_spans_MPk"]


def _honest_family(n: int) -> list[tuple[int, dict, dict]]:
    """(region, F terms, M terms) of every member, through the public
    `omega_sets`, `f_family` and `m_family`: regions 1-3, then region 4."""
    om = omega_sets(n)
    indexed = [(r, c, k) for r, region in enumerate((om.om1, om.om2, om.om3, om.om4), 1) for c, k in region]
    return [(r, f_family(r, c, k, n).coeffs, m_family(r, c, k, n).coeffs) for r, c, k in indexed]


def _section4_via_F(n: int, family) -> dict:
    """The spans_equal route: the F members and the F images of the M
    members as F vectors, and every proposition an elimination."""
    def f_vectors(last):
        return [f_sparse(QSymElement(n, "F", f)) for r, f, _ in family if r <= last]

    def m_vectors(last):
        return [SparseVector(n, m) for r, _, m in family if r <= last]

    def m_images(last):
        return [f_sparse(QSymElement(n, "M", m)) for r, _, m in family if r <= last]

    def spanning(stat):
        return [SparseVector(n, t) for t in monomial_span_terms(stat, n)]

    fn_pk = edge_vectors(relation_edges({R.Arrow1, R.Arrow2}, n))
    fn_pknum = edge_vectors(relation_edges({R.Arrow1, R.Arrow2, R.Arrow3}, n))
    arrow3 = {(a, b) for a, b, _ in relation_edges({R.Arrow3}, n).edges}
    return {
        "prop41_f_family_spans_FPk": spans_equal(f_vectors(3), fn_pk, n),
        "prop42_m_family_spans_MPk": spans_equal(m_vectors(3), spanning(S.Pk), n),
        "prop43_f_equals_m_on_omega": spans_equal(f_vectors(3), m_images(3), n),
        "prop44_f_family_spans_Fpk": spans_equal(f_vectors(4), fn_pknum, n),
        "prop45_m_family_spans_Mpk": spans_equal(m_vectors(4), spanning(S.pk), n),
        "prop46_f_equals_m_on_theta": spans_equal(f_vectors(4), m_images(4), n),
        "lemma_om4_matches_arrow3": arrow3 == {tuple(f) for r, f, _ in family if r == 4},
    }


def _plant(monkeypatch, family) -> None:
    """Make `check_section4_props` read exactly the given members."""
    monkeypatch.setattr(monomial_span, "_omega", lambda n: ((r, i, 0) for i, (r, _, _) in enumerate(family)))
    monkeypatch.setattr(monomial_span, "_members", lambda r, i, k, n: family[i][1:])


def test_section4_props_match_the_spans_equal_route():
    for n in range(0, 9):
        family = _honest_family(n)
        # the check reads the same members, in the order of `_omega`
        on_masks = [(r, *monomial_span._members(r, c, k, n)) for r, c, k in monomial_span._omega(n)]
        assert sorted(map(repr, on_masks)) == sorted(map(repr, family)), n
        want = _section4_via_F(n, family)
        assert all(want.values()), n
        assert check_section4_props(n)["results"] == want, n


def test_section4_props_planted_families_fail_in_both_routes(monkeypatch):
    def replaced(family, i, f=None, m=None):
        r, f_old, m_old = family[i]
        return family[:i] + [(r, f_old if f is None else f, m_old if m is None else m)] + family[i + 1:]

    def flipped(terms):
        first, *rest = terms.items()
        return dict([first, *((c, -v) for c, v in rest)])

    for n in (5, 7):
        family = _honest_family(n)
        first = next(i for i, (r, _, _) in enumerate(family) if r == 1)
        swap = next(i for i, (r, _, _) in enumerate(family) if r == 4)
        outside = f_to_m(QSymElement(n, "F", {0: 1})).coeffs  # F_(n), in no kernel
        planted = [
            # the F-vs-M props: a sign flipped, a combination outside the kernel added
            (replaced(family, first, m=flipped(family[first][2])), ("prop43", "prop46")),
            (replaced(family, swap, m=flipped(family[swap][2])), ("prop46",)),
            (family + [(1, family[first][1], outside)], ("prop43", "prop46")),
        ]
        if n == 5:  # both families are bases here, so nothing can be dropped
            planted += [
                # an M member dropped (made zero), and an F pair dropped with its member
                (replaced(family, first, m={}), ("prop43", "prop46")),
                (replaced(family, swap, m={}), ("prop46",)),
                (family[:first] + family[first + 1:], ("prop41", "prop44")),
                (family[:swap] + family[swap + 1:], ("prop44",)),
            ]
        for members, failing in planted:
            want = _section4_via_F(n, members)
            with monkeypatch.context() as patch:
                _plant(patch, members)
                got = check_section4_props(n)["results"]
            assert got == want, (n, failing)
            assert not any(value for key, value in got.items() if key.startswith(failing)), (n, failing)
    # the plant itself changes nothing
    with monkeypatch.context() as patch:
        _plant(patch, _honest_family(7))
        assert check_section4_props(7)["pass"]


def test_section4_props_make_no_f_expansion(monkeypatch):
    monkeypatch.setattr(qsym, "m_to_f", _refuse)
    monkeypatch.setattr(qsym, "f_sparse", _refuse)
    monkeypatch.setattr(qsym, "QSymElement", _refuse)
    for n in range(0, 10):
        assert check_section4_props(n)["pass"]


def test_section4_props_build_no_relation_graph(monkeypatch):
    # the F family's components come from its (C, C') pairs directly; only
    # the cached arrow12/arrow123/arrow3 graphs and monomial sets are read
    for n in (0, 5, 8):
        check_section4_props(n)  # warms the graph cache
        built = []
        real = RelationGraph.__init__
        with monkeypatch.context() as patch:
            patch.setattr(RelationGraph, "__init__", lambda self, *args: built.append(args) or real(self, *args))
            assert check_section4_props(n)["pass"]
        assert built == [], n


def test_section4_props_eliminate_nothing(monkeypatch):
    # Props 4.2/4.5 compare the spans of two signed graphs, Props 4.3/4.6
    # take a signed rank: no echelon is built and nothing is reduced
    assert not hasattr(kernel, "rank") and not hasattr(kernel, "spans_equal")
    for name in ("_echelon", "_remainder", "_row_basis"):
        monkeypatch.setattr(linalg, name, _refuse)
    spans = []
    real = monomial_span._signed_spans_equal
    monkeypatch.setattr(monomial_span, "_signed_spans_equal", lambda xs, ys: spans.append((xs, ys)) or real(xs, ys))
    for n in range(0, 9):
        spans.clear()
        assert check_section4_props(n)["pass"]
        # the M members of regions 1-3 against Pk's set, of 1-4 against pk's
        family = _honest_family(n)
        assert len(spans) == 2, n
        for (xs, ys), last, stat in zip(spans, (3, 4), (S.Pk, S.pk)):
            want = [m for r, _, m in family if r <= last]
            assert sorted(sorted(x.items()) for x in xs) == sorted(sorted(m.items()) for m in want), n
            assert ys == monomial_span_terms(stat, n), n


def _row_times_basis(row: SparseVector, a: int, b: int, k_mask: int) -> SparseVector:
    out: dict[int, Fraction] = {}
    for mask, coeff in row.entries.items():
        for prod_mask, mult in _f_basis_product(a, mask, b, k_mask):
            out[prod_mask] = out.get(prod_mask, Fraction(0)) + coeff * mult
    return SparseVector(a + b, out)


def _ideal_report_via_in_span(stat, total_degree: int, max_witnesses: int = 3) -> dict:
    """The elimination route: multiply every kernel basis row by every
    fundamental in Fractions and test membership with in_span."""
    ideal, violations = True, []
    for s in range(2, total_degree + 1):
        target = kernel_space(stat, s)
        for a in range(1, s):
            b = s - a
            for row in kernel_space(stat, a).basis.rows:
                for k_comp in compositions_of(b):
                    product = _row_times_basis(row, a, b, index_of(k_comp))
                    if in_span(product, target.basis):
                        continue
                    ideal = False
                    if len(violations) < max_witnesses:
                        violations.append(
                            {
                                "row_degree": a,
                                "factor": str(k_comp),
                                "row": {str(from_index(a, m)): str(v)
                                        for m, v in sorted(row.entries.items())},
                            }
                        )
    return {
        "stat": stat_name(stat),
        "total_degree": total_degree,
        "ideal": ideal,
        "violations": violations,
    }


def parts_mod_3(comp: Composition) -> int:
    return len(comp.parts) % 3


def first_part(comp: Composition) -> int:
    return comp.parts[0] if comp.parts else 0


def test_is_ideal_matches_in_span_route():
    for stat in StatisticId:
        for total in range(0, 8):
            expected = _ideal_report_via_in_span(stat, total)
            assert is_ideal_upto(stat, total) == expected, (stat, total)
    for stat in (max_part, parts_mod_3, first_part):
        for total in range(0, 8):
            for cap in (0, 1, 3, 10**6):
                expected = _ideal_report_via_in_span(stat, total, cap)
                assert is_ideal_upto(stat, total, cap) == expected, (stat, total, cap)
    # planted controls: two are not ideals, first_part is
    assert not is_ideal_upto(max_part, 7)["ideal"]
    assert not is_ideal_upto(parts_mod_3, 7)["ideal"]
    assert is_ideal_upto(first_part, 7)["ideal"]
    # the verdict does not depend on the witness cap
    assert not is_ideal_upto(max_part, 7, 0)["ideal"]
    assert not is_ideal_upto(parts_mod_3, 7, 0)["ideal"]
    assert is_ideal_upto(max_part, 7, 0)["violations"] == []


def test_ideal_check_and_shufflecheck_take_no_dp_product(monkeypatch):
    # both read projected products off the interleaving tables; the DP is
    # left to multiply_f, and the kernel holds no reference to it
    def refuse(*_):
        raise AssertionError("the product DP was called")

    assert not hasattr(kernel, "_f_basis_product") and not hasattr(kernel, "_f_product")
    for name in ("_f_basis_product", "_product_dp"):
        monkeypatch.setattr(qsym, name, refuse)
    for stat in (*StatisticId, max_part, parts_mod_3, first_part):
        is_ideal_upto(stat, 7)
        shuffle_compatibility_upto(stat, 7)


def test_verify_ideal_builds_each_table_once(monkeypatch, capsys):
    # one `verify ideal --deg 1..9` scans the 13 statistics together over the
    # bidegrees 1 <= a <= s - a of each total s <= 9, in order, and builds each of
    # their tables once; (1, 1) has one pair, its own reference, and needs no table
    keys = []
    tables = ideal._interleavings
    monkeypatch.setattr(ideal, "_interleavings", lambda a, b: keys.append((a, b)) or tables(a, b))
    assert cli.main(["verify", "ideal", "--deg", "1..9"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]
    assert keys == [(a, s - a) for s in range(3, 10) for a in range(1, s // 2 + 1)]
    assert len(keys) == len(set(keys)) == 19


def test_no_table_outlives_its_scan():
    # the tables are built for one bidegree of one scan; a scan to degree 16 once
    # left about 80 MB of them in a cache
    rows = []
    tables = ideal._interleavings

    def keeping(a, b):
        xs, ys = tables(a, b)
        rows.append(weakref.ref(xs[0]))
        return xs, ys

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideal, "_interleavings", keeping)
        assert shuffle_compatibility_upto(S.Pk, 9).compatible
    assert len(rows) == 19
    gc.collect()
    assert [row() for row in rows] == [None] * 19


def test_interleaving_tables_match_the_product_dp():
    # the shuffle along S of words with descent masks x and y descends at
    # xs[x][S] | ys[y][S]: the tables' masks are the DP's, with multiplicity
    rng = random.Random(25)
    sampled = [(s, rng.randrange(s + 1)) for s in (10, 11, 12) for _ in range(8)]
    for s, a in [(s, a) for s in range(10) for a in range(s + 1)] + sampled:
        xs, ys = ideal._interleavings(a, s - a)
        assert (len(xs), len(ys)) == (1 << max(a - 1, 0), 1 << max(s - a - 1, 0))
        assert {len(row) for row in (*xs, *ys)} == {math.comb(s, a)}
        pairs = itertools.product(range(len(xs)), range(len(ys)))
        for x, y in pairs if s < 10 else [(rng.randrange(len(xs)), rng.randrange(len(ys))) for _ in range(6)]:
            masks = Counter(map(or_, xs[x], ys[y]))
            assert masks == dict(_f_basis_product(a, x, s - a, y)), (a, x, s - a, y)
            if s <= 6:  # and the words themselves
                assert masks == multiply_f_via_shuffles(from_index(a, x), from_index(s - a, y)).coeffs


def _unpacked(value, offset, width):
    """Each class's nonzero count in a packed fingerprint whose field starts at bit
    `offset`, class 0 in its lowest slot of `width` bits."""
    value >>= offset
    slots = (value >> width * label & (1 << width) - 1 for label in range(-(-value.bit_length() // width)))
    return {label: count for label, count in enumerate(slots) if count}


def test_fingerprints_are_the_class_sums_of_the_dp():
    # a packed fingerprint holds its labeling's class counts in w-bit slots of its own
    # field, the packed labelings' fields side by side from bit 0, and no count carries
    # past its slot; a dict one, with no bit budget, counts the labels.  One class, a
    # class per composition, and Pk's classes, packed alone and together
    for s in range(2, 10):
        size = 1 << (s - 1)
        labelings = [[0] * size, list(range(size)), kernel_space(S.Pk, s).labels]
        for a in range(1, s):
            width, grid = math.comb(s, a).bit_length(), range(1 << (s - 2))  # p = x 2^(s-a-1) + y
            ends = list(itertools.accumulate((width * (max(labels) + 1) for labels in labelings), initial=0))
            shared = [list(map(fingerprint, grid)) for fingerprint in ideal._fingerprints(labelings, a, s - a)]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ideal, "_PACKED_FINGERPRINT_BITS", 0)
                counted = [list(map(fingerprint, grid)) for fingerprint in ideal._fingerprints(labelings, a, s - a)]
            for j, labels in enumerate(labelings):
                (alone,) = (list(map(fingerprint, grid)) for fingerprint in ideal._fingerprints([labels], a, s - a))
                for p, (x, y) in enumerate(itertools.product(range(1 << (a - 1)), range(1 << (s - a - 1)))):
                    want = kernel._class_sums(labels, _f_basis_product(a, x, s - a, y))
                    assert counted[j][p] == want, (labels[:4], a, x, y)
                    assert shared[j][p] >> ends[j + 1] == 0 and shared[j][p] & (1 << ends[j]) - 1 == 0
                    assert alone[p] >> ends[j + 1] - ends[j] == 0
                    assert _unpacked(alone[p], 0, width) == _unpacked(shared[j][p], ends[j], width) == want


def test_fingerprints_meet_the_des_and_maj_closed_forms():
    # des and maj labels, packed together and counted in dicts, on every pair of total
    # degree <= 10 and on seeded rows at a few bidegrees of each degree 11-14:
    # MacMahon's and Garsia-Gessel's distributions over the shuffles, which rest on none
    # of the tables' combinatorics
    rng = random.Random(14)
    bidegrees = {s: range(1, s) if s <= 10 else sorted({rng.randrange(1, s), rng.randrange(1, s), s // 2})
                 for s in range(2, 15)}
    bidegrees[14] = sorted({*bidegrees[14], 6, 7})
    for s, degrees in bidegrees.items():
        stats = ((int.bit_count, des_distribution), (maj, maj_distribution))
        labelings = [list(map(stat, range(1 << (s - 1)))) for stat, _ in stats]
        for a in degrees:
            sizes = 1 << a - 1, 1 << s - a - 1
            rows = [sorted(rng.sample(range(size), min(size, 4))) if s > 10 else range(size) for size in sizes]
            pairs = list(itertools.product(*rows))
            flat = [x * sizes[1] + y for x, y in pairs]
            width = math.comb(s, a).bit_length()
            packed = ideal._fingerprints(labelings, a, s - a)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ideal, "_PACKED_FINGERPRINT_BITS", 0)
                counted = ideal._fingerprints(labelings, a, s - a)
            offsets = [0, width * (max(labelings[0]) + 1)]  # des packed first, maj after it
            for offset, shared, dicts, (stat, closed_form) in zip(offsets, packed, counted, stats):
                for (x, y), value, classes in zip(pairs, map(shared, flat), map(dicts, flat), strict=True):
                    want = closed_form(a, x, s - a, y)
                    assert classes == want, (stat, a, x, y)
                    assert _unpacked(value, offset, width) == want, (stat, a, x, y)


def test_the_scan_counts_only_statistics_past_the_bit_budget(monkeypatch):
    # a sum costs the width of its ints: pk's classes are packed at every bidegree,
    # and Epk's 232 classes at degree 11 pass the budget in 9-bit slots, at (4, 7)
    # and (5, 6), so only there are they counted in dicts
    counted, real = [], ideal._counted

    def counting(labels, xs, ys):
        counted.append((max(labels) + 1, len(xs).bit_length(), len(ys).bit_length()))  # (classes, a, b)
        return real(labels, xs, ys)

    monkeypatch.setattr(ideal, "_counted", counting)
    assert ideal._first_mismatches([S.pk, S.Epk], 11) == [None, None]
    assert counted == [(232, 4, 7), (232, 5, 6)]
    assert 232 * math.comb(11, 3).bit_length() <= ideal._PACKED_FINGERPRINT_BITS < 232 * math.comb(11, 4).bit_length()


def test_the_dict_route_counts_each_compared_pair_and_each_reference_once(monkeypatch):
    # with no bit budget every product is a dict: one per compared pair, and one per
    # distinct reference however many pairs it serves, none kept per pair, and none for
    # a pair alone in its (class, class) group, which is its own reference
    monkeypatch.setattr(ideal, "_PACKED_FINGERPRINT_BITS", 0)
    tables = log_products(monkeypatch, ideal)
    assert shuffle_compatibility_upto(S.Pk, 8).compatible
    total = 0
    for (a, b), x_reads, y_reads in tables:
        left, right = kernel_space(S.Pk, a).labels, kernel_space(S.Pk, b).labels
        grid, firsts = list(itertools.product(range(len(left)), range(len(right)))), {}
        for x, y in grid:
            firsts.setdefault((left[x], right[y]), (x, y))
        compared = [(x, y) for x, y in grid if firsts[left[x], right[y]] != (x, y)]
        references = {firsts[left[x], right[y]] for x, y in compared}
        assert Counter(zip(x_reads, y_reads, strict=True)) == Counter(compared) + Counter(references), (a, b)
        total += len(x_reads)
    assert total == 421  # the pairs of groups of two or more, counted once each


def test_a_scan_with_no_pair_to_compare_builds_no_table(monkeypatch):
    # each pair of Des is alone in its class pair, and each class of Des is a
    # single composition, so neither check compares a product or builds a table
    monkeypatch.setattr(ideal, "_interleavings", _refuse)
    assert shuffle_compatibility_upto(S.Des, 8).compatible
    assert is_ideal_upto(S.Des, 8)["ideal"]


def test_is_ideal_refuses_a_negative_witness_cap():
    # a negative cap once sliced the last witness off a non-ideal report
    for cap in (-1, -3):
        with pytest.raises(ValueError, match="max_witnesses"):
            is_ideal_upto(max_part, 5, cap)


def test_is_ideal_refuses_a_non_int_witness_cap():
    # True once counted as a cap of 1, "2" raised a bare TypeError and 2.5
    # an islice message
    for cap in (True, False, "2", 2.5, 2.0, None):
        with pytest.raises(ValueError, match=f"max_witnesses must be an int, got {re.escape(repr(cap))}$"):
            is_ideal_upto(max_part, 5, cap)


def test_degrees_must_be_ints():
    for bad in (3.5, 2.0, True, False, "3", None):
        with pytest.raises(ValueError, match="degree must be an int"):
            kernel_space(S.Pk, bad)
        with pytest.raises(ValueError, match="degree must be an int"):
            check_spanning_F(S.Pk, bad, cli.RELATION_SETS["arrow12"])


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not be taken")


def test_is_ideal_never_eliminates(monkeypatch):
    # every elimination (reduce, rank, in_span, spans_equal, is_independent)
    # goes through this one loop
    monkeypatch.setattr(linalg, "_remainder", _refuse)
    assert is_ideal_upto(S.Pk, 7)["ideal"]
    assert not is_ideal_upto(max_part, 7)["ideal"]


def test_is_ideal_for_real_statistics():
    for stat in (S.Pk, S.val, S.maj):
        report = is_ideal_upto(stat, 6)
        assert report["ideal"], report


def test_is_ideal_rejects_broken_statistic():
    report = is_ideal_upto(max_part, 6)
    assert not report["ideal"]
    assert report["violations"]
    witness = report["violations"][0]
    assert witness["row_degree"] < 6


def test_symmetry_bridges():
    for n in range(0, 8):
        report = check_symmetry_bridges(n)
        assert report["pass"], report


def test_kernel_transport_matches_span_equality():
    # relabelling the classes against the elimination route: the four
    # bridges of the report, and two planted pairs that are not bridges
    pairs = [
        (S.Pk, S.Val, complement_mask, psi_vector, True),
        (S.pk, S.val, complement_mask, psi_vector, True),
        (S.Lpk, S.Rpk, reverse_mask, rho_vector, True),
        (S.lpk, S.rpk, reverse_mask, rho_vector, True),
        (S.Pk, S.val, complement_mask, psi_vector, False),
        (S.Lpk, S.Rpk, complement_mask, psi_vector, False),
    ]
    for src, dst, relabel, transform, bridge in pairs:
        verdicts = []
        for n in range(0, 10):
            image = [transform(row) for row in kernel_space(src, n).basis.rows]
            expected = spans_equal(image, kernel_space(dst, n).basis.rows, n)
            assert bridges._maps_onto(src, dst, relabel, n) == expected, (src, dst, n)
            verdicts.append(expected)
        assert all(verdicts) == bridge, (src, dst, verdicts)


# relation sets beyond THM1_SUITE, one relation or a pair short of a
# spanning set
MIXED_SUITE = [
    (S.Pk, {R.Arrow1}),
    (S.Pk, {R.Arrow2}),
    (S.pk, {R.Arrow3}),
    (S.pk, {R.Arrow1, R.Arrow2}),
    (S.Val, {R.ValArrow1}),
    (S.val, {R.ValArrow2, R.ValArrow3}),
]


def test_edge_checks_match_elimination_routes():
    # the component routes against span equality with the written-down
    # kernel rows and a separate independence test, on the suite behind
    # thm1a/thm1b and the mixed suite (spanning and non-spanning, forest
    # and non-forest cases)
    suite = [(stat, cli.RELATION_SETS[relname]) for stat, relname in cli.THM1_SUITE] + MIXED_SUITE
    verdicts = set()
    for stat, rels in suite:
        for n in range(0, 10):
            vectors = edge_vectors(relation_edges(rels, n))
            space = kernel_space(stat, n)
            spanning = spans_equal(vectors, space.basis.rows, n)
            assert check_spanning_F(stat, n, rels) == spanning, (stat, rels, n)
            basis = spanning and is_independent(vectors, n) and len(vectors) == space.dim
            assert check_basis_F(stat, n, rels) == basis, (stat, rels, n)
            verdicts.add((spanning, basis))
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_edge_rank_is_the_graphic_matroid_rank():
    # |V| - #components and the edge-count forest test against elimination,
    # on every named relation set
    for rels in cli.RELATION_SETS.values():
        for n in range(0, 11):
            graph = relation_edges(rels, n)
            vectors = edge_vectors(graph)
            assert graph.edge_rank == rank(vectors, n), (rels, n)
            assert kernel.is_forest(graph) == is_independent(vectors, n), (rels, n)


@pytest.mark.parametrize("edges, edge_rank, forest", [
    (((2, 2, "1"),), 0, False),                                 # a loop
    (((0, 1, "1"), (1, 0, "1")), 1, False),                     # an antiparallel pair
    (((0, 1, "1"), (0, 3, "1"), (2, 1, "3"), (1, 3, "2")), 3, False),  # a cycle
    (((0, 1, "1"), (0, 3, "1"), (2, 1, "3")), 3, True),         # a spanning tree
    (((0, 1, "1"), (2, 1, "3")), 2, True),                      # an edge dropped from it
], ids=["loop", "antiparallel", "cycle", "tree", "dropped-edge"])
def test_edge_rank_formula_on_planted_graphs(edges, edge_rank, forest):
    graph = RelationGraph(3, edges)
    vectors = edge_vectors(graph)
    assert graph.edge_rank == rank(vectors, 3) == edge_rank
    assert kernel.is_forest(graph) == is_independent(vectors, 3) == forest


def test_cached_graphs_give_the_uncached_verdicts(cold_graphs):
    # the uncached build is the oracle: the same graph, its components and
    # the rank of a freshly built edge_vectors list, and the same verdicts
    # whether the cache is cold or warm
    build = kernel._relation_edges.__wrapped__
    for stat, relname in cli.THM1_SUITE:
        rels = cli.RELATION_SETS[relname]
        for n in range(0, 10):
            cold_graphs()
            cold = check_spanning_F(stat, n, rels), check_basis_F(stat, n, rels)
            cold_graphs()
            cold_basis_first = check_basis_F(stat, n, rels)
            warm = check_spanning_F(stat, n, rels), check_basis_F(stat, n, rels)
            assert cold == warm and cold[1] == cold_basis_first, (stat, relname, n)

            graph, fresh = relation_edges(rels, n), build(rels, n)
            assert graph == fresh and graph is not fresh
            assert graph.components == kernel.connected_components(fresh)
            fresh_rank = rank(edge_vectors(fresh), n)
            assert graph.edge_rank == fresh_rank
            dim = kernel_space(stat, n).dim
            assert cold == (fresh_rank == dim, fresh_rank == dim == len(fresh.edges))


def test_relation_graphs_are_shared_per_relation_set(cold_graphs):
    rels = [R.Arrow1, R.Arrow2, R.CTilde]
    graph = relation_edges(rels, 6)
    for same in (set(rels), tuple(reversed(rels)), frozenset(rels), iter(rels), rels + rels):
        assert relation_edges(same, 6) is graph
    assert relation_edges(rels, 5) is not graph
    assert relation_edges(rels[:2], 6) is not graph


def test_cached_graphs_keep_the_degree_limit(cold_graphs):
    rels = {R.Arrow1, R.Arrow2}
    relation_edges(rels, 6)
    assert check_spanning_F(S.Pk, 6, rels)
    previous = config.set_max_degree(5)
    try:
        with pytest.raises(DegreeLimitError):
            relation_edges(rels, 6)
        with pytest.raises(DegreeLimitError):
            check_spanning_F(S.Pk, 6, rels)
    finally:
        config.set_max_degree(previous)
    assert relation_edges(rels, 6).n == 6


def test_relation_graph_cache_is_bounded(cold_graphs):
    requests = list(itertools.islice(
        ((pair, n) for n in range(0, 4) for pair in itertools.combinations(RelationId, 2)), 200
    ))
    for rels, n in requests:
        relation_edges(rels, n)
    info = kernel._relation_edges.cache_info()
    assert (info.misses, info.hits) == (200, 0)
    assert info.currsize <= 128


def test_kernel_space_cache_is_bounded():
    # planted statistics are fresh callables, so each one is a new key
    kernel._kernel_space.cache_clear()
    try:
        planted = [lambda comp, i=i: len(comp) % (i + 1) for i in range(300)]
        for stat in planted:
            kernel_space(stat, 3)
        info = kernel._kernel_space.cache_info()
        assert (info.misses, info.hits) == (300, 0)
        assert info.currsize <= 256
    finally:
        kernel._kernel_space.cache_clear()


def test_unknown_relations_are_refused(cold_graphs):
    # a bare string is iterated letter by letter, so its first letter is named
    for rels, named in ((["nonsense"], "'nonsense'"), ("arrow1", "'a'"), ({R.Arrow1, None}, "None")):
        for call in (
            lambda: relation_edges(rels, 4),
            lambda: check_spanning_F(S.Pk, 4, rels),
            lambda: check_basis_F(S.Pk, 4, rels),
        ):
            with pytest.raises(ValueError, match=f"got {re.escape(named)}$"):
                call()
    # refused before the cache is consulted
    info = kernel._relation_edges.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_check_basis_F_finds_the_components_once(monkeypatch, cold_graphs):
    calls = []
    real = kernel.connected_components
    monkeypatch.setattr(kernel, "connected_components", lambda graph: calls.append(graph) or real(graph))
    assert check_basis_F(S.Pk, 9, {R.PkBasisArrow})
    assert len(calls) == 1


def test_edge_and_monomial_checks_never_eliminate(monkeypatch, cold_graphs):
    # an edge check reads the components of the graph, a monomial check
    # the signed rank of its combinations; cold or warm, neither builds an
    # echelon, tests membership by elimination or reduces
    for name in ("_echelon", "_remainder", "_row_basis"):
        monkeypatch.setattr(linalg, name, _refuse)
    checks = [
        lambda n: check_spanning_F(S.pk, n, {R.Arrow1, R.Arrow2, R.Arrow3}),
        lambda n: check_spanning_F(S.pk, n, {R.Arrow1, R.Arrow2}),
        lambda n: check_basis_F(S.Pk, n, {R.PkBasisArrow}),
        lambda n: check_basis_F(S.Pk, n, {R.Arrow1, R.Arrow2}),
        lambda n: check_spanning_M(S.pk, n),
        lambda n: check_spanning_M(S.Epk, n),
    ]
    for check in checks:
        for n in range(0, 8):
            cold_graphs()
            for _ in ("cold", "warm"):
                check(n)


def test_thm1_ranks_each_relation_set_once(monkeypatch):
    ranked = []
    real_rank = linalg.rank  # `_thm1_rows` imports it when it runs
    monkeypatch.setattr(linalg, "rank", lambda vs, n=None: ranked.append(len(vs)) or real_rank(vs, n))
    relnames = {relname for _, relname in cli.THM1_SUITE}
    assert len(relnames) == len(cli.THM1_SUITE) - 1  # arrow12 serves Pk and pk
    for which in ("thm1a", "thm1b"):
        ranked.clear()
        rows = cli._thm1_rows(which, 6)
        assert [row["rels"] for row in rows] == [relname for _, relname in cli.THM1_SUITE]
        assert all(row["pass"] for row in rows)
        assert len(ranked) == len(relnames)


def test_edge_cross_checks_are_live(monkeypatch):
    # thm1a/thm1b compare the graph verdicts with elimination: a planted
    # wrong rank or flipped forest verdict in that route makes failing rows
    # that name the disagreement
    real_rank, real_forest = linalg.rank, cli.is_forest
    spanning = {(stat, relname) for stat, relname in cli.THM1_SUITE
                if check_spanning_F(stat, 5, cli.RELATION_SETS[relname])}
    assert (S.Pk, "arrow12") in spanning and (S.Pk, "arrow2") not in spanning

    monkeypatch.setattr(linalg, "rank", lambda vs, n=None: real_rank(vs, n) + 1)
    for which in ("thm1a", "thm1b"):
        rows = cli._thm1_rows(which, 5)
        failed = {(S(row["stat"]), row["rels"]) for row in rows
                  if not row["pass"] and "rank comparison" in row["witness"]}
        assert spanning <= failed
        row = next(row for row in rows if row["rels"] == "arrow12")
        assert row["witness"] == (
            "graph criterion (True) and rank comparison (False) disagree for Pk at degree 5"
        )

    monkeypatch.setattr(linalg, "rank", real_rank)
    monkeypatch.setattr(cli, "is_forest", lambda graph: not real_forest(graph))
    assert all(row["pass"] for row in cli._thm1_rows("thm1a", 5))
    rows = cli._thm1_rows("thm1b", 5)
    assert not any(row["pass"] for row in rows)
    assert all("forest criterion" in row["witness"] for row in rows)
    assert rows[0]["witness"] == (
        "forest criterion (True) and independence (False) disagree for Pk at degree 5"
    )
