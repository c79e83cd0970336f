"""Acceptance suite: every criterion is exact (rational arithmetic,
tolerance zero) and prints one PASS/FAIL line.  Degree bounds and the
stated runtime limits are pinned here."""

from __future__ import annotations

import time

from qsymk.compositions import compositions_of, from_index, index_of, mask_to_set
from qsymk.kernel import (
    RelationId,
    check_section4_props,
    check_spanning_M,
    connected_components,
    edge_vectors,
    is_forest,
    is_ideal_upto,
    kernel_space,
    quotient_dimension,
    relation_edges,
)
from qsymk.linalg import is_independent, spans_equal
from qsymk.qsym import (
    QSymElement,
    ehrenborg_psi_m,
    f_to_m,
    fundamental,
    lemma22b_combination,
    lemma22c_combination,
    m_to_f,
    monomial,
    multiply_f,
    psi,
    rho,
)
from qsymk.statistics import (
    Permutation,
    StatisticId,
    check_shuffle_compatible,
    equivalence_classes,
)

import figure_data
from conftest import psi_vector, rho_vector

S = StatisticId
R = RelationId


def _report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _partition_key(blocks):
    return frozenset(frozenset(index_of(c) for c in block) for block in blocks)


def _edge_names(graph):
    return sorted((str(from_index(graph.n, a)), str(from_index(graph.n, b)), label)
                  for a, b, label in graph.edges)


def test_criterion_01_dimension_law():
    start = time.monotonic()
    ok = True
    for n in range(1, 13):
        ok = ok and len(compositions_of(n)) == 2 ** (n - 1)
        for stat in StatisticId:
            total = kernel_space(stat, n).dim + quotient_dimension(stat, n)
            ok = ok and total == 2 ** (n - 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(1, f"dimension law n<=12 in {elapsed:.1f}s", ok)


def test_criterion_02_fundamental_spanning():
    start = time.monotonic()
    ok = True
    cases = [
        (S.Pk, {R.Arrow1, R.Arrow2}),
        (S.pk, {R.Arrow1, R.Arrow2, R.Arrow3}),
    ]
    for stat, rels in cases:
        for n in range(0, 11):
            graph = relation_edges(rels, n)
            components = [[from_index(n, c) for c in block] for block in connected_components(graph)]
            graph_verdict = _partition_key(components) == _partition_key(
                [from_index(n, c) for c in block] for block in equivalence_classes(stat, n)
            )
            rank_verdict = spans_equal(
                edge_vectors(graph), kernel_space(stat, n).basis.rows, n
            )
            ok = ok and graph_verdict and rank_verdict and (graph_verdict == rank_verdict)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(2, f"fundamental spanning sets n<=10 in {elapsed:.1f}s", ok)


def test_criterion_03_bases():
    ok = True
    for stat, rel in ((S.Pk, R.PkBasisArrow), (S.pk, R.PkNumBasisArrow)):
        for n in range(0, 11):
            graph = relation_edges({rel}, n)
            vectors = edge_vectors(graph)
            dim = kernel_space(stat, n).dim
            ok = ok and is_forest(graph)
            ok = ok and is_independent(vectors, n)
            ok = ok and spans_equal(vectors, kernel_space(stat, n).basis.rows, n)
            ok = ok and len(graph.edges) == dim
    ok = ok and kernel_space(S.Pk, 4).dim == 5
    ok = ok and kernel_space(S.Pk, 5).dim == 11
    _report(3, "trimmed edge sets are bases n<=10", ok)


def test_criterion_04_monomial_characterizations():
    ok = True
    for n in range(0, 11):
        ok = ok and check_spanning_M(S.Pk, n)
        ok = ok and check_spanning_M(S.pk, n)
        # both characterizations of the exterior-peak kernel
        graph = relation_edges({R.EpkArrow}, n)
        ok = ok and spans_equal(edge_vectors(graph), kernel_space(S.Epk, n).basis.rows, n)
        ok = ok and check_spanning_M(S.Epk, n)
    _report(4, "monomial two-term spanning sets n<=10", ok)


def test_criterion_05_valley_kernels():
    ok = True
    for n in range(0, 11):
        val_graph = relation_edges({R.ValArrow1, R.ValArrow2, R.ValArrow3}, n)
        Val_graph = relation_edges({R.ValArrow1, R.ValArrow2}, n)
        ok = ok and spans_equal(
            edge_vectors(Val_graph), kernel_space(S.Val, n).basis.rows, n
        )
        ok = ok and spans_equal(
            edge_vectors(val_graph), kernel_space(S.val, n).basis.rows, n
        )
        ok = ok and list(kernel_space(S.epk, n).basis.rows) == list(
            kernel_space(S.val, n).basis.rows
        )
    _report(5, "valley spanning sets and epk=val kernel n<=10", ok)


def test_criterion_06_subset_indexed_families():
    ok = True
    for n in range(0, 10):
        report = check_section4_props(n)
        ok = ok and report["pass"]
    _report(6, "subset-indexed family span equalities n<=9", ok)


def test_criterion_07_basis_change_identities():
    ok = True
    for n in range(0, 9):
        size = 1 << max(n - 1, 0)
        for mask in range(size):
            c_set = mask_to_set(mask)
            for k in range(1, n):
                if (mask >> (k - 1)) & 1:
                    continue
                pair = m_to_f(QSymElement(n, "M", {mask: 1, mask | (1 << (k - 1)): 1}))
                ok = ok and lemma22b_combination(n, c_set, k) == pair
                if k >= 2 and not (mask >> (k - 2)) & 1:
                    ok = ok and lemma22c_combination(n, c_set, k) == pair
    for n in range(0, 11):
        for comp in compositions_of(n):
            ok = ok and m_to_f(f_to_m(fundamental(comp))) == fundamental(comp)
            ok = ok and f_to_m(m_to_f(monomial(comp))) == monomial(comp)
    _report(7, "pairing identities n<=8 and round trip n<=10", ok)


def test_criterion_08_ideal_property():
    start = time.monotonic()
    ok = True
    for stat in StatisticId:
        report = is_ideal_upto(stat, 8)
        ok = ok and report["ideal"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _report(8, f"kernels are ideals, 13 statistics, total degree<=8 in {elapsed:.1f}s", ok)


def test_criterion_09_shuffle_compatibility_oracle():
    ok = True
    for stat in S:
        report = check_shuffle_compatible(stat, 8)
        ok = ok and report.compatible

    def first_letter(p: Permutation):
        return p.letters[0] if p.letters else 0

    first_letter.__name__ = "first_letter"
    control = check_shuffle_compatible(first_letter, 6)
    ok = ok and not control.compatible and control.witness is not None
    _report(9, "shuffle compatibility of 13 statistics, planted control fails", ok)


def test_criterion_10_involutions():
    ok = True
    for n in range(0, 11):
        for comp in compositions_of(n):
            f = fundamental(comp)
            m = monomial(comp)
            ok = ok and psi(psi(f)) == f and rho(rho(f)) == f
            ok = ok and psi(psi(m)) == m and rho(rho(m)) == m
    pool = [comp for a in range(0, 7) for comp in compositions_of(a)]
    for left in pool:
        for right in pool:
            if left.n + right.n > 7:
                continue
            a, b = fundamental(left), fundamental(right)
            product = multiply_f(a, b)
            ok = ok and psi(product) == multiply_f(psi(a), psi(b))
            ok = ok and rho(product) == multiply_f(rho(a), rho(b))
    for n in range(0, 9):
        for comp in compositions_of(n):
            ok = ok and ehrenborg_psi_m(comp) == f_to_m(psi(m_to_f(monomial(comp))))
    for n in range(0, 10):
        ok = ok and spans_equal(
            [psi_vector(row) for row in kernel_space(S.Pk, n).basis.rows],
            kernel_space(S.Val, n).basis.rows,
            n,
        )
        ok = ok and spans_equal(
            [rho_vector(row) for row in kernel_space(S.Lpk, n).basis.rows],
            kernel_space(S.Rpk, n).basis.rows,
            n,
        )
    _report(10, "involutions: period two, algebra maps, kernel transport", ok)


def test_criterion_11_figure_fidelity():
    ok = True
    for n in range(0, 6):
        split_graph = relation_edges({R.Arrow1, R.Arrow2, R.Arrow3}, n)
        got = _edge_names(split_graph)
        ok = ok and got == sorted(figure_data.FIGURE1_EDGES[n])
        tri_graph = relation_edges({R.Tri1, R.Tri2, R.CTilde}, n)
        got2 = _edge_names(tri_graph)
        ok = ok and got2 == sorted(figure_data.FIGURE2_EDGES[n])
        ok = ok and [str(from_index(n, c)) for c in tri_graph.marks] == figure_data.FIGURE2_CTILDE[n]
    _report(11, "relation graphs match the reference diagrams n<=5", ok)
