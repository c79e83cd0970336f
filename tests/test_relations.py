from __future__ import annotations

import random

import pytest

import figure_data
from qsymk import cli, kernel
from qsymk.compositions import (
    Composition,
    complement,
    compositions_of,
    from_index,
    index_of,
    inversions,
)
from qsymk.errors import DegreeLimitError
from qsymk.kernel import (
    RelationGraph,
    RelationId,
    connected_components,
    ctilde_member,
    is_ctilde,
    is_forest,
    labeled_successors,
    relation_edges,
    successors,
)
from qsymk.qsym import QSymElement, psi
from qsymk.statistics import StatisticId, eval_on_composition

C = Composition
R = RelationId


def names(comps):
    return sorted(str(c) for c in comps)


def test_arrow1_successors():
    assert names(successors(R.Arrow1, C((3, 2, 4, 1)))) == ["(1,2,2,4,1)", "(3,2,1,3,1)"]
    # chain from the split-normalization argument
    assert C((1, 2, 2, 4, 1)) in successors(R.Arrow1, C((3, 2, 4, 1)))
    assert C((1, 2, 2, 1, 3, 1)) in successors(R.Arrow1, C((1, 2, 2, 4, 1)))
    assert successors(R.Arrow1, C((2, 2))) == set()


def test_arrow2_successors():
    assert successors(R.Arrow2, C((1, 2, 2))) == {C((1, 2, 1, 1))}
    assert successors(R.Arrow2, C((2,))) == {C((1, 1))}
    assert successors(R.Arrow2, C((2, 1))) == set()


def test_arrow3_successors():
    assert successors(R.Arrow3, C((1, 2, 2, 1, 1))) == {C((2, 1, 2, 1, 1))}
    assert successors(R.Arrow3, C((2, 2, 1))) == set()  # no 1 before a 2
    assert successors(R.Arrow3, C((1, 2))) == set()  # last part not 1
    assert successors(R.Arrow3, C((1, 3, 1))) == set()  # part exceeding 2
    assert successors(R.Arrow3, C((1, 2, 1))) == {C((2, 1, 1))}


def test_tri_successors():
    assert successors(R.Tri1, C((4,))) == {C((2, 2))}
    assert successors(R.Tri1, C((2, 3))) == {C((2, 2, 1))}
    assert successors(R.Tri2, C((2, 1, 2))) == {C((1, 1, 1, 2))}
    assert successors(R.Tri2, C((2,))) == set()  # needs an earlier part 2
    assert successors(R.Tri2, C((2, 2))) == {C((1, 1, 2))}


def test_pk_basis_successor_is_leftmost_split():
    assert successors(R.PkBasisArrow, C((3, 2))) == {C((1, 2, 2))}
    assert successors(R.PkBasisArrow, C((2, 2))) == {C((2, 1, 1))}
    assert successors(R.PkBasisArrow, C((2, 2, 1))) == set()
    assert successors(R.PkBasisArrow, C((1, 1, 1))) == set()


def test_pknum_basis_successor():
    assert successors(R.PkNumBasisArrow, C((3, 2))) == {C((1, 2, 2))}
    # no split available: leftmost (1,2) swap
    assert successors(R.PkNumBasisArrow, C((1, 2, 2, 1, 1))) == {C((2, 1, 2, 1, 1))}
    assert successors(R.PkNumBasisArrow, C((2, 2, 1))) == set()


def test_basis_relations_have_out_degree_at_most_one():
    for n in range(0, 11):
        for comp in compositions_of(n):
            assert len(successors(R.PkBasisArrow, comp)) <= 1
            assert len(successors(R.PkNumBasisArrow, comp)) <= 1


def test_val_successors():
    assert successors(R.ValArrow1, C((2, 1, 2))) == {C((3, 2))}
    assert successors(R.ValArrow2, C((1, 1, 2))) == {C((2, 2))}
    assert successors(R.ValArrow2, C((2, 1, 1))) == set()
    # unit moves right: first part may be exactly 2, later parts need > 2
    assert successors(R.ValArrow3, C((2, 2))) == {C((1, 3))}
    assert successors(R.ValArrow3, C((3, 2))) == {C((2, 3))}
    assert successors(R.ValArrow3, C((2, 2, 2))) == {C((1, 3, 2))}
    assert successors(R.ValArrow3, C((1, 2))) == set()
    assert successors(R.ValArrow3, C((2, 1, 2))) == set()  # interior part 1


def test_epk_relations_skip_the_first_part():
    assert successors(R.EpkArrow, C((4,))) == set()
    assert successors(R.EpkArrow, C((1, 3))) == {C((1, 1, 2))}
    assert successors(R.EpkTri, C((4,))) == set()
    assert successors(R.EpkTri, C((1, 4))) == {C((1, 2, 2))}
    assert successors(R.Arrow1, C((4,))) == {C((1, 3))}


def test_ctilde():
    assert is_ctilde(C((1, 1, 2)))
    assert is_ctilde(C((2,)))
    assert not is_ctilde(C((2, 1)))
    assert not is_ctilde(C(()))
    assert ctilde_member(5) == C((1, 1, 1, 2))
    assert ctilde_member(1) is None


def test_successors_rejects_unary_marker():
    with pytest.raises(ValueError):
        successors(R.CTilde, C((2,)))


def _edge_names(graph):
    return [(str(j), str(k), label) for j, k, label in _edge_comps(graph)]


def _edge_comps(graph):
    """The edges with their endpoints as compositions."""
    return [(from_index(graph.n, a), from_index(graph.n, b), label)
            for a, b, label in graph.edges]


def test_figure1_golden():
    for n, expected in figure_data.FIGURE1_EDGES.items():
        graph = relation_edges({R.Arrow1, R.Arrow2, R.Arrow3}, n)
        assert sorted(_edge_names(graph)) == sorted(expected), n


def test_figure2_golden():
    for n, expected in figure_data.FIGURE2_EDGES.items():
        graph = relation_edges({R.Tri1, R.Tri2, R.CTilde}, n)
        assert sorted(_edge_names(graph)) == sorted(expected), n
        assert [str(from_index(n, c)) for c in graph.marks] == figure_data.FIGURE2_CTILDE[n]


def test_relation_edges_trivial_degrees():
    for rels in ({R.Arrow1, R.Arrow2}, {R.Tri1, R.Tri2}):
        assert relation_edges(rels, 0).edges == ()
        assert relation_edges(rels, 1).edges == ()


def test_connected_components_counts():
    assert len(connected_components(relation_edges({R.Arrow1, R.Arrow2}, 4))) == 3
    assert len(connected_components(relation_edges({R.Arrow1, R.Arrow2, R.Arrow3}, 4))) == 2
    comps5 = connected_components(relation_edges({R.Arrow1, R.Arrow2}, 5))
    assert len(comps5) == 5
    assert (index_of(C((2, 2, 1))),) in comps5  # isolated vertex
    empty = relation_edges(set(), 4)
    assert all(len(block) == 1 for block in connected_components(empty))


def test_is_forest():
    # the split relations contain a four-edge cycle at degree 5
    assert not is_forest(relation_edges({R.Arrow1, R.Arrow2}, 5))
    for n in range(0, 10):
        assert is_forest(relation_edges({R.PkBasisArrow}, n))
        assert is_forest(relation_edges({R.PkNumBasisArrow}, n))
    assert is_forest(relation_edges(set(), 5))
    # antiparallel edges count as a cycle
    j, k = index_of(C((2,))), index_of(C((1, 1)))
    loop = RelationGraph(2, ((j, k, "x"), (k, j, "x")))
    assert not is_forest(loop)


def test_relation_graph_refuses_vertices_outside_its_degree():
    # at degree 3 the vertices are the indices 0..3
    for edges, marks in (
        (((0, -1, "1"),), ()),  # -1 used to index from the end, joining 0 and 3
        (((0, 4, "1"),), ()),
        (((0, 9, "1"),), ()),  # used to raise an untyped IndexError
        (((True, 2, "1"),), ()),  # True used to be taken as vertex 1
        (((0, 1.0, "1"),), ()),
        ((), (4,)),
        ((), (True,)),
        ((), ("0",)),
    ):
        with pytest.raises(ValueError, match=r"is not a composition index of 3, an int in \[0, 4\)"):
            RelationGraph(3, edges, marks)
    for n in (-1, 2.0, True):
        with pytest.raises(ValueError, match="degree must be"):
            RelationGraph(n, ())
    with pytest.raises(DegreeLimitError):
        RelationGraph(17, ())
    graph = RelationGraph(3, ((0, 3, "1"), (2, 2, "x")), (1,))
    assert graph.components == ((0, 3), (1,), (2,))


def test_labeled_successors_refuses_a_non_binary_relation():
    # a list used to raise an untyped TypeError
    for rel in (R.CTilde, "arrow1", None, [R.Arrow1]):
        with pytest.raises(ValueError, match="is not a binary relation"):
            labeled_successors(rel, C((2, 1)))


_SOUNDNESS_CASES = [
    ({R.Arrow1, R.Arrow2}, StatisticId.Pk),
    ({R.Arrow1, R.Arrow2, R.Arrow3}, StatisticId.pk),
    ({R.PkBasisArrow}, StatisticId.Pk),
    ({R.PkNumBasisArrow}, StatisticId.pk),
    ({R.ValArrow1, R.ValArrow2}, StatisticId.Val),
    ({R.ValArrow1, R.ValArrow2, R.ValArrow3}, StatisticId.val),
    ({R.EpkArrow}, StatisticId.Epk),
]


def test_relation_soundness_exhaustive():
    for rels, stat in _SOUNDNESS_CASES:
        for n in range(0, 11):
            for j, k, _ in _edge_comps(relation_edges(rels, n)):
                assert eval_on_composition(stat, j) == eval_on_composition(stat, k), (
                    rels, stat, str(j), str(k),
                )


def test_swap_relation_increments_inversions():
    for n in range(0, 10):
        for j in compositions_of(n):
            for k in successors(R.Arrow3, j):
                assert inversions(k) == inversions(j) + 1


def test_complement_carries_split_edges_to_merge_edges():
    # spot check on a long composition
    j, k = C((3, 2, 4, 1)), C((1, 2, 2, 4, 1))
    assert k in successors(R.Arrow1, j)
    jc, kc = complement(j), complement(k)
    assert kc in successors(R.ValArrow1, jc) | successors(R.ValArrow2, jc)
    # exhaustively at small degrees
    for n in range(0, 9):
        for j, k, _ in _edge_comps(relation_edges({R.Arrow1, R.Arrow2}, n)):
            jc, kc = complement(j), complement(k)
            assert kc in successors(R.ValArrow1, jc) | successors(R.ValArrow2, jc)
        for j, k, _ in _edge_comps(relation_edges({R.Arrow3}, n)):
            assert complement(k) in successors(R.ValArrow3, complement(j))


def test_labeled_successors_labels():
    assert labeled_successors(R.PkBasisArrow, C((2, 2))) == [(C((2, 1, 1)), "2")]
    assert labeled_successors(R.PkBasisArrow, C((3, 2))) == [(C((1, 2, 2)), "1")]
    assert labeled_successors(R.PkNumBasisArrow, C((1, 2, 1))) == [(C((2, 1, 1)), "3")]


# -- the moves against their statement on parts ------------------------------

def _split(parts, i, head):
    """Replace parts[i] by (head, parts[i] - head)."""
    return C(parts[:i] + (head, parts[i] - head) + parts[i + 1:])


def _swap(parts, i):
    return C(parts[:i] + (parts[i + 1], parts[i]) + parts[i + 2:])


def _labeled_successors_via_parts(rel, comp):
    """Oracle: each move written as surgery on the parts."""
    parts = comp.parts
    m = len(parts)
    out = []
    if rel is R.Arrow1:
        for i in range(m):
            if parts[i] > 2:
                out.append((_split(parts, i, 1), "1"))
    elif rel is R.Arrow2:
        if m >= 1 and parts[-1] == 2:
            out.append((C(parts[:-1] + (1, 1)), "2"))
    elif rel is R.Arrow3:
        if m >= 1 and parts[-1] == 1 and all(p <= 2 for p in parts):
            for i in range(m - 2):
                if parts[i] == 1 and parts[i + 1] == 2:
                    out.append((_swap(parts, i), "3"))
    elif rel is R.Tri1:
        for i in range(m):
            if parts[i] > 2:
                out.append((_split(parts, i, 2), "1"))
    elif rel is R.Tri2:
        if m >= 1 and parts[-1] == 2:
            for i in range(m - 1):
                if parts[i] == 2:
                    out.append((C(parts[:i] + (1, 1) + parts[i + 1:m - 1] + (2,)), "2"))
    elif rel in (R.PkBasisArrow, R.PkNumBasisArrow):
        # the least eligible part: the least part > 2, else a final part 2
        eligible = [i for i in range(m) if parts[i] > 2]
        if not eligible and m >= 1 and parts[-1] == 2:
            eligible = [m - 1]
        if eligible:
            i = eligible[0]
            label = "1" if parts[i] > 2 else "2"
            out.append((_split(parts, i, 1), label))
        elif rel is R.PkNumBasisArrow:
            for i in range(m - 1):
                if parts[i] == 1 and parts[i + 1] == 2:
                    out.append((_swap(parts, i), "3"))
                    break
    elif rel is R.ValArrow1:
        for i in range(m - 1):
            if parts[i] >= 2 and parts[i + 1] == 1:
                out.append((C(parts[:i] + (parts[i] + 1,) + parts[i + 2:]), "1"))
    elif rel is R.ValArrow2:
        if m >= 2 and parts[0] == 1 and parts[1] == 1:
            out.append((C((2,) + parts[2:]), "2"))
    elif rel is R.ValArrow3:
        if all(p >= 2 for p in parts[1:]):
            for i in range(m - 1):
                if parts[i] >= 2 and (i == 0 or parts[i] > 2):
                    out.append((C(parts[:i] + (parts[i] - 1, parts[i + 1] + 1) + parts[i + 2:]), "3"))
    elif rel is R.EpkArrow:
        for i in range(1, m):
            if parts[i] > 2:
                out.append((_split(parts, i, 1), "1"))
    elif rel is R.EpkTri:
        for i in range(1, m):
            if parts[i] > 2:
                out.append((_split(parts, i, 2), "1"))
    return out


_BINARY = [rel for rel in R if rel is not R.CTilde]


def test_moves_match_parts_oracle():
    assert len(_BINARY) == 12
    for n in range(0, 11):
        for comp in compositions_of(n):
            for rel in _BINARY:
                assert labeled_successors(rel, comp) == _labeled_successors_via_parts(rel, comp), (
                    rel, str(comp),
                )


def _oracle_edges(rels, n):
    labels = {}
    for a, comp in enumerate(compositions_of(n)):
        for rel in [r for r in R if r in rels]:
            for k, label in _labeled_successors_via_parts(rel, comp):
                labels.setdefault((a, index_of(k)), label)
    return tuple((a, b, labels[a, b]) for a, b in sorted(labels))


def test_relation_edges_match_parts_oracle():
    # the 12 singletons and 6 unions the CLI names, and every relation at
    # once; where several relations give a pair, the first label wins
    sets = [*cli.RELATION_SETS.values(), frozenset(R)]
    assert len(set(sets)) == 19 and all(frozenset({rel}) in sets for rel in _BINARY)
    for n in range(0, 10):
        member = ctilde_member(n)
        for rels in sets:
            graph = relation_edges(rels, n)
            assert graph.edges == _oracle_edges(rels, n), (n, rels)
            marked = R.CTilde in rels and member is not None
            assert graph.marks == ((index_of(member),) if marked else ()), (n, rels)
        assert relation_edges({R.CTilde}, n).marks == ((index_of(member),) if member is not None else ())


def test_moves_and_psi_build_no_composition(monkeypatch):
    # cold: no cached graph and no cached enumeration to lean on
    kernel._relation_edges.cache_clear()
    rng = random.Random(0)
    elem = QSymElement(9, "M", {mask: rng.choice((-2, -1, 1, 2)) for mask in rng.sample(range(256), 37)})
    assert len(elem.coeffs) == 37
    built = 0
    init = C.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(C, "__init__", counting)
    graph = relation_edges(set(R), 9)
    assert built == 0
    image = psi(elem)
    assert built == 0
    assert graph.edges and graph.marks and not image.is_zero()
