"""Rewrite relations on compositions, kernel subspaces, and their checks.

For a descent statistic st, the degree-n kernel K^st_n is the kernel of
the projection F_J -> [st-class of J]: a vector lies in it exactly when
its coefficients sum to zero on every class.  A sound set S of
equivalent pairs spans K^st_n exactly when the components of the graph
with edge set S are the classes, and its differences are independent
exactly when the graph is a forest (Theorem 1).  Neither fact depends
on st: one graph per (rels, n) is built once, kept in a bounded cache,
and carries its components, so the spanning and basis checks read only
the components and eliminate nothing.  The rank of the edge differences
is |V| - #components (the graphic matroid); `verify thm1a/thm1b` checks
both criteria against an elimination of `edge_vectors`.  M-combinations
span the kernel of a partition exactly when each has zero class sums and
their rank is its dimension: the monomial spanning sets and Section 4's
F-vs-M propositions (on their F-family graph's components) share this.

Relation graphs are keyed by composition index, the same vertex format
as the kernel classes: an edge is an (index, index, label) triple and a
component a tuple of indices.  The moves below are stated on parts, and
each changes the descent set by one or two positions, so `_moves`
computes them as bit operations on the index; a `Composition` is built
only where a public function takes or returns one, or to name a vertex
in an export or an error message.

Binary relation families (parts written 1-based; all preserve degree):

  arrow1   split some part j_l > 2 into (1, j_l - 1)
  arrow2   replace a final part 2 by (1, 1)
  arrow3   all parts <= 2 and last part 1: swap an adjacent (1, 2) pair
  tri1     split some part j_l > 2 into (2, j_l - 2)
  tri2     final part 2 and some earlier part j_l = 2: replace j_l by
           (1, 1), keeping the final 2
  val1     merge a part j_l >= 2 with a following part 1 into j_l + 1
  val2     replace a leading (1, 1) by 2
  val3     all parts after the first >= 2: move a unit from part j_l to
           part j_{l+1}, allowed at l = 1 when j_1 >= 2 and at l > 1
           only when j_l > 2
  epkarrow / epktri   the arrow1 / tri1 moves restricted to l >= 2
  pkbasis  the first arrow1 move (least l), else the arrow2 move
  pknumbasis  the pkbasis move, else the first arrow3 move

The unary marker ctilde holds the compositions (1, ..., 1, 2).
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

from .compositions import (
    Composition,
    Frozen,
    complement_mask,
    compositions_of,
    from_index,
    full_mask,
    index_of,
    mask_to_set,
    reverse_mask,
    set_to_mask,
)
from .config import check_degree
from .errors import RelationUnsoundError
from .linalg import RowBasis, SparseVector, rank, spans_equal
from .qsym import QSymElement, f_sparse, _f_basis_product
from .statistics import DescentStatistic, StatisticId, equivalence_classes, stat_name


class RelationId(enum.Enum):
    Arrow1 = "arrow1"
    Arrow2 = "arrow2"
    Arrow3 = "arrow3"
    Tri1 = "tri1"
    Tri2 = "tri2"
    CTilde = "ctilde"
    PkBasisArrow = "pkbasis"
    PkNumBasisArrow = "pknumbasis"
    ValArrow1 = "val1"
    ValArrow2 = "val2"
    ValArrow3 = "val3"
    EpkArrow = "epkarrow"
    EpkTri = "epktri"


# (first eligible part, letters split off) of the moves that split a part > 2
_SPLITS = {
    RelationId.Arrow1: (0, 1),
    RelationId.Tri1: (0, 2),
    RelationId.EpkArrow: (1, 1),
    RelationId.EpkTri: (1, 2),
}

# the trimmed relations: the first move of the first parent that has one
_FIRST_OF = {
    RelationId.PkBasisArrow: (RelationId.Arrow1, RelationId.Arrow2),
    RelationId.PkNumBasisArrow: (RelationId.Arrow1, RelationId.Arrow2, RelationId.Arrow3),
}


def _moves(rel: RelationId, mask: int, parts: tuple[int, ...]) -> list[tuple[int, str]]:
    """Successor indices of the composition with index `mask` and the given
    parts under one relation, with edge labels 1/2/3 naming the move.

    Part l starts after position cuts[l], so splitting it after h letters
    sets the bit of position cuts[l] + h (bit cuts[l] + h - 1); a merge
    clears the bit of a cut, and a swap or unit move shifts one cut by one
    position."""
    if rel in _FIRST_OF:
        for parent in _FIRST_OF[rel]:
            out = _moves(parent, mask, parts)
            if out:
                return out[:1]
        return []
    cuts = (0, *accumulate(parts))
    m = len(parts)
    if rel in _SPLITS:
        first, head = _SPLITS[rel]
        return [(mask | 1 << (cuts[l] + head - 1), "1") for l in range(first, m) if parts[l] > 2]
    out: list[tuple[int, str]] = []
    if rel is RelationId.Arrow2:
        if m >= 1 and parts[-1] == 2:
            out.append((mask | 1 << (cuts[m] - 2), "2"))
    elif rel is RelationId.Arrow3:
        if m >= 1 and parts[-1] == 1 and all(p <= 2 for p in parts):
            for i in range(m - 2):
                if parts[i] == 1 and parts[i + 1] == 2:
                    # (1, 2) -> (2, 1): the cut after part i moves one right
                    out.append((mask ^ 3 << (cuts[i + 1] - 1), "3"))
    elif rel is RelationId.Tri2:
        if m >= 1 and parts[-1] == 2:
            for i in range(m - 1):
                if parts[i] == 2:
                    out.append((mask | 1 << cuts[i], "2"))
    elif rel is RelationId.ValArrow1:
        for i in range(m - 1):
            if parts[i] >= 2 and parts[i + 1] == 1:
                out.append((mask & ~(1 << (cuts[i + 1] - 1)), "1"))
    elif rel is RelationId.ValArrow2:
        if m >= 2 and parts[0] == 1 and parts[1] == 1:
            out.append((mask & ~1, "2"))
    elif rel is RelationId.ValArrow3:
        if all(p >= 2 for p in parts[1:]):
            for i in range(m - 1):
                if parts[i] >= 2 and (i == 0 or parts[i] > 2):
                    # a unit from part i to part i + 1: the cut moves one left
                    out.append((mask ^ 3 << (cuts[i + 1] - 2), "3"))
    else:
        raise ValueError(f"{rel} is a unary marker, not a binary relation")
    return out


def labeled_successors(rel: RelationId, comp: Composition) -> list[tuple[Composition, str]]:
    """Successors of a composition under one relation, with edge labels
    1/2/3 naming the underlying move."""
    return [(from_index(comp.n, b), label) for b, label in _moves(rel, index_of(comp), comp.parts)]


def successors(rel: RelationId, comp: Composition) -> set[Composition]:
    """The set of compositions reachable from `comp` in one step."""
    return {k for k, _ in labeled_successors(rel, comp)}


def is_ctilde(comp: Composition) -> bool:
    """True for the compositions (1, ..., 1, 2), including (2) itself."""
    parts = comp.parts
    return len(parts) >= 1 and parts[-1] == 2 and all(p == 1 for p in parts[:-1])


def ctilde_member(n: int) -> Composition | None:
    """The unique ctilde composition of n, if any (needs n >= 2)."""
    if n < 2:
        return None
    return Composition((1,) * (n - 2) + (2,))


class RelationGraph(Frozen):
    """Directed graph on the compositions of n, each vertex its index in
    [0, 2^(n-1)): `edges` are (index, index, label) triples, `marks` the
    indices of ctilde-marked vertices."""

    __match_args__ = ("n", "edges", "marks")
    __slots__ = (*__match_args__, "__dict__")  # the dict holds the cached properties

    def __init__(self, n: int, edges: tuple[tuple[int, int, str], ...], marks: tuple[int, ...] = ()) -> None:
        self._init_fields(n, edges, marks)

    @property
    def vertices(self) -> range:
        return range(1 << max(self.n - 1, 0))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """`connected_components(self)`, found once per graph."""
        return connected_components(self)

    @property
    def edge_rank(self) -> int:
        """The rank of `edge_vectors(self)`: each component is spanned by a
        tree of its edges, so the rank is |V| - #components."""
        return len(self.vertices) - len(self.components)


_ORDERED_RELATIONS = list(RelationId)


def relation_edges(rels: Iterable[RelationId], n: int) -> RelationGraph:
    """All edges (J, K) with K a successor of J under some relation in
    `rels`, as index pairs in ascending order; a pair arising from several
    relations is kept once, with the label of the first relation in
    `RelationId` order.  CTilde contributes vertex marks instead of edges.
    The graph is shared, from a cache bounded at 128 graphs keyed by
    (frozenset(rels), n); a member of `rels` that is not a `RelationId`
    raises ValueError."""
    check_degree(n)
    rels = tuple(rels)
    for rel in rels:
        if not isinstance(rel, RelationId):
            raise ValueError(f"relations must be RelationId members, got {rel!r}")
    return _relation_edges(frozenset(rels), n)


@lru_cache(maxsize=128)
def _relation_edges(rels: frozenset[RelationId], n: int) -> RelationGraph:
    # (1, ..., 1, 2): every position but n - 1 is a descent
    marks = ((1 << (n - 2)) - 1,) if RelationId.CTilde in rels and n >= 2 else ()
    ordered = [r for r in _ORDERED_RELATIONS if r in rels and r is not RelationId.CTilde]
    labels: dict[tuple[int, int], str] = {}
    for a, comp in enumerate(compositions_of(n)):
        parts = comp.parts
        for rel in ordered:
            for b, label in _moves(rel, a, parts):
                labels.setdefault((a, b), label)
    return RelationGraph(n, tuple((a, b, labels[a, b]) for a, b in sorted(labels)), marks)


def connected_components(graph: RelationGraph) -> tuple[tuple[int, ...], ...]:
    """Partition of the composition indices of n by undirected
    reachability, in the form of `KernelSpace.classes`: members ascending,
    blocks ordered by least member."""
    parent = list(graph.vertices)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for a, b, _ in graph.edges:
        parent[find(b)] = find(a)
    blocks: dict[int, list[int]] = {}
    for c in graph.vertices:
        blocks.setdefault(find(c), []).append(c)
    return tuple(map(tuple, blocks.values()))


def is_forest(graph: RelationGraph) -> bool:
    """True iff the underlying undirected multigraph is acyclic, i.e. every
    edge joins two components: edges = vertices - components = edge rank.
    Loops and parallel or antiparallel pairs count as cycles."""
    return len(graph.edges) == graph.edge_rank


# -- kernel spaces -----------------------------------------------------------

class KernelSpace(Frozen):
    """K^st_n, the kernel of the projection F_a -> [st-class of a], held as
    its classes of composition indices (ascending, ordered by least member),
    exactly as `equivalence_classes` returns them.  Equal only to itself.
    The reduced echelon basis is written down, not eliminated for: one row
    F_c - F_top per non-top member c of each class, top its greatest index."""

    __match_args__ = ("stat", "n", "classes")
    __slots__ = (*__match_args__, "__dict__")  # the dict holds the cached properties
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, stat: DescentStatistic, n: int, classes: tuple[tuple[int, ...], ...]) -> None:
        self._init_fields(stat, n, classes)

    @property
    def dim(self) -> int:
        return (1 << max(self.n - 1, 0)) - len(self.classes)

    @cached_property
    def basis(self) -> RowBasis:
        rows = {c: {c: 1, block[-1]: -1} for block in self.classes for c in block[:-1]}
        pivots = sorted(rows)
        return RowBasis(self.n, [SparseVector(self.n, rows[c]) for c in pivots], pivots)

    @cached_property
    def labels(self) -> list[int]:
        """The class number of each composition index: the quotient map."""
        return _labels(self.classes)


def _labels(blocks: Sequence[Sequence[int]]) -> list[int]:
    """The quotient map of a partition of the indices: each index's block number."""
    labels = [0] * sum(map(len, blocks))
    for label, block in enumerate(blocks):
        for c in block:
            labels[c] = label
    return labels


def _class_sums(labels: Sequence[int], terms: Iterable[tuple[int, object]]) -> dict:
    """Project (index, coefficient) pairs through the labels into class sums."""
    sums: dict = {}
    for index, coeff in terms:
        label = labels[index]
        sums[label] = sums.get(label, 0) + coeff
    return sums


def kernel_space(stat: DescentStatistic, n: int) -> KernelSpace:
    """K^st_n as the st-classes of the compositions of n, from a cache of 256."""
    check_degree(n)
    return _kernel_space(stat, n)


@lru_cache(maxsize=256)
def _kernel_space(stat: DescentStatistic, n: int) -> KernelSpace:
    return KernelSpace(stat, n, equivalence_classes(stat, n))


def quotient_dimension(stat: DescentStatistic, n: int) -> int:
    """Number of equivalence classes = dim of the degree-n quotient."""
    return len(kernel_space(stat, n).classes)


def edge_vectors(graph: RelationGraph) -> list[SparseVector]:
    """The differences F_J - F_K along the edges (zero for a loop)."""
    return [SparseVector(graph.n, {a: 1, b: -1} if a != b else {}) for a, b, _ in graph.edges]


def _spanning_graph(stat: DescentStatistic, n: int, rels: Iterable[RelationId]):
    """(spans, graph): the relation graph, built once per call since `rels`
    may be a one-shot iterator, and whether its components are the
    st-classes.  An edge joining two st-classes is unsound and raises."""
    graph, space = relation_edges(rels, n), kernel_space(stat, n)
    for a, b, _ in graph.edges:
        if space.labels[a] != space.labels[b]:
            raise RelationUnsoundError(
                f"edge {from_index(n, a)} -> {from_index(n, b)} "
                f"joins non-{stat_name(stat)}-equivalent compositions"
            )
    return space.classes == graph.components, graph


def check_spanning_F(stat: DescentStatistic, n: int, rels: Iterable[RelationId]) -> bool:
    """Do the F-differences along the relation edges span K^st_n?  By
    Theorem 1, sound edges span it exactly when the components of the
    relation graph are the st-classes; nothing is eliminated."""
    return _spanning_graph(stat, n, rels)[0]


def check_basis_F(stat: DescentStatistic, n: int, rels: Iterable[RelationId]) -> bool:
    """Do the F-differences along the relation edges form a basis of
    K^st_n?  By Theorem 1, exactly when they span and the relation graph
    is a forest; a spanning forest has one edge per kernel dimension."""
    spanning, graph = _spanning_graph(stat, n, rels)
    return spanning and is_forest(graph)


# -- monomial spanning sets ---------------------------------------------------

def monomial_span_terms(stat: StatisticId, n: int) -> list[dict[int, int]]:
    """The M-basis combinations whose span is claimed to be K^st_n, as
    coefficient dicts keyed by M index.

    Pk:  M_J + M_K over tri1/tri2 edges, plus M over the ctilde member.
    pk:  the Pk set, plus M_J - M_K over arrow3 edges.
    Epk: M_J + M_K over epktri edges.
    """
    if stat is StatisticId.Epk:
        return [{a: 1, b: 1} for a, b, _ in relation_edges({RelationId.EpkTri}, n).edges]
    if stat not in (StatisticId.Pk, StatisticId.pk):
        raise ValueError(f"no monomial spanning set implemented for {stat_name(stat)}")
    graph = relation_edges({RelationId.Tri1, RelationId.Tri2, RelationId.CTilde}, n)
    terms = [{a: 1, b: 1} for a, b, _ in graph.edges] + [{c: 1} for c in graph.marks]
    if stat is StatisticId.pk:
        terms += [{a: 1, b: -1} for a, b, _ in relation_edges({RelationId.Arrow3}, n).edges]
    return terms


def monomial_span_vectors(stat: StatisticId, n: int) -> list[SparseVector]:
    """`monomial_span_terms` expressed in F coordinates."""
    return [f_sparse(QSymElement(n, "M", terms)) for terms in monomial_span_terms(stat, n)]


def _projected_m(labels: Sequence[int]) -> list[dict[int, int]]:
    """The class sums of M_C for every index C under the quotient map
    `labels`: m_to_f(M_C) is the sum over B containing C of
    (-1)^|B - C| F_B, so P(M_C) is the superset Moebius transform of the
    labels, one pass per position."""
    proj = [{label: 1} for label in labels]
    for bit in (1 << i for i in range(len(labels).bit_length() - 1)):
        for c, low in enumerate(proj):
            if not c & bit:
                for label, value in proj[c | bit].items():
                    rest = low.get(label, 0) - value
                    if rest:
                        low[label] = rest
                    else:
                        del low[label]
    return proj


def _m_spans_kernel(terms: list[dict[int, int]], blocks: Sequence[Sequence[int]], n: int) -> bool:
    """Do the M-combinations `terms` span the kernel of the projection onto
    a partition of the indices?  Exactly when every class sum of each
    vanishes and their rank is 2^(n-1) - #blocks, both read in M
    coordinates: a combination's class sums are those of its P(M_C), and
    m_to_f is invertible, so the rank is unchanged."""
    proj = _projected_m(_labels(blocks))
    for combination in terms:
        sums: dict[int, int] = {}
        for c, coeff in combination.items():
            for label, value in proj[c].items():
                sums[label] = sums.get(label, 0) + coeff * value
        if any(sums.values()):
            return False
    return rank([SparseVector(n, t) for t in terms], n) == (1 << max(n - 1, 0)) - len(blocks)


def check_spanning_M(stat: StatisticId, n: int) -> bool:
    """Do the combinations of `monomial_span_terms` span K^st_n, the kernel
    of the projection onto the st-classes?"""
    return _m_spans_kernel(monomial_span_terms(stat, n), kernel_space(stat, n).classes, n)


# -- the indexed families over subsets ---------------------------------------

OmegaRegion = tuple[tuple[frozenset[int], int], ...]


class OmegaSets(Frozen):
    """The four disjoint index regions inside 2^[n-1] x [n-1] together
    indexing the subset-level spanning families."""

    __slots__ = __match_args__ = ("n", "om1", "om2", "om3", "om4")

    def __init__(self, n: int, om1: OmegaRegion, om2: OmegaRegion, om3: OmegaRegion, om4: OmegaRegion) -> None:
        self._init_fields(n, om1, om2, om3, om4)

    def omega(self) -> list[tuple[int, frozenset[int], int]]:
        """Regions 1-3 flattened as (region, C, k), in region order."""
        return [(r, c, k) for r, om in enumerate((self.om1, self.om2, self.om3), 1) for c, k in om]


def _region(n: int, c_mask: int, k: int) -> int | None:
    """The region holding (C, k), for C inside [n-1] given by its mask and
    k in [n-1], or None; the regions are disjoint.  With C0 = C u {0}:

      1  C != [n-1]; k and k-1 outside C; k-2 in C0
      2  C inside [n-2], containing n-2, C != [n-2]; k outside C; k+1 in
         C; k-1 in C0
      3  C = [n-2] and k = n-1
      4  n-1 in C; k in C; k-1 in C0; k+1 outside C; k+2 in C; and every
         member j != n-1 of C0 has j+1 or j+2 in C
    """
    has = lambda j: 1 <= j <= n - 1 and c_mask >> (j - 1) & 1
    held = lambda j: j == 0 or has(j)  # j in C0
    top = full_mask(n) >> 1  # [n-2]
    if c_mask != full_mask(n) and not has(k) and not has(k - 1) and held(k - 2):
        return 1
    if not has(n - 1) and has(n - 2) and c_mask != top and not has(k) and has(k + 1) and held(k - 1):
        return 2
    if c_mask == top and k == n - 1:
        return 3
    if has(n - 1) and has(k) and held(k - 1) and not has(k + 1) and has(k + 2):
        if all(has(j + 1) or has(j + 2) for j in range(n - 1) if held(j)):
            return 4
    return None


def _omega(n: int) -> Iterator[tuple[int, int, int]]:
    """(region, C mask, k) for each (C, k) in a region, C by mask ascending, then k."""
    for c_mask in range(1 << max(n - 1, 0)):
        for k in range(1, n):
            region = _region(n, c_mask, k)
            if region is not None:
                yield region, c_mask, k


def omega_sets(n: int) -> OmegaSets:
    """The pairs (C, k) of each region, C by mask ascending, then k.

    >>> omega_sets(2).om3 == ((frozenset(), 1),)
    True
    """
    check_degree(n)
    regions: tuple[list, ...] = ([], [], [], [])
    for region, c_mask, k in _omega(n):
        regions[region - 1].append((mask_to_set(c_mask), k))
    return OmegaSets(n, *map(tuple, regions))


def _members(region: int, c_mask: int, k: int, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """(F terms, M terms) of the members indexed by (C, k) in the region:
    F_C - F_C' and M_C - M_C' with C' = C - {k} u {k+1} in region 4, else
    F_C - F_C' with C' = C u {k-1} (region 1) or C u {n-1} (regions 2, 3)
    and M_C + M_(C u {k}) (regions 1, 2) or M_C (region 3)."""
    if region == 4:
        swap = {c_mask: 1, c_mask & ~(1 << (k - 1)) | 1 << k: -1}
        return swap, dict(swap)
    other = c_mask | 1 << (k - 2 if region == 1 else n - 2)
    m_terms = {c_mask: 1} if region == 3 else {c_mask: 1, c_mask | 1 << (k - 1): 1}
    return {c_mask: 1, other: -1}, m_terms


def _member_mask(region: int, c: frozenset[int], k: int, n: int) -> int:
    """The mask of C, once (C, k) is known to lie in the given region."""
    check_degree(n)
    if region not in (1, 2, 3, 4):
        raise ValueError(f"region must be 1..4, got {region}")
    # positions first: set_to_mask takes only ints (no bools), and no 0
    inside = all(type(j) is int and 1 <= j <= n - 1 for j in (*c, k))
    if not (inside and _region(n, set_to_mask(c), k) == region):
        raise ValueError(f"({set(c)}, {k}) is not in region {region} at degree {n}")
    return set_to_mask(c)


def f_family(region: int, c: frozenset[int], k: int, n: int) -> QSymElement:
    """The F-side family member indexed by (C, k) in the given region."""
    return QSymElement(n, "F", _members(region, _member_mask(region, c, k, n), k, n)[0])


def m_family(region: int, c: frozenset[int], k: int, n: int) -> QSymElement:
    """The M-side family member indexed by (C, k) in the given region."""
    return QSymElement(n, "M", _members(region, _member_mask(region, c, k, n), k, n)[1])


def check_section4_props(n: int) -> dict:
    """Verify the six span equalities linking the subset-indexed families
    to the relation spanning sets, and the region-4 characterization of
    the arrow3 edges, on index masks: regions 1-3 against Pk's sets
    (Props 4.1-4.3), all four against pk's (Props 4.4-4.6).  The F side
    compares components of graphs, the M side spans by elimination in M
    coordinates, and F-vs-M is the monomial criterion on the F-family
    graph's components."""
    check_degree(n)
    family = [(region, *_members(region, c_mask, k, n)) for region, c_mask, k in _omega(n)]
    results = {}
    for last, rels, stat, (f_key, m_key, fm_key) in (
        (3, (RelationId.Arrow1, RelationId.Arrow2), StatisticId.Pk,
         ("prop41_f_family_spans_FPk", "prop42_m_family_spans_MPk", "prop43_f_equals_m_on_omega")),
        (4, (RelationId.Arrow1, RelationId.Arrow2, RelationId.Arrow3), StatisticId.pk,
         ("prop44_f_family_spans_Fpk", "prop45_m_family_spans_Mpk", "prop46_f_equals_m_on_theta")),
    ):
        members = [(f, m) for region, f, m in family if region <= last]
        blocks = connected_components(RelationGraph(n, tuple((*f, "") for f, _ in members)))
        spanning = [SparseVector(n, t) for t in monomial_span_terms(stat, n)]
        results[f_key] = blocks == relation_edges(rels, n).components
        results[m_key] = spans_equal([SparseVector(n, m) for _, m in members], spanning, n)
        results[fm_key] = _m_spans_kernel([m for _, m in members], blocks, n)
    arrow3 = {(a, b) for a, b, _ in relation_edges({RelationId.Arrow3}, n).edges}
    results["lemma_om4_matches_arrow3"] = arrow3 == {tuple(f) for region, f, _ in family if region == 4}
    return {"degree": n, "pass": all(results.values()), "results": results}


# -- ideal property -----------------------------------------------------------

def is_ideal_upto(stat: DescentStatistic, total_degree: int, max_witnesses: int = 3) -> dict:
    """Check that products of kernel basis rows with fundamental basis
    elements stay inside the kernel, for all bidegrees (a, b) with
    a + b <= total_degree.  A vector lies in K^st_s exactly when its
    coefficients sum to zero on every st-class, so (F_c - F_top) F_b lies
    in the kernel exactly when F_c F_b and F_top F_b project to the same
    class counts; the check compares those integer counts and never
    eliminates.  Rows go in pivot order, factors in index order; at most
    `max_witnesses` violations are listed, and projecting stops once the
    verdict is known and the list is full."""
    check_degree(total_degree)
    if isinstance(max_witnesses, bool) or not isinstance(max_witnesses, int):
        raise ValueError(f"max_witnesses must be an int, got {max_witnesses!r}")
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be nonnegative, got {max_witnesses}")
    found = list(islice(_ideal_violations(stat, total_degree), max(max_witnesses, 1)))
    return {
        "stat": stat_name(stat),
        "total_degree": total_degree,
        "ideal": not found,
        "violations": found[:max_witnesses],
    }


def _ideal_violations(stat: DescentStatistic, total_degree: int) -> Iterator[dict]:
    """`is_ideal_upto`'s violations in order; a class top is projected once per factor."""
    for s in range(2, total_degree + 1):
        labels = kernel_space(stat, s).labels
        for a in range(1, s):
            b = s - a
            tops = {c: block[-1] for block in kernel_space(stat, a).classes for c in block[:-1]}
            top_sums: dict[tuple[int, int], dict] = {}
            for c, top in sorted(tops.items()):
                for k_mask in range(1 << (b - 1)):
                    want = top_sums.get((top, k_mask))
                    if want is None:
                        want = top_sums[top, k_mask] = _class_sums(labels, _f_basis_product(a, top, b, k_mask))
                    if _class_sums(labels, _f_basis_product(a, c, b, k_mask)) != want:
                        row = {str(from_index(a, c)): "1", str(from_index(a, top)): "-1"}
                        yield {"row_degree": a, "factor": str(from_index(b, k_mask)), "row": row}


# -- symmetry bridges ----------------------------------------------------------

def _maps_onto(src: DescentStatistic, dst: DescentStatistic, relabel, n: int) -> bool:
    """Does the F-index relabelling carry K^src_n onto K^dst_n?  It permutes
    F coordinates, so it carries the kernel of the src-classes onto the
    kernel of the relabelled classes, and two class partitions have the
    same kernel exactly when they are equal."""
    image = {frozenset(relabel(n, m) for m in block) for block in kernel_space(src, n).classes}
    return image == set(map(frozenset, kernel_space(dst, n).classes))


def check_symmetry_bridges(n: int) -> dict:
    """Verify the complement/reverse symmetries at degree n:

    1. the complement of every arrow1/arrow2 edge is a val1 or val2
       edge, and the complement of every arrow3 edge is a val3 edge;
    2. the epk and val kernels coincide: the two have the same classes;
    3. psi carries K^Pk_n onto K^Val_n and K^pk_n onto K^val_n;
    4. rho carries K^Lpk_n onto K^Rpk_n and K^lpk_n onto K^rpk_n.
    """
    check_degree(n)

    def complements_into(src: set[RelationId], dst: set[RelationId]) -> bool:
        pairs = {(a, b) for a, b, _ in relation_edges(dst, n).edges}
        return all(
            (complement_mask(n, a), complement_mask(n, b)) in pairs
            for a, b, _ in relation_edges(src, n).edges
        )

    val12 = {RelationId.ValArrow1, RelationId.ValArrow2}
    pk_edges_ok = complements_into({RelationId.Arrow1, RelationId.Arrow2}, val12)
    swap_edges_ok = complements_into({RelationId.Arrow3}, val12 | {RelationId.ValArrow3})

    epk, val = kernel_space(StatisticId.epk, n), kernel_space(StatisticId.val, n)
    epk_equals_val = epk.classes == val.classes

    results = {
        "complement_of_pk_edges": pk_edges_ok,
        "complement_of_swap_edges": swap_edges_ok,
        "epk_kernel_equals_val_kernel": epk_equals_val,
        "psi_Pk_onto_Val": _maps_onto(StatisticId.Pk, StatisticId.Val, complement_mask, n),
        "psi_pk_onto_val": _maps_onto(StatisticId.pk, StatisticId.val, complement_mask, n),
        "rho_Lpk_onto_Rpk": _maps_onto(StatisticId.Lpk, StatisticId.Rpk, reverse_mask, n),
        "rho_lpk_onto_rpk": _maps_onto(StatisticId.lpk, StatisticId.rpk, reverse_mask, n),
    }
    return {"degree": n, "pass": all(results.values()), "results": results}


# -- graph export --------------------------------------------------------------

def _names(graph: RelationGraph) -> list[str]:
    """Composition text of each vertex, by index."""
    return [str(comp) for comp in compositions_of(graph.n)]


def graphs_to_dot(graphs: Sequence[RelationGraph]) -> str:
    """DOT export: vertices labeled with composition text, edges labeled
    1/2/3, ctilde-marked vertices drawn with doubled borders."""
    lines = ["digraph relations {"]
    for graph in graphs:
        names, marked = _names(graph), set(graph.marks)
        for c, name in enumerate(names):
            attr = " [peripheries=2]" if c in marked else ""
            lines.append(f'  "{name}"{attr};')
        for a, b, label in graph.edges:
            lines.append(f'  "{names[a]}" -> "{names[b]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphs_to_json_dict(graphs: Sequence[RelationGraph]) -> dict:
    named = [(g, _names(g)) for g in graphs]
    return {
        "degrees": [g.n for g in graphs],
        "vertices": [name for _, names in named for name in names],
        "ctilde": [names[c] for g, names in named for c in g.marks],
        "edges": [
            {"from": names[a], "to": names[b], "label": label}
            for g, names in named
            for a, b, label in g.edges
        ],
    }


def graphs_to_csv(graphs: Sequence[RelationGraph]) -> str:
    # composition text contains commas, so those fields are quoted
    lines = ["from,to,label"]
    for g in graphs:
        names = _names(g)
        lines += [f'"{names[a]}","{names[b]}",{label}' for a, b, label in g.edges]
    return "\n".join(lines) + "\n"
