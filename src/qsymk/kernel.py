"""Rewrite relations on compositions, kernel subspaces, and the F checks.

For a descent statistic st, the degree-n kernel K^st_n is the kernel of
the projection F_J -> [st-class of J]: a vector lies in it exactly when
its coefficients sum to zero on every class.  A sound set S of
equivalent pairs spans K^st_n exactly when the components of the graph
with edge set S are the classes, and its differences are independent
exactly when the graph is a forest (Theorem 1).  Neither fact depends
on st: one graph per (rels, n) is built once, kept in a bounded cache,
and carries its components, so the spanning and basis checks eliminate
nothing; `verify thm1a/thm1b` checks both against `edge_vectors`.  One
union-find finds the components of every graph, relation graph here or
signed-graph cover in `monomial_span`, and blocks take the class format
of `equivalence_classes`.  `linalg` is the oracle.

The other checks live in modules of their own, so a cold job compiles
only the one it runs: `monomial_span` (the monomial spanning sets and
Section 4), `ideal` (the ideal property and shuffle-compatibility) and `bridges`
(the symmetry bridges and graph export).  Their public names stay
reachable here, each module imported on first use (PEP 562).

Relation graphs are keyed by composition index, the same vertex format
as the kernel classes: an edge is an (index, index, label) triple and a
component a tuple of indices.  The moves below are stated on parts, and
each changes the descent set by one or two positions, so each is a bit
formula on the descent mask (`_RULES`), looked up once per graph build;
a `Composition` is built only where a public function takes or returns
one, or to name a vertex in an export or an error message.

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
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import _forward
from .compositions import Composition, Frozen, from_index, full_mask, index_of
from .config import check_degree
from .errors import RelationUnsoundError
from .statistics import DescentStatistic, _blocks, _check_statistic, equivalence_classes, stat_name

__getattr__ = _forward(globals(), {
    "monomial_span": "OmegaRegion OmegaSets check_section4_props check_spanning_M f_family m_family "
                     "monomial_span_terms monomial_span_vectors omega_sets".split(),
    "ideal": "ideal_reports is_ideal_upto shuffle_compatibility_upto".split(),
    "bridges": "check_symmetry_bridges graphs_to_csv graphs_to_dot graphs_to_json_dict".split(),
})


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


def _lows(x: int) -> Iterator[int]:
    """The set bits of x as powers of two, ascending."""
    while x:
        low = x & -x
        yield low
        x ^= low


# Each move is a bit formula on the descent mask d of a composition of n,
# given full = full_mask(n) and top = full ^ full >> 1 (position n - 1).
# Bit q of starts = d << 1 | 1 says a part starts after q (q is 0 or a
# cut), of free = ~d & full that q + 1 is no cut, of ends = d >> 1 | top
# that q + 2 is a cut or n.  So parts of more than 2 letters start after
# the bits of starts & free & free >> 1, parts of 2 after starts & free &
# ends, and a part of 1 follows the cut q + 1 at a bit of d & ends.  A rule
# maps (d, full, top) to the successors and labels, ordered by part.

def _long_parts(d: int, full: int) -> int:
    free = ~d & full
    return (d << 1 | 1) & free & free >> 1


def _split(head: int, allowed: int):
    """Split each part of more than 2 letters starting at a bit of `allowed` after `head` letters."""
    return lambda d, full, top: [(d | low << head - 1, "1") for low in _lows(_long_parts(d, full) & allowed)]


def _arrow2(d: int, full: int, top: int) -> list[tuple[int, str]]:
    return [(d | top, "2")] if (d << 1 | 1) & ~d & top else []


def _arrow3(d: int, full: int, top: int) -> list[tuple[int, str]]:
    # all parts <= 2 and the last 1: a part 1 after q and a part 2 after
    # q + 1 swap, moving the cut q + 1 to q + 2
    if _long_parts(d, full) or not d & top:
        return []
    return [(d ^ low * 3, "3") for low in _lows((d << 1 | 1) & d & (~d & full) >> 1)]


def _tri2(d: int, full: int, top: int) -> list[tuple[int, str]]:
    twos = (d << 1 | 1) & ~d & full & (d >> 1 | top)
    return [(d | low, "2") for low in _lows(twos ^ top)] if twos & top else []


def _val3(d: int, full: int, top: int) -> list[tuple[int, str]]:
    # no part 1 after the first: a cut c > 1 with no cut at c - 1 or c - 2
    # moves to c - 1
    if d & (d >> 1 | top):
        return []
    return [(d ^ (low | low >> 1), "3") for low in _lows(d & ~(d << 1 | 1) & ~(d << 2))]


def _first_of(*parents):
    """A trimmed relation: the first move of the first parent that has one."""
    return lambda d, full, top: next(filter(None, (parent(d, full, top) for parent in parents)), [])[:1]


_arrow1 = _split(1, -1)

# in RelationId order, which picks the label of a pair that two relations give
_RULES = {
    RelationId.Arrow1: _arrow1,
    RelationId.Arrow2: _arrow2,
    RelationId.Arrow3: _arrow3,
    RelationId.Tri1: _split(2, -1),
    RelationId.Tri2: _tri2,
    RelationId.PkBasisArrow: _first_of(_arrow1, _arrow2),
    RelationId.PkNumBasisArrow: _first_of(_arrow1, _arrow2, _arrow3),
    # a cut with 2 or more letters before it and 1 after it is cleared
    RelationId.ValArrow1: lambda d, full, top: [(d ^ low, "1") for low in _lows(d & ~(d << 1 | 1) & (d >> 1 | top))],
    RelationId.ValArrow2: lambda d, full, top: [(d ^ 1, "2")] if d & (d >> 1 | top) & 1 else [],
    RelationId.ValArrow3: _val3,
    RelationId.EpkArrow: _split(1, ~1),  # ~1 skips the first part
    RelationId.EpkTri: _split(2, ~1),
}


def labeled_successors(rel: RelationId, comp: Composition) -> list[tuple[Composition, str]]:
    """Successors of a composition under one relation, with edge labels
    1/2/3 naming the underlying move."""
    if not isinstance(rel, RelationId) or rel not in _RULES:
        raise ValueError(f"{rel!r} is not a binary relation")
    full = full_mask(comp.n)
    moves = _RULES[rel](index_of(comp), full, full ^ full >> 1)
    return [(from_index(comp.n, b), label) for b, label in moves]


def successors(rel: RelationId, comp: Composition) -> set[Composition]:
    """The set of compositions reachable from `comp` in one step."""
    return {k for k, _ in labeled_successors(rel, comp)}


def is_ctilde(comp: Composition) -> bool:
    """True for the compositions (1, ..., 1, 2), including (2) itself."""
    return comp == ctilde_member(comp.n)


def ctilde_member(n: int) -> Composition | None:
    """The unique ctilde composition of n, if any (needs n >= 2)."""
    if n < 2:
        return None
    return Composition((1,) * (n - 2) + (2,))


class RelationGraph(Frozen):
    """Directed graph on the compositions of n, each vertex its index in
    [0, 2^(n-1)): `edges` are (index, index, label) triples, `marks` the
    indices of ctilde-marked vertices.  The degree is checked, and an
    endpoint or mark that is not an int vertex raises ValueError."""

    __match_args__ = ("n", "edges", "marks")
    __slots__ = (*__match_args__, "__dict__")  # the dict holds the cached properties

    def __init__(self, n: int, edges: tuple[tuple[int, int, str], ...], marks: tuple[int, ...] = ()) -> None:
        check_degree(n)
        size = full_mask(n) + 1
        ends = [*map(itemgetter(0), edges), *map(itemgetter(1), edges), *marks]
        if {*map(type, ends)} - {int} or ends and not 0 <= min(ends) <= max(ends) < size:
            bad = next(v for v in ends if type(v) is not int or not 0 <= v < size)
            raise ValueError(f"vertex {bad!r} is not a composition index of {n}, an int in [0, {size})")
        self._init_fields(n, edges, marks)

    @property
    def vertices(self) -> range:
        return range(full_mask(self.n) + 1)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """`connected_components(self)`, found once per graph."""
        return connected_components(self)

    @property
    def edge_rank(self) -> int:
        """The rank of `edge_vectors(self)`: each component is spanned by a
        tree of its edges, so the rank is |V| - #components."""
        return len(self.vertices) - len(self.components)


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
    rules = [rule for rel, rule in _RULES.items() if rel in rels]
    full = full_mask(n)
    top = full ^ full >> 1
    # the index of ctilde_member(n), n >= 2 (no Composition built): all positions but n - 1 are descents
    marks = (full >> 1,) if RelationId.CTilde in rels and n >= 2 else ()
    labels: dict[tuple[int, int], str] = {}
    for a in range(full + 1):
        for rule in rules:
            for b, label in rule(a, full, top):
                labels.setdefault((a, b), label)
    return RelationGraph(n, tuple((a, b, labels[a, b]) for a, b in sorted(labels)), marks)


def _union_find(size: int, edges: Iterable[Sequence]) -> list[int]:
    """The root of each int in range(size) once the first two entries of
    each edge are joined (a relation-graph edge has its label third)."""
    parent = list(range(size))

    def find(x: int) -> int:
        while (up := parent[x]) != x:
            parent[x] = x = parent[up]  # path halving
        return x

    for edge in edges:
        parent[find(edge[1])] = find(edge[0])
    return list(map(find, range(size)))


def connected_components(graph: RelationGraph) -> tuple[tuple[int, ...], ...]:
    """Partition of the composition indices of n by undirected
    reachability, in the class format of `equivalence_classes`."""
    return _blocks(_union_find(len(graph.vertices), graph.edges))


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
        return full_mask(self.n) + 1 - len(self.classes)

    @cached_property
    def basis(self) -> RowBasis:
        from .linalg import RowBasis, SparseVector  # linalg and qsym serve only oracles: a cold check loads neither
        rows = {c: {c: 1, block[-1]: -1} for block in self.classes for c in block[:-1]}
        pivots = sorted(rows)
        return RowBasis(self.n, [SparseVector(self.n, rows[c]) for c in pivots], pivots)

    @cached_property
    def labels(self) -> list[int]:
        """The class number of each composition index: the quotient map."""
        labels = [0] * (full_mask(self.n) + 1)
        for label, block in enumerate(self.classes):
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
    _check_statistic(stat)
    if type(stat).__hash__ is None:  # the cache would raise TypeError
        raise ValueError(f"statistic {stat_name(stat)} is unhashable, and kernel spaces are cached by statistic")
    return _kernel_space(stat, n)


@lru_cache(maxsize=256)
def _kernel_space(stat: DescentStatistic, n: int) -> KernelSpace:
    return KernelSpace(stat, n, equivalence_classes(stat, n))


def quotient_dimension(stat: DescentStatistic, n: int) -> int:
    """Number of equivalence classes = dim of the degree-n quotient."""
    return len(kernel_space(stat, n).classes)


def edge_vectors(graph: RelationGraph) -> list[SparseVector]:
    """The differences F_J - F_K along the edges (zero for a loop)."""
    from .linalg import SparseVector
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
