"""Rewrite relations on compositions, kernel subspaces, and their checks.

For a descent statistic st, the degree-n kernel K^st_n is the kernel of
the projection F_J -> [st-class of J]: a vector lies in it exactly when
its coefficients sum to zero on every class.  A sound set S of
equivalent pairs spans K^st_n exactly when the components of the graph
with edge set S are the classes, and its differences are independent
exactly when the graph is a forest (Theorem 1).  Neither fact depends
on st: one graph per (rels, n) is built once, kept in a bounded cache,
and carries its components, so the spanning and basis checks eliminate
nothing; `verify thm1a/thm1b` checks both against `edge_vectors`.
M-combinations span the kernel of a partition exactly when each has zero
class sums and their rank is its dimension (the monomial spanning sets,
and Section 4's F-vs-M propositions on their F family's components).
Those combinations have one or two terms +-1: a signed graph, whose
rank is read off its double cover (Zaslavsky).  One union-find finds
the components of every graph here, relation graph or cover, and blocks
take the class format of `equivalence_classes`.  `linalg` is the oracle.

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
from array import array
from collections import Counter
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, islice
from math import comb
from operator import itemgetter, or_
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
from .statistics import (DescentStatistic, ShuffleCompatibilityReport, StatisticId, _blocks, _check_statistic,
                         equivalence_classes, stat_name)


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


# -- monomial spanning sets ---------------------------------------------------

def monomial_span_terms(stat: StatisticId, n: int) -> list[dict[int, int]]:
    """The M-basis combinations whose span is claimed to be K^st_n, as
    coefficient dicts keyed by M index.

    Pk:  M_J + M_K over tri1/tri2 edges, plus M over the ctilde member.
    pk:  the Pk set, plus M_J - M_K over arrow3 edges.
    Epk: M_J + M_K over epktri edges.
    """
    if not isinstance(stat, StatisticId):
        raise ValueError(f"a monomial spanning set needs a StatisticId, got {stat!r}")
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
    from .qsym import QSymElement, f_sparse
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


def _double_cover(terms: Iterable[dict[int, int]]) -> tuple[set[int], list[int], int]:
    """(touched, root, rank) of the M-combinations `terms` as a signed
    graph lifted to its double cover, where index v has the sheets 2v (+)
    and 2v + 1 (-): s M_a + t M_b joins each lift of a to the lift of b of
    -s t times its sign, M_a joins 2a and 2a + 1, {} adds nothing, and
    another shape raises ValueError.  A component is balanced exactly
    when its sheets stay apart, that is when the mirror x ^ 1 of its root
    x has another root.  On the indices up to the greatest touched one,
    each untouched index a balanced component of its own, the rank is the
    indices less the balanced components (Zaslavsky, Signed graphs, 1982)."""
    touched: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for combination in terms:
        if len(combination) > 2 or not {1, -1}.issuperset(combination.values()):
            raise ValueError(f"not a signed-graph combination: {combination!r}")
        touched.update(combination)
        if len(combination) == 1:
            (a,) = combination
            pairs.append((2 * a, 2 * a + 1))
        elif combination:
            (a, s), (b, t) = combination.items()
            lift = 2 * b + (s == t)  # the lift of b that 2a joins
            pairs += (2 * a, lift), (2 * a + 1, lift ^ 1)
    root = _union_find(2 * max(touched, default=-1) + 2, pairs)
    return touched, root, len(root) // 2 - sum(root[r ^ 1] != r for r in set(root)) // 2


def _signed_rank(terms: Iterable[dict[int, int]]) -> int:
    """The rank of M-combinations of one or two terms +-1, by `_double_cover`."""
    return _double_cover(terms)[2]


def _signed_spans_equal(xs: Sequence[dict[int, int]], ys: Sequence[dict[int, int]]) -> bool:
    """Do the M-combinations xs and ys span the same space?  Exactly when
    each x, of any shape, lies in the span of the signed graph ys (on the
    touched indices, its +x_v at 2v and -x_v at 2v + 1 cancel at each root
    of the cover: a zero switched sum on each balanced component, and an
    unbalanced one has a single root) and the ranks agree."""
    touched, root, rank = _double_cover(ys)
    for x in xs:
        lifts = ((2 * v + sheet, -coeff if sheet else coeff) for v, coeff in x.items() for sheet in (0, 1))
        if not x.keys() <= touched or any(_class_sums(root, lifts).values()):
            return False
    return _signed_rank(xs) == rank


def _m_spans_kernel(terms: list[dict[int, int]], labels: Sequence[int]) -> bool:
    """Do the M-combinations `terms` span the kernel of the quotient map
    `labels` of the indices?  Exactly when every class sum of each
    vanishes and their rank is the indices less the classes, both read in M
    coordinates: a combination's class sums are those of its P(M_C), and
    m_to_f is invertible, so the rank is unchanged.  Membership comes
    first, so a combination of any shape outside the kernel gives False
    before the signed rank is taken."""
    proj = _projected_m(labels)
    for combination in terms:
        sums: dict[int, int] = {}
        for c, coeff in combination.items():
            for label, value in proj[c].items():
                sums[label] = sums.get(label, 0) + coeff * value
        if any(sums.values()):
            return False
    return _signed_rank(terms) == len(labels) - len(set(labels))


def check_spanning_M(stat: StatisticId, n: int) -> bool:
    """Do the combinations of `monomial_span_terms` span K^st_n, the kernel
    of the projection onto the st-classes?"""
    return _m_spans_kernel(monomial_span_terms(stat, n), kernel_space(stat, n).labels)


# -- the indexed families over subsets ---------------------------------------

OmegaRegion = tuple[tuple[frozenset[int], int], ...]


class OmegaSets(Frozen):
    """The four disjoint index regions inside 2^[n-1] x [n-1] together
    indexing the subset-level spanning families."""

    __slots__ = __match_args__ = ("n", "om1", "om2", "om3", "om4")

    def __init__(self, n: int, om1: OmegaRegion, om2: OmegaRegion, om3: OmegaRegion, om4: OmegaRegion) -> None:
        self._init_fields(n, om1, om2, om3, om4)


def _regions(n: int, c_mask: int) -> tuple[int, int, int, int]:
    """The k of each region for C inside [n-1] given by its mask, as four
    masks with bit k-1 standing for k in [n-1]; the regions are disjoint.
    With C0 = C u {0}, (C, k) lies in region

      1  if C != [n-1]; k and k-1 outside C; k-2 in C0
      2  if C inside [n-2], containing n-2, C != [n-2]; k outside C; k+1
         in C; k-1 in C0
      3  if C = [n-2] and k = n-1
      4  if n-1 in C; k in C; k-1 in C0; k+1 outside C; k+2 in C; and
         every member j != n-1 of C0 has j+1 or j+2 in C

    Each condition on k is a shift of the mask: bit k-1 of c << 1 is set
    when k-1 is in C, and c0 = c << 1 | 1 has bit j for each j in C0.  As k
    is outside C in 1, C != [n-1] holds; as k+1 is in C too in 2, C != [n-2]."""
    c, full = c_mask, full_mask(n)
    top, c0 = full ^ full >> 1, c << 1 | 1  # top: position n-1
    r1 = ~c & ~(c << 1) & (c << 2 | 2) & full
    r2 = ~c & c >> 1 & c0 & full if not c & top and c & top >> 1 else 0
    r3 = top if c == full >> 1 else 0
    r4 = c & c0 & ~(c >> 1) & c >> 2 if c & top and not c0 & ~(top << 1) & ~(c | c >> 1) else 0
    return r1, r2, r3, r4


def _omega(n: int) -> Iterator[tuple[int, int, int]]:
    """(region, C mask, k) for each (C, k) in a region: C by mask ascending, then region, then k."""
    for c_mask in range(full_mask(n) + 1):
        for region, ks in enumerate(_regions(n, c_mask), 1):
            for low in _lows(ks):
                yield region, c_mask, low.bit_length()


def omega_sets(n: int) -> OmegaSets:
    """The pairs (C, k) of each region, C by mask ascending, then k: the
    pairs of `_omega`, which interleaves the regions, grouped by region.

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
    if type(region) is not int or not 1 <= region <= 4:
        raise ValueError(f"region must be 1..4, got {region!r}")
    # positions first: set_to_mask takes only ints (no bools), and no 0
    inside = all(type(j) is int and 1 <= j <= n - 1 for j in (*c, k))
    if not (inside and _regions(n, set_to_mask(c))[region - 1] >> (k - 1) & 1):
        raise ValueError(f"({set(c)}, {k}) is not in region {region} at degree {n}")
    return set_to_mask(c)


def f_family(region: int, c: frozenset[int], k: int, n: int) -> QSymElement:
    """The F-side family member indexed by (C, k) in the given region."""
    from .qsym import QSymElement
    return QSymElement(n, "F", _members(region, _member_mask(region, c, k, n), k, n)[0])


def m_family(region: int, c: frozenset[int], k: int, n: int) -> QSymElement:
    """The M-side family member indexed by (C, k) in the given region."""
    from .qsym import QSymElement
    return QSymElement(n, "M", _members(region, _member_mask(region, c, k, n), k, n)[1])


def check_section4_props(n: int) -> dict:
    """Verify the six span equalities linking the subset-indexed families to
    the relation spanning sets, and the region-4 characterization of the arrow3
    edges, on index masks with each C's regions read off by `_regions`: regions
    1-3 against Pk's sets (Props 4.1-4.3), all four against pk's (Props 4.4-4.6),
    in any order.  The F side compares components of graphs, the M side the spans
    of two signed graphs in M coordinates, and F-vs-M is the monomial criterion
    on the F-family graph's components; nothing is eliminated."""
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
        root = _union_find(full_mask(n) + 1, (tuple(f) for f, _ in members))
        results[f_key] = _blocks(root) == relation_edges(rels, n).components
        results[m_key] = _signed_spans_equal([m for _, m in members], monomial_span_terms(stat, n))
        results[fm_key] = _m_spans_kernel([m for _, m in members], root)
    arrow3 = {(a, b) for a, b, _ in relation_edges({RelationId.Arrow3}, n).edges}
    results["lemma_om4_matches_arrow3"] = arrow3 == {tuple(f) for region, f, _ in family if region == 4}
    return {"degree": n, "pass": all(results.values()), "results": results}


# -- ideal property and shuffle-compatibility --------------------------------

def is_ideal_upto(stat: DescentStatistic, total_degree: int, max_witnesses: int = 3) -> dict:
    """Check that products of kernel basis rows with fundamental basis
    elements stay inside the kernel, for all bidegrees (a, b) with
    a + b <= total_degree: (F_c - F_top) F_b lies in K^st_s exactly when
    F_c F_b and F_top F_b project to the same st-class counts.  At (a, b)
    and (b, a) together that says F_x F_y projects to a function of the
    class pair of (x, y), so the verdict is `shuffle_compatibility_upto`'s.
    A failing statistic is scanned row by row for at most `max_witnesses`
    witnesses, rows in pivot order, factors in index order.  `ideal_reports` of one."""
    return ideal_reports([stat], total_degree, max_witnesses)[0]


def ideal_reports(stats: Iterable[DescentStatistic], total_degree: int, max_witnesses: int = 3) -> list[dict]:
    """The `is_ideal_upto` report of each statistic, in order, every verdict from one
    `_first_mismatches` scan, which fingerprints each product once for all of them."""
    check_degree(total_degree)
    stats = list(stats)
    if isinstance(max_witnesses, bool) or not isinstance(max_witnesses, int):
        raise ValueError(f"max_witnesses must be an int, got {max_witnesses!r}")
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be nonnegative, got {max_witnesses}")
    return [{"stat": stat_name(stat), "total_degree": total_degree, "ideal": first is None,
             "violations": [] if first is None else list(islice(_ideal_violations(stat, total_degree), max_witnesses))}
            for stat, first in zip(stats, _first_mismatches(stats, total_degree))]


def _ideal_violations(stat: DescentStatistic, total_degree: int) -> Iterator[dict]:
    """`is_ideal_upto`'s violations in order, each row c against the greatest member of
    its class by label (a top is its own, and skipped); a top is projected once per factor."""
    for s in range(2, total_degree + 1):
        labels = kernel_space(stat, s).labels
        for a in range(1, s):
            b, space, n = s - a, kernel_space(stat, a), 1 << (s - a - 1)
            tops = (space.classes[label][-1] * n + k for label in space.labels for k in range(n))
            for pair, ref in _product_mismatches(_fingerprints([labels], a, b)[0], enumerate(tops)):
                (c, k), (top, _) = divmod(pair, n), divmod(ref, n)
                row = {str(from_index(a, c)): "1", str(from_index(a, top)): "-1"}
                yield {"row_degree": a, "factor": str(from_index(b, k)), "row": row}


def _interleavings(a: int, b: int) -> tuple[list[array], list[array]]:
    """Tables (xs, ys) over the C(a + b, a) interleavings S of a word u of a letters
    with a word v of b larger letters: their shuffle along S has descent mask
    xs[x][S] | ys[y][S] when Des(u) = x and Des(v) = y.  A letter of v before one of
    u descends and the reverse never does, so xs holds those places and each descent
    of u whose letters stay adjacent, and ys each descent of v at its first letter (a
    letter of u between v's two is a place of xs).  C(a + b, a) (2^(a-1) + 2^(b-1))
    masks in arrays, built for one scan of one bidegree and kept by none."""
    s, code = a + b, "H" if a + b <= 17 else "Q"
    base, u_adjacent, v_letters = [], [], []
    for left in combinations(range(s), a):
        u = sum(1 << p for p in left)
        right = [p for p in range(s) if not u >> p & 1]
        base.append(u >> 1 & ~u)
        u_adjacent.append([1 << p if q == p + 1 else 0 for p, q in zip(left, left[1:])])
        v_letters.append([1 << p for p in right[:-1]])
    xs, ys = [array(code, base)], [array(code, [0]) * len(base)]
    for rows, columns in ((xs, zip(*u_adjacent)), (ys, zip(*v_letters))):
        for column in columns:  # row m ors the columns of m's bits into row 0
            rows += [array(code, map(or_, row, column)) for row in rows]
    return xs, ys


_PACKED_FINGERPRINT_BITS = 2048  # a sum costs the width of its ints


def _fingerprints(labelings: Sequence[Sequence[int]], a: int, b: int) -> list:
    """One fingerprint per labeling, mapping a pair index p = x 2^(b-1) + y, x of degree a
    and y of degree b, to the class counts through it of F_x F_y, read off the tables of
    `_interleavings(a, b)`.  The labelings whose slots fit `_PACKED_FINGERPRINT_BITS`
    count class l in the slot of w bits at l w past the fields of those before them, w the
    bit length of C(a + b, a): no count exceeds the C(a + b, a) < 2^w shuffles, so no slot
    carries.  They share one exact sum per pair, taken when first asked for, and each reads
    its own field.  Past the budget (Epk from degree 11, Lpk, Rpk from 12, Pk, Val from 13)
    a sum costs more than the classes, and a labeling counts a dict of them."""
    (xs, ys), width = _interleavings(a, b), comb(a + b, a).bit_length()
    n, sizes = len(ys), [width * (max(labels) + 1) for labels in labelings]
    packed = [i for i, size in enumerate(sizes) if size <= _PACKED_FINGERPRINT_BITS]
    offsets = dict(zip(packed, accumulate((sizes[i] for i in packed), initial=0)))
    slots = (map([1 << offsets[i] + slot for slot in range(0, sizes[i], width)].__getitem__, labelings[i])
             for i in packed)  # each packed labeling's slot of each mask
    weight = list(map(sum, zip(*slots)))
    sums = lru_cache(maxsize=None)(lambda p: sum(map(weight.__getitem__, map(or_, xs[p // n], ys[p % n]))))
    return [_masked(sums, (1 << size) - 1 << offsets[i]) if i in offsets else _counted(labels, xs, ys)
            for i, (labels, size) in enumerate(zip(labelings, sizes))]


def _masked(sums, field: int):  # a packed labeling's fingerprint: its field of the shared sums
    return lambda p: field & sums(p)


def _counted(labels: Sequence[int], xs, ys):  # a dict == runs in C, a Counter == does not
    label, n = labels.__getitem__, len(ys)
    return lambda p: dict(Counter(map(label, map(or_, xs[p // n], ys[p % n]))))


def _product_mismatches(fingerprint, pairs) -> Iterator[tuple[int, int]]:
    """Each (pair, reference) of pair indices whose F products differ by `fingerprint`, in
    order.  A pair that is its own reference is skipped, and each reference is
    fingerprinted once, when first compared."""
    wants = {}
    for pair, ref in pairs:
        if pair != ref:
            if ref not in wants:
                wants[ref] = fingerprint(ref)
            if fingerprint(pair) != wants[ref]:
                yield pair, ref


def _first_mismatches(stats: Sequence[DescentStatistic], max_total_len: int) -> list[dict | None]:
    """Each statistic's first mismatch as a witness, or None, from one scan: each index
    pair (x, y) of degrees (a, s - a), 1 <= a <= s - a, against its two classes' least
    members, the first pair of its class pair, wherever the statistic has a class of two
    at a or s - a (Des never has).  One `_fingerprints` per bidegree serves all of them."""
    check_degree(max_total_len)
    witnesses, live = [None] * len(stats), dict.fromkeys(range(len(stats)))
    for s in range(max_total_len + 1):  # degree 0 checks the statistics
        labels = {i: kernel_space(stats[i], s).labels for i in live}
        for a in range(1, s // 2 + 1):
            spaces = {i: (kernel_space(stats[i], a), kernel_space(stats[i], s - a)) for i in live}
            if not (scans := [i for i in live if spaces[i][0].dim or spaces[i][1].dim]):
                continue
            for i, fingerprint in zip(scans, _fingerprints([labels[i] for i in scans], a, s - a)):
                left, right = ([space.classes[label][0] for label in space.labels] for space in spaces[i])
                n = len(right)
                refs = (x * n + y for x in left for y in right)
                for pair, ref in islice(_product_mismatches(fingerprint, enumerate(refs)), 1):
                    names = [[str(from_index(a, x)), str(from_index(s - a, y))]
                             for x, y in (divmod(ref, n), divmod(pair, n))]
                    witnesses[i] = {"kind": "distribution-mismatch", "pair1": names[0], "pair2": names[1]}
                    del live[i]
            del fingerprint  # it holds the bidegree's sums, weights and tables
    return witnesses


def shuffle_compatibility_upto(stat: DescentStatistic, max_total_len: int) -> ShuffleCompatibilityReport:
    """Shuffle-compatibility from F products: the shuffles of words with descent
    compositions α and β have the descent compositions of F_α F_β (Gessel and Zhuang).
    `_first_mismatches` of one, in the order and with the witness of the oracle
    `statistics.check_shuffle_compatible`, for 1 <= a <= s - a only: as F_α F_β = F_β F_α,
    pairs that differ at (a, s - a) have mirrors that differ at (s - a, a), and at a = 0
    each F_∅ F_β = F_β projects to β's own class."""
    witness, = _first_mismatches([stat], max_total_len)
    return ShuffleCompatibilityReport(stat_name(stat), max_total_len, witness is None, witness)


# -- symmetry bridges ----------------------------------------------------------

def _maps_onto(src: DescentStatistic, dst: DescentStatistic, relabel, n: int) -> bool:
    """Does the F-index relabelling carry K^src_n onto K^dst_n?  It permutes
    F coordinates, so it carries the kernel of the src-classes onto the
    kernel of the relabelled classes, and two class partitions have the
    same kernel exactly when they are equal.  Both relabellings
    (`complement_mask`, `reverse_mask`) are involutions, so the image class
    of m is the src-class of relabel(n, m), and `_blocks` orders them."""
    labels = kernel_space(src, n).labels
    return _blocks(labels[relabel(n, m)] for m in range(len(labels))) == kernel_space(dst, n).classes


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
    epk, val = kernel_space(StatisticId.epk, n), kernel_space(StatisticId.val, n)
    results = {
        "complement_of_pk_edges": complements_into({RelationId.Arrow1, RelationId.Arrow2}, val12),
        "complement_of_swap_edges": complements_into({RelationId.Arrow3}, val12 | {RelationId.ValArrow3}),
        "epk_kernel_equals_val_kernel": epk.classes == val.classes,
        "psi_Pk_onto_Val": _maps_onto(StatisticId.Pk, StatisticId.Val, complement_mask, n),
        "psi_pk_onto_val": _maps_onto(StatisticId.pk, StatisticId.val, complement_mask, n),
        "rho_Lpk_onto_Rpk": _maps_onto(StatisticId.Lpk, StatisticId.Rpk, reverse_mask, n),
        "rho_lpk_onto_rpk": _maps_onto(StatisticId.lpk, StatisticId.rpk, reverse_mask, n),
    }
    return {"degree": n, "pass": all(results.values()), "results": results}


# -- graph export --------------------------------------------------------------

def _named(graphs: Sequence[RelationGraph]) -> Iterator[tuple[list[str], list[str], list[tuple[str, str, str]]]]:
    """Per graph, named by composition text: its vertices by index, its ctilde marks, its edges."""
    for graph in graphs:
        names = [str(comp) for comp in compositions_of(graph.n)]
        yield names, [names[c] for c in graph.marks], [(names[a], names[b], label) for a, b, label in graph.edges]


def graphs_to_dot(graphs: Sequence[RelationGraph]) -> str:
    """DOT export: vertices labeled with composition text, edges labeled
    1/2/3, ctilde-marked vertices drawn with doubled borders."""
    lines = ["digraph relations {"]
    for names, marks, edges in _named(graphs):
        marked = set(marks)
        lines += [f'  "{name}"{" [peripheries=2]" if name in marked else ""};' for name in names]
        lines += [f'  "{a}" -> "{b}" [label="{label}"];' for a, b, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphs_to_json_dict(graphs: Sequence[RelationGraph]) -> dict:
    named = list(_named(graphs))
    return {
        "degrees": [g.n for g in graphs],
        "vertices": [name for names, _, _ in named for name in names],
        "ctilde": [name for _, marks, _ in named for name in marks],
        "edges": [{"from": a, "to": b, "label": label} for _, _, edges in named for a, b, label in edges],
    }


def graphs_to_csv(graphs: Sequence[RelationGraph]) -> str:
    # composition text contains commas, so those fields are quoted
    rows = (f'"{a}","{b}",{label}' for _, _, edges in _named(graphs) for a, b, label in edges)
    return "\n".join(["from,to,label", *rows]) + "\n"
