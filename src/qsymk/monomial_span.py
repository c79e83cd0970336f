"""The monomial spanning sets, and Section 4's subset-indexed families.

M-combinations span the kernel of a partition exactly when each has zero
class sums and their rank is its dimension (the monomial spanning sets,
and Section 4's F-vs-M propositions on their F family's components).
Those combinations have one or two terms +-1: a signed graph, whose
rank is read off its double cover (Zaslavsky), its components found by
`kernel`'s union-find.  `linalg` is the oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .compositions import Frozen, full_mask, mask_to_set, set_to_mask
from .config import check_degree
from .kernel import RelationId, _class_sums, _lows, _union_find, kernel_space, relation_edges
from .statistics import StatisticId, _blocks, stat_name


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
