"""Degree-n quasisymmetric functions in the monomial and fundamental bases.

An element is a sparse rational combination of basis elements indexed
by compositions of a fixed degree n, tagged with the basis it is
written in ("M" or "F"); integral coefficients are held as `int` (see
`linalg.exact_coefficients`).  The change of basis uses

    F_{n,C} = sum over B with C <= B <= [n-1] of M_{n,B}
    M_{n,C} = sum over B with C <= B <= [n-1] of (-1)^{|B \\ C|} F_{n,B}

in one walk over each term's supersets, which psi on the M basis and the
Lemma 2.2 combinations share.  The product of two fundamentals expands as a
sum of fundamentals over the shuffles of any two disjoint words realizing the
two index compositions; `_f_basis_product` counts their descent compositions
by one DP over two count types, ints of packed mask counts where most masks
occur and dicts where few do, and `multiply_f` of two one-term elements is
those counts, scaled; `multiply_f_via_shuffles` keeps the route through the words.
Both are oracles of the tables `ideal._interleavings`, from which the
ideal check and shuffle-compatibility read their projected products.

The involutions psi and rho relabel the fundamental basis by the
complement and reverse of the index composition respectively; both are
algebra automorphisms.  On the monomial basis psi acts by the signed
coarsening sum (-1)^{n - l(L)} * sum of M_K over coarsenings K of L.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import compress
from typing import Iterator, Mapping

from .compositions import (
    Composition,
    DescentSet,
    from_index,
    full_mask,
    index_of,
    parse_composition,
    reverse_mask,
)
from .config import check_degree
from .errors import BasisTagError, DegreeMismatchError
from .linalg import SparseVector, _exact_number, exact_coefficients


class QSymElement:
    """A sparse element of the degree-n component, in basis "M" or "F";
    coefficients are stored by the rule of `linalg.exact_coefficients`."""

    __slots__ = ("n", "basis", "coeffs")

    def __init__(self, n: int, basis: str, coeffs: Mapping[int, Fraction | int]):
        if basis not in ("M", "F"):
            raise BasisTagError(f"basis must be 'M' or 'F', got {basis!r}")
        check_degree(n)
        self.n = n
        self.basis = basis
        self.coeffs = exact_coefficients(n, coeffs)

    def terms(self) -> Iterator[tuple[Composition, Fraction | int]]:
        """(composition, coefficient) pairs in ascending index order."""
        for mask in sorted(self.coeffs):
            yield from_index(self.n, mask), self.coeffs[mask]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QSymElement)
            and self.n == other.n
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.basis, frozenset(self.coeffs.items())))

    def __add__(self, other: "QSymElement") -> "QSymElement":
        if not isinstance(other, QSymElement):
            return NotImplemented
        if self.n != other.n:
            raise DegreeMismatchError(f"degrees {self.n} and {other.n}")
        a, b = self, other
        if a.basis != b.basis:
            # mixed-basis sums normalize to the fundamental basis
            a, b = to_f(a), to_f(b)
        out = dict(a.coeffs)
        for mask, value in b.coeffs.items():
            out[mask] = out.get(mask, 0) + value
        return QSymElement(a.n, a.basis, out)

    def __neg__(self) -> "QSymElement":
        return QSymElement(self.n, self.basis, {m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other: "QSymElement") -> "QSymElement":
        if not isinstance(other, QSymElement):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar) -> "QSymElement":
        scalar = _exact_number(scalar)
        return QSymElement(self.n, self.basis, {m: scalar * v for m, v in self.coeffs.items()})

    def __repr__(self) -> str:
        body = " + ".join(f"{v}*{self.basis}{from_index(self.n, m)}" for m, v in sorted(self.coeffs.items()))
        return body if body else f"0[{self.basis}, n={self.n}]"


def fundamental(comp: Composition) -> QSymElement:
    """The basis element F_L."""
    return QSymElement(comp.n, "F", {index_of(comp): 1})


def monomial(comp: Composition) -> QSymElement:
    """The basis element M_L."""
    return QSymElement(comp.n, "M", {index_of(comp): 1})


def _add_submask_sums(out: dict, base: int, free: int, value, signed: bool) -> None:
    """Add `value` to out[base | sub] for every submask sub of `free`, negated for odd
    |sub| when `signed`: the one submask walk of the basis maps, psi and Lemma 2.2."""
    by_parity = (value, -value if signed else value)
    sub = free
    while True:
        key = base | sub
        out[key] = out.get(key, 0) + by_parity[sub.bit_count() & 1]
        if not sub:
            return
        sub = (sub - 1) & free


def _superset_sums(elem: QSymElement, basis: str, signed: bool) -> QSymElement:
    """Send each basis element C to the sum over supersets B of C, with
    sign (-1)^{|B - C|} when `signed`, written in `basis`."""
    check_degree(elem.n)
    full = full_mask(elem.n)
    out: dict[int, Fraction | int] = {}
    for mask, value in elem.coeffs.items():
        _add_submask_sums(out, mask, full & ~mask, value, signed)
    return QSymElement(elem.n, basis, out)


def f_to_m(elem: QSymElement) -> QSymElement:
    """Rewrite an F-basis element in the monomial basis: each F_{n,C}
    expands as the sum of M_{n,B} over supersets B of C."""
    if elem.basis != "F":
        raise BasisTagError(f"f_to_m needs an F-basis element, got {elem.basis}")
    return _superset_sums(elem, "M", signed=False)


def m_to_f(elem: QSymElement) -> QSymElement:
    """Inverse of :func:`f_to_m`, by inclusion-exclusion over supersets."""
    if elem.basis != "M":
        raise BasisTagError(f"m_to_f needs an M-basis element, got {elem.basis}")
    return _superset_sums(elem, "F", signed=True)


def to_f(elem: QSymElement) -> QSymElement:
    return elem if elem.basis == "F" else m_to_f(elem)


def f_sparse(elem: QSymElement) -> SparseVector:
    """The element as F-coordinates for the linear algebra layer."""
    return SparseVector(elem.n, to_f(elem).coeffs)


# Packed slots have 16 bits: no count exceeds C(n, na), at most C(18, 9) = 48620 up to degree 18.
_PACKED_MAX_DEGREE = 18


def _f_basis_product(na: int, mask_a: int, nb: int, mask_b: int) -> tuple[tuple[int, int], ...]:
    """Multiplicity of each descent composition over the shuffles of two
    disjoint words realizing the two index compositions, as ascending
    (mask, count) pairs.

    `_product_dp` counts them in packed ints, at a cost of about the 2^(n-1)
    masks of degree n = na + nb, or in `_MaskCounts`, at about the masks it
    reaches, at most the C(n, na) shuffles.  Up to degree 18, a product with
    2^(n-1) <= 8 C(n, na) + 512 is packed, where that was measured faster;
    lopsided ones, such as F_(1) F_(n-1) beyond degree 10, take the dict."""
    n, size = na + nb, full_mask(na + nb) + 1
    if n <= _PACKED_MAX_DEGREE and size <= 8 * math.comb(n, na) + 512:
        raw = _product_dp(na, mask_a, nb, mask_b, 1, 16).to_bytes(2 * size, sys.byteorder)
        counts = memoryview(raw).cast("H")
        counts = counts if sys.byteorder == "little" else counts[::-1]  # big-endian: slot 0 came last
        return tuple(zip(compress(range(size), counts), compress(counts, counts)))
    return tuple(sorted(_product_dp(na, mask_a, nb, mask_b, _MaskCounts({0: 1}), 1).items()))


class _MaskCounts(dict):
    """Mask counts with a packed int's arithmetic: `<< bit` moves each count
    from mask m to m + bit (bit is not yet in m), and `+` adds counts."""

    __slots__ = ()

    def __lshift__(self, bit: int) -> "_MaskCounts":
        return _MaskCounts(zip(map(bit.__or__, self), self.values()))

    def __add__(self, other: "_MaskCounts") -> "_MaskCounts":
        if len(self) < len(other):
            self, other = other, self
        if not other:  # nothing changes a table once built, so it may be shared
            return self
        out = _MaskCounts(self)
        for mask, count in other.items():
            out[mask] = out.get(mask, 0) + count
        return out


def _product_dp(na: int, mask_a: int, nb: int, mask_b: int, one, step: int):
    """The descent-mask counts of the shuffles, summed as `one`'s type: an int
    with mask m's count in slot m of `step` = 16 bits, or `_MaskCounts` with
    `step` = 1.  `one` counts the empty word; a descent at t >= 1 shifts by
    `step << (t - 1)`.

    Every letter of the second word exceeds every letter of the first: a
    letter of the first after one of the second descends, the reverse
    never does, and two letters of one word descend where that word does.
    So a DP over (letters used from the first word, source of the last
    letter) counts the descent masks without writing a word out."""
    zero = type(one)()
    # prefixes with i letters of the first word, ending in it (the empty one too) or in the second
    first, second = {0: one}, {}
    for t in range(na + nb):
        shift = step << (t - 1) if t else 0
        nfirst, nsecond = {}, {}
        for i, counts in first.items():
            if i < na:
                nfirst[i + 1] = counts << shift if i and mask_a >> (i - 1) & 1 else counts
            if t - i < nb:
                nsecond[i] = counts
        for i, counts in second.items():
            if i < na:
                nfirst[i + 1] = nfirst.get(i + 1, zero) + (counts << shift)
            if t - i < nb:
                nsecond[i] = nsecond.get(i, zero) + (counts << shift if mask_b >> (t - i - 1) & 1 else counts)
        first, second = nfirst, nsecond
    return sum((*first.values(), *second.values()), zero)


def multiply_f(a: QSymElement, b: QSymElement) -> QSymElement:
    """Product of two F-basis elements, of degree deg(a) + deg(b), from the basis products.

    >>> multiply_f(fundamental(Composition((1,))), fundamental(Composition((1,))))
    1*F(2) + 1*F(1,1)
    """
    if a.basis != "F" or b.basis != "F":
        raise BasisTagError("multiply_f needs both factors in the F basis")
    n = a.n + b.n
    check_degree(n)
    out: dict[int, Fraction | int] = {}
    for mask_a, ca in a.coeffs.items():
        for mask_b, cb in b.coeffs.items():
            c, counts = ca * cb, _f_basis_product(a.n, mask_a, b.n, mask_b)
            if len(a.coeffs) == len(b.coeffs) == 1:  # one product: its counts are the coefficients
                return QSymElement(n, "F", dict(counts) if c == 1 else {mask: c * mult for mask, mult in counts})
            for mask, mult in counts:
                out[mask] = out.get(mask, 0) + c * mult
    return QSymElement(n, "F", out)


def multiply_f_via_shuffles(
    a_comp: Composition, b_comp: Composition, offset_a: int = 0, offset_b: int | None = None
) -> QSymElement:
    """Oracle route for the basis product: materialize two disjoint words
    and sum F over the descent compositions of their shuffles.  The
    offsets pick which letters realize each composition; the result must
    not depend on them."""
    from .words import perm_descent_composition, realize_permutation, shuffles  # only this oracle loads words
    check_degree(a_comp.n + b_comp.n)  # before the C(a + b, a) words
    if offset_b is None:
        offset_b = offset_a + a_comp.n
    p = realize_permutation(a_comp, offset_a)
    q = realize_permutation(b_comp, offset_b)
    out = Counter(index_of(perm_descent_composition(t)) for t in shuffles(p, q))
    return QSymElement(a_comp.n + b_comp.n, "F", out)


def ehrenborg_psi_m(comp: Composition) -> QSymElement:
    """Image of M_L under psi: (-1)^(n - number of parts) times the sum
    of M_K over all coarsenings K of L."""
    return psi(monomial(comp))


def psi(elem: QSymElement) -> QSymElement:
    """The complement involution.  On the F basis it relabels each index
    by its complement.  On the M basis it sends M_L to the signed
    coarsening sum: the coarsenings of L are the submasks of its index,
    and L has popcount + 1 parts (none when n = 0).  It stays in the M
    basis."""
    n, full = elem.n, full_mask(elem.n)
    if elem.basis == "F":
        return QSymElement(n, "F", {m ^ full: v for m, v in elem.coeffs.items()})
    out: dict[int, Fraction | int] = {}
    for mask, value in elem.coeffs.items():
        parts = mask.bit_count() + 1 if n else 0
        _add_submask_sums(out, 0, mask, -value if (n - parts) & 1 else value, signed=False)
    return QSymElement(n, "M", out)


def rho(elem: QSymElement) -> QSymElement:
    """The reverse involution: relabels F indices by the reverse
    composition.  It is psi after the position reversal C -> n - C (the
    reverse's complement), which keeps the superset order and so sends M_C
    to M_{n-C}; M-basis input is relabelled that way and passed to psi."""
    n = elem.n
    if elem.basis == "F":
        return QSymElement(n, "F", {reverse_mask(n, m): v for m, v in elem.coeffs.items()})
    flipped = {reverse_mask(n, m) ^ full_mask(n): v for m, v in elem.coeffs.items()}
    return psi(QSymElement(n, "M", flipped))


def _validate_ck(n: int, c: frozenset[int] | set[int], k: int) -> int:
    """The mask of C, checked with n and k before anything is enumerated."""
    check_degree(n)
    c_mask = DescentSet(n, c).mask
    if type(k) is not int or not 1 <= k <= n - 1:
        raise ValueError(f"k must be an int in [{n - 1}], got {k!r}")
    if (c_mask >> (k - 1)) & 1:
        raise ValueError(f"k = {k} must not be in C")
    return c_mask


def lemma22b_combination(n: int, c: frozenset[int] | set[int], k: int) -> QSymElement:
    """The F-combination equal to M_{n,C} + M_{n,C u {k}} for k not in C:
    sum over B with C <= B <= [n-1], k not in B, of (-1)^{|B \\ C|} F_{n,B}."""
    c_mask = _validate_ck(n, c, k)
    out: dict[int, int] = {}
    _add_submask_sums(out, c_mask, full_mask(n) & ~c_mask & ~(1 << (k - 1)), 1, signed=True)
    return QSymElement(n, "F", out)


def lemma22c_combination(n: int, c: frozenset[int] | set[int], k: int) -> QSymElement:
    """The paired-difference form of the same sum, valid when additionally
    k >= 2 and k-1 is not in C:
    sum over B with C <= B, k and k-1 not in B, of
    (-1)^{|B \\ C|} (F_{n,B} - F_{n,B u {k-1}})."""
    c_mask = _validate_ck(n, c, k)
    if k - 1 < 1:
        raise ValueError("k - 1 must be a position, so k >= 2")
    if (c_mask >> (k - 2)) & 1:
        raise ValueError(f"k - 1 = {k - 1} must not be in C")
    free = full_mask(n) & ~c_mask & ~(1 << (k - 1)) & ~(1 << (k - 2))
    out: dict[int, int] = {}
    _add_submask_sums(out, c_mask, free, 1, signed=True)
    _add_submask_sums(out, c_mask | 1 << (k - 2), free, -1, signed=True)
    return QSymElement(n, "F", out)


# -- serialization ----------------------------------------------------------

def element_to_json_dict(elem: QSymElement) -> dict:
    return {
        "degree": elem.n,
        "basis": elem.basis,
        "terms": [
            {"composition": str(comp), "coeff": str(value)}
            for comp, value in elem.terms()
        ],
    }


def _json_field(data: object, key: str, kinds: tuple[type, ...]):
    """data[key] when data is an object holding a non-bool value of one of
    `kinds`; otherwise a ValueError that names the field."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"JSON element field {key!r} is missing")
    value = data[key]
    # a bool is an int to isinstance, but true is no degree or coefficient
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"JSON element field {key!r} must be {names}, got {value!r}")
    return value


def element_from_json_dict(data: dict) -> QSymElement:
    """Inverse of `element_to_json_dict`; each composition must have the
    stated degree and appear once.  A coefficient is read by the rule of
    `linalg.exact_coefficients`, a float by its shortest decimal text (0.1 is 1/10).
    A bad field raises a ValueError naming it."""
    n = _json_field(data, "degree", (int,))
    check_degree(n)
    coeffs = {}
    for term in _json_field(data, "terms", (list,)):
        comp = parse_composition(_json_field(term, "composition", (str,)))
        if comp.n != n:
            raise DegreeMismatchError(f"composition {comp} has degree {comp.n}, not {n}")
        mask = index_of(comp)
        if mask in coeffs:
            raise ValueError(f"composition {comp} appears more than once")
        coeff = _json_field(term, "coeff", (str, int, float))
        try:
            coeffs[mask] = _exact_number(repr(coeff) if isinstance(coeff, float) else coeff)
        except ValueError as exc:
            raise ValueError(f"JSON element field 'coeff' must be an exact number, got {coeff!r}") from exc
    return QSymElement(n, _json_field(data, "basis", (str,)), coeffs)
