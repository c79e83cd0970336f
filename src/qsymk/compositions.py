"""Integer compositions and their descent-set encoding.

A composition of n is a finite sequence of positive integers summing to
n; the empty composition is the unique composition of 0.  Compositions
of n correspond bijectively to subsets of [n-1] = {1, ..., n-1}: a
composition (j_1, ..., j_m) maps to its set of partial sums
{j_1, j_1+j_2, ..., j_1+...+j_{m-1}}, and a subset {i_1 < ... < i_m}
maps back to (i_1, i_2-i_1, ..., n-i_m).

Throughout the package a subset C of [n-1] is encoded as the integer
bitmask with bit (i-1) set for each i in C, so compositions of n are
canonically indexed by integers in [0, 2^(n-1)).  `compositions_of`
enumerates them in ascending index order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .config import check_degree
from .errors import InvalidSubsetError


class Frozen:
    """Base of the immutable value classes: the constructor arguments, named
    in `__match_args__` (so class patterns take them by position), live in
    slots written once by `object.__setattr__`.  As in a frozen dataclass,
    the repr lists them, equality (same class only) and hashing use their
    tuple, and assignment and deletion raise AttributeError; pickling and
    copying call the constructor again."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _init_fields(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Composition(Frozen):
    """An immutable composition: a tuple of positive integer parts, and
    its degree `n`, their sum.

    >>> Composition((3, 1, 2)).n
    6
    >>> str(Composition(()))
    '()'
    """

    __slots__ = ("parts", "n")
    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(parts)
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int) or p < 1:
                raise ValueError(f"composition parts must be positive integers, got {parts!r}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))

    def __eq__(self, other: object) -> bool:  # direct, as equality and hashing are hot
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class DescentSet(Frozen):
    """A degree n together with a subset of [n-1]; the dual encoding of
    a composition of n."""

    __slots__ = __match_args__ = ("n", "positions")

    def __init__(self, n: int, positions: frozenset[int]) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"degree must be a nonnegative int, got {n!r}")
        positions = frozenset(positions)
        for i in positions:
            if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i < n:
                raise InvalidSubsetError(f"position {i!r} is not in [{n - 1}] for degree {n}")
        self._init_fields(n, positions)

    @property
    def mask(self) -> int:
        return set_to_mask(self.positions)


# -- mask helpers -----------------------------------------------------------

def full_mask(n: int) -> int:
    """Bitmask of the whole set [n-1]."""
    return (1 << (n - 1)) - 1 if n >= 1 else 0


def set_to_mask(positions: Iterable[int]) -> int:
    mask = 0
    for i in positions:
        mask |= 1 << (i - 1)
    return mask


def mask_to_set(mask: int) -> frozenset[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def index_of(comp: Composition) -> int:
    """The canonical integer index of a composition: its descent-set bitmask."""
    mask = 0
    total = 0
    for p in comp.parts[:-1]:
        total += p
        mask |= 1 << (total - 1)
    return mask


def from_index(n: int, mask: int) -> Composition:
    """The composition of n whose descent-set bitmask is `mask`."""
    if not 0 <= mask <= full_mask(n):
        raise InvalidSubsetError(f"index {mask} out of range for degree {n}")
    if n == 0:
        return Composition(())
    parts = []
    prev = 0
    for i in range(1, n):
        if (mask >> (i - 1)) & 1:
            parts.append(i - prev)
            prev = i
    parts.append(n - prev)
    return Composition(tuple(parts))


def complement_mask(n: int, mask: int) -> int:
    """Descent-set mask of the complement composition: [n-1] minus the set."""
    return mask ^ full_mask(n)


def reverse_mask(n: int, mask: int) -> int:
    """Descent-set mask of the reverse composition.

    Position p is a descent of the reverse exactly when n-p is not a
    descent of the original (reversing a word turns ascents into
    descents and vice versa).
    """
    rev = 0
    for p in range(1, n):
        if not (mask >> (n - p - 1)) & 1:
            rev |= 1 << (p - 1)
    return rev


# -- spec operations --------------------------------------------------------

def descent_set(comp: Composition) -> DescentSet:
    """The partial sums of all but the last part.

    >>> descent_set(Composition((3, 1, 2)))
    DescentSet(n=6, positions=frozenset({3, 4}))
    """
    return DescentSet(comp.n, mask_to_set(index_of(comp)))


def composition_of(n: int, positions: Iterable[int]) -> Composition:
    """The composition of n with the given descent set; inverse of
    :func:`descent_set`.

    >>> composition_of(10, {3, 8})
    Composition(parts=(3, 5, 2))
    """
    check_degree(n)
    return from_index(n, DescentSet(n, positions).mask)


@lru_cache(maxsize=None)
def _compositions_of(n: int) -> tuple[Composition, ...]:
    if n == 0:
        return (Composition(()),)
    return tuple(from_index(n, mask) for mask in range(1 << (n - 1)))


def compositions_of(n: int) -> tuple[Composition, ...]:
    """All compositions of n, in ascending descent-bitmask order.

    There are 2^(n-1) of them for n >= 1, and exactly one (the empty
    composition) for n = 0.
    """
    check_degree(n)  # enforced on every call, not just on cache misses
    return _compositions_of(n)


def refines(j: Composition, k: Composition) -> bool:
    """True iff j refines k: same degree, and every descent of k is a
    descent of j (adjacent parts of j combine to the parts of k)."""
    if j.n != k.n:
        return False
    jm, km = index_of(j), index_of(k)
    return jm & km == km


def complement(comp: Composition) -> Composition:
    """The composition whose descent set is the complement in [n-1].

    >>> complement(Composition((4, 1, 2, 3)))
    Composition(parts=(1, 1, 1, 3, 2, 1, 1))
    """
    return from_index(comp.n, complement_mask(comp.n, index_of(comp)))


def reverse(comp: Composition) -> Composition:
    """The descent composition of the reversed word: descent set
    [n-1] minus {n-i : i a descent}.  An involution."""
    return from_index(comp.n, reverse_mask(comp.n, index_of(comp)))


def inversions(comp: Composition) -> int:
    """Number of pairs of positions k < l with part_k > part_l."""
    parts = comp.parts
    return sum(
        1
        for a in range(len(parts))
        for b in range(a + 1, len(parts))
        if parts[a] > parts[b]
    )


def parse_composition(text: str) -> Composition:
    """Parse the text form `(3,1,2)`; the empty composition is `()`."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"composition must look like (a,b,...), got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return Composition(())
    return Composition(tuple(int(p) for p in inner.split(",")))
