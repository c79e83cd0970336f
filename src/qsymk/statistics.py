"""The thirteen descent statistics, on compositions.

Every statistic in `StatisticId` is a descent statistic: its value
depends only on the descent composition.  The evaluators here are shift
formulas on the descent mask (the composition's index), a set statistic
returned as a mask; `words` evaluates them on permutations from letter
comparisons, an independent route the test suite checks them against
exhaustively.  Equivalence classes are blocks of indices, the kernels'
class format.

Shuffle-compatibility of a `StatisticId` comes from F products (in
`ideal`); a callable on `Permutation` gets the word-level brute force of
`words`, their oracle.  Only that oracle, `qsym.multiply_f_via_shuffles`
and the tests load `words`, whose public names stay reachable here, the
module imported on first use (PEP 562).

Position conventions (1-based, word of length n):
  descent   i in [n-1]     with w_i > w_{i+1}
  peak      i in [2, n-1]  with w_{i-1} < w_i > w_{i+1}
  valley    i in [2, n-1]  with w_{i-1} > w_i < w_{i+1}
  left peak   a peak, or i = 1 with w_1 > w_2
  right peak  a peak, or i = n with w_{n-1} < w_n
  exterior peak  a left or right peak; for n = 1 the single position 1
"""

from __future__ import annotations

import enum
from itertools import repeat
from typing import Callable, Hashable, Iterable, Union

from . import _forward
from .compositions import Composition, Frozen, compositions_of, full_mask, index_of, mask_to_set
from .config import check_degree

StatValue = Union[int, frozenset]

__getattr__ = _forward(globals(), {
    "words": "Permutation PermStatistic eval_on_permutation parse_permutation perm_descent_composition "
             "realize_permutation shuffle_distribution shuffles standardize".split(),
})


class StatisticId(enum.Enum):
    """The closed set of descent statistics, named as usually written."""

    Des = "Des"
    des = "des"
    maj = "maj"
    Pk = "Pk"
    pk = "pk"
    Epk = "Epk"
    epk = "epk"
    Lpk = "Lpk"
    lpk = "lpk"
    Rpk = "Rpk"
    rpk = "rpk"
    Val = "Val"
    val = "val"


def parse_statistic(name: str) -> StatisticId:
    """Look up a statistic by its case-sensitive name."""
    # each member is named by its value; a member itself, or any other non-str, is no name
    stat = StatisticId.__members__.get(name) if isinstance(name, str) else None
    if stat is None:
        raise ValueError(f"unknown statistic {name!r}; expected one of "
                         + ", ".join(s.value for s in StatisticId))
    return stat


# -- compositions -----------------------------------------------------------
#
# Every word with descent composition L has the descent mask D of L, so
# each statistic is a function of D, and a set statistic is a mask too.
# Position i peaks when i is in D and i - 1 is not: `_peak_mask`.  As
# `words._peaks_at` does on words, padding makes a boundary peak an ordinary
# peak.  Position 0 is never a descent, so position 1 peaks when it is a
# descent (a left peak), and `& ~1` drops it again.  Setting the bit of
# position n, `1 << n >> 1` (0 at n = 0), makes n peak when n - 1 is an
# ascent (a right peak).  Valleys are the peaks of the complement.

def _peak_mask(d: int) -> int:
    return d & ~(d << 1)


_SET_EVAL: dict[StatisticId, Callable[[int, int], int]] = {
    StatisticId.Des: lambda n, d: d,
    StatisticId.Pk: lambda n, d: _peak_mask(d) & ~1,
    StatisticId.Epk: lambda n, d: _peak_mask(d | 1 << n >> 1),
    StatisticId.Lpk: lambda n, d: _peak_mask(d),
    StatisticId.Rpk: lambda n, d: _peak_mask(d | 1 << n >> 1) & ~1,
    StatisticId.Val: lambda n, d: _peak_mask(d ^ full_mask(n)) & ~1,
}


def _size_of(evaluate: Callable[[int, int], int]) -> Callable[[int, int], int]:
    return lambda n, d: evaluate(n, d).bit_count()


# each count statistic is the size of its set, and named in lower case
_COMP_EVAL: dict[StatisticId, Callable[[int, int], int]] = {
    **_SET_EVAL,
    **{StatisticId(stat.value.lower()): _size_of(evaluate) for stat, evaluate in _SET_EVAL.items()},
    StatisticId.maj: lambda n, d: sum(mask_to_set(d)),
}


def eval_on_composition(stat: StatisticId, comp: Composition) -> StatValue:
    """Evaluate a statistic from the descent set alone; agrees with
    :func:`eval_on_permutation` on any word with that descent composition."""
    value = _COMP_EVAL[stat](comp.n, index_of(comp))
    return mask_to_set(value) if stat in _SET_EVAL else value


DescentStatistic = Union[StatisticId, Callable[[Composition], Hashable]]


def stat_name(stat: DescentStatistic) -> str:
    if isinstance(stat, StatisticId):
        return stat.value
    return getattr(stat, "__name__", str(stat))


def _check_statistic(stat: object) -> None:
    if not (isinstance(stat, StatisticId) or callable(stat)):
        raise ValueError(f"{stat!r} is neither a StatisticId nor a callable; parse_statistic looks one up by name")


def _blocks(keys: Iterable[Hashable]) -> tuple[tuple[int, ...], ...]:
    """The indices 0, 1, ... grouped by their keys, in the class format:
    members ascending, blocks ordered by least member."""
    blocks: dict[Hashable, list[int]] = {}
    for index, key in enumerate(keys):
        blocks.setdefault(key, []).append(index)
    return tuple(map(tuple, blocks.values()))


def equivalence_classes(stat: DescentStatistic, n: int) -> tuple[tuple[int, ...], ...]:
    """Partition of the composition indices of n into blocks of equal
    statistic value.  A `StatisticId` is evaluated on the index, with no
    `Composition` built; any other callable on the `Composition` (used
    for planted control statistics); anything else raises ValueError."""
    check_degree(n)
    _check_statistic(stat)
    if isinstance(stat, StatisticId):
        return _blocks(map(_COMP_EVAL[stat], repeat(n), range(full_mask(n) + 1)))
    return _blocks(map(stat, compositions_of(n)))


class ShuffleCompatibilityReport(Frozen):
    __slots__ = __match_args__ = ("statistic", "max_total_length", "compatible", "witness")

    def __init__(self, statistic: str, max_total_length: int, compatible: bool, witness: dict | None = None) -> None:
        self._init_fields(statistic, max_total_length, compatible, witness)

    def as_dict(self) -> dict:
        out = {"statistic": self.statistic, "max_total_length": self.max_total_length, "compatible": self.compatible}
        return out if self.witness is None else {**out, "witness": self.witness}


def check_shuffle_compatible(
    stat: StatisticId | Callable[..., Hashable], max_total_len: int, seed: int = 0
) -> ShuffleCompatibilityReport:
    """Shuffle-compatibility up to total length `max_total_len`: a `StatisticId` by the
    F-product route, which draws no random pair (`ideal.shuffle_compatibility_upto`), a
    callable on `Permutation` by that route's oracle, the word-level brute force
    `words.shuffle_compatible_by_words`; each route's module is imported when it runs."""
    if isinstance(stat, StatisticId):
        from .ideal import shuffle_compatibility_upto
        return shuffle_compatibility_upto(stat, max_total_len)
    from .words import shuffle_compatible_by_words
    return shuffle_compatible_by_words(stat, max_total_len, seed)
