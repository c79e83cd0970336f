"""Degree-limit configuration.

Compositions of n are keyed by descent subsets encoded as integers in
[0, 2^(n-1)), so every operation refuses degrees beyond a configured
maximum instead of silently producing huge enumerations.  The limit
defaults to 16 and is changed with :func:`set_max_degree`; the library
reads no environment (the CLI's ``--max-degree`` takes its default from
the QSYMK_MAX_DEGREE variable and sets the limit through this module).
"""

from __future__ import annotations

from .errors import DegreeLimitError

DEFAULT_MAX_DEGREE = 16

_override: int | None = None


def max_degree() -> int:
    return DEFAULT_MAX_DEGREE if _override is None else _override


def set_max_degree(limit: int | None) -> int | None:
    """Set (or clear, with None) the process-wide degree limit; returns
    the previous override so callers can restore it."""
    global _override
    if limit is not None:
        if isinstance(limit, bool) or not isinstance(limit, int):
            raise ValueError(f"degree limit must be an int or None, got {limit!r}")
        if limit < 0:
            raise ValueError("degree limit must be nonnegative")
    previous = _override
    _override = limit
    return previous


def check_degree(n: int) -> None:
    """Refuse non-int degrees (a bool too), negative degrees and degrees
    beyond the configured maximum."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"degree must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > max_degree():
        raise DegreeLimitError(
            f"degree {n} exceeds the configured maximum {max_degree()}; "
            "raise it via set_max_degree() or the CLI's --max-degree"
        )
