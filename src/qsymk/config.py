"""Degree-limit configuration.

Compositions of n are keyed by descent subsets encoded as integers in
[0, 2^(n-1)), so every operation refuses degrees beyond a configured
maximum instead of silently producing huge enumerations.  The limit
defaults to 16 and can be overridden with the QSYMK_MAX_DEGREE
environment variable or programmatically via :func:`set_max_degree`.
"""

from __future__ import annotations

import os

from .errors import DegreeLimitError

DEFAULT_MAX_DEGREE = 16
ENV_MAX_DEGREE = "QSYMK_MAX_DEGREE"

_override: int | None = None


def max_degree() -> int:
    if _override is not None:
        return _override
    raw = os.environ.get(ENV_MAX_DEGREE)
    if raw is not None:
        try:
            limit = int(raw)
            if limit >= 0:
                return limit
        except ValueError:
            pass
        raise DegreeLimitError(f"{ENV_MAX_DEGREE} must be a nonnegative integer, got {raw!r}")
    return DEFAULT_MAX_DEGREE


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
            f"raise it via {ENV_MAX_DEGREE} or set_max_degree()"
        )
