"""Summary arithmetic for the benchmark: medians, the tail percentile, failures.

Kept free of numpy and of conegap so the self-tests can check it in isolation.
"""

import statistics
from dataclasses import dataclass

MIN_BEYOND = 10

FAIL_NONCONVERGED = "nonconverged"
FAIL_RAISED = "raised"
FAIL_UNEXPECTED_EXIT = "unexpected_exit"


@dataclass(frozen=True)
class Tail:
    """A nearest-rank percentile of a sample and the count it was taken from."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values, min_beyond: int = MIN_BEYOND) -> Tail | None:
    """Highest nearest-rank percentile that still has min_beyond samples above its rank.

    With n samples sorted ascending, rank k (1-based) has n - k samples after
    it, so the highest qualifying rank is k = n - min_beyond and its
    percentile is 100 k / n. None when n <= min_beyond: no percentile has
    enough samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - min_beyond
    if k < 1:
        return None
    return Tail(xs[k - 1], 100.0 * k / n, n, n - k)


def failure_reason(raised: bool, exit_code: int | None, expected_exits, converged: bool | None) -> str | None:
    """Why a task failed, or None when it succeeded.

    A task fails if it raised, if it ended with an exit code its input does
    not call for, or if its power iteration did not converge (exit 3 or
    converged false). The first of these that applies is the reason.
    """
    if raised:
        return FAIL_RAISED
    if exit_code == 3 or converged is False:
        return FAIL_NONCONVERGED
    if exit_code is not None and exit_code not in expected_exits:
        return FAIL_UNEXPECTED_EXIT
    return None


def failed_ratio(reasons) -> float:
    """Failed tasks over attempted tasks; reasons holds one entry per attempted task."""
    reasons = list(reasons)
    if not reasons:
        raise ValueError("no task was attempted")
    return sum(r is not None for r in reasons) / len(reasons)


def median(values) -> float:
    return float(statistics.median(values))
