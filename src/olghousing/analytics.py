"""Asset-pricing diagnostics on solved equilibrium paths.

All classifications are limit statements about infinite horizons, so the
finite-horizon versions here work with tail ratio tests plus explicit
geometric remainder bounds, never with raw truncation magnitudes. A price
path carries a bubble exactly when the cumulative rent-price ratios stay
summable; an allocation is efficient exactly when the growth-deflated
interest factors do not shrink the criterion terms geometrically. Windows
must sit inside the final balanced-growth stretch of the path; degenerate
or mixed-regime tails report Unknown rather than guessing.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

from .errors import ApplicabilityError, DomainError, check
from .regimes import TerminalKind
from .solver import EquilibriumPath

__all__ = [
    "BubbleVerdict",
    "EfficiencyVerdict",
    "EfficiencyBranch",
    "Verdict",
    "tail_growth",
    "detect_bubble",
    "efficiency_test",
]

# the verdicts' tail window, and their cut 1 - delta on tail ratios, kept positive
WINDOW = {"kind": int, "at_least": 2}
DELTA = {"above": 0.0, "below": 1.0}


class Verdict(str, Enum):
    EFFICIENT = "Efficient"
    INEFFICIENT = "Inefficient"
    UNKNOWN = "Unknown"


class EfficiencyBranch(str, Enum):
    """Which branch of the efficiency criterion produced the verdict."""

    RATE_ABOVE_GROWTH = "RateAboveGrowth"
    RATIO_TEST_CONVERGENT = "RatioTestConvergent"
    BALANCED_BUBBLY = "BalancedBubblyBounded"
    BALANCED_AMBIGUOUS = "BalancedAmbiguous"
    SHARE_NEAR_ONE = "ShareNearOne"


@dataclass(frozen=True)
class BubbleVerdict:
    """Bubble diagnosis of a price path.

    ``ratio_estimate`` is the tail geometric growth of the rent-price
    ratio; the path is bubbly when that ratio decays (the rent-price sum
    converges). ``fundamental_value_0`` is the truncated present value of
    rents plus a geometric remainder, ``bubble_component_0`` the date-0 gap
    between price and fundamental value, and ``tvc_last`` the present-value
    price q_T P_T, whose limit is the transversality check.
    """

    is_bubble: bool
    ratio_estimate: float
    fundamental_value_0: float
    bubble_component_0: float
    tvc_last: float


@dataclass(frozen=True)
class EfficiencyVerdict:
    """Efficiency diagnosis of an equilibrium path.

    The criterion is the divergence of the sum of the terms 1/(G^t q_t).
    ``rate_estimate`` is the tail geometric mean of R_t/G, their ratio, and
    ``applicability`` names the criterion branch that settled the verdict.
    """

    is_efficient: Verdict
    rate_estimate: float
    applicability: EfficiencyBranch


def _growth(change: float, n: int) -> float:
    """``exp(change/n)``: the geometric mean growth factor of a log change over ``n`` periods.

    A factor beyond the float range is a domain error, not an overflow.
    """
    mean = change / n
    try:
        return math.exp(mean)
    except OverflowError:
        raise DomainError(
            f"tail growth factor exp({mean!r}) exceeds the float range"
        ) from None


def tail_growth(series, window: int = 20) -> float:
    """Geometric mean growth factor over the last ``window`` increments.

    The log increments telescope, so their mean is the change of log
    between the window's two end points over ``window``. ``series`` is any
    one-dimensional sequence of numbers, a list or an array; only the
    ``window + 1`` entries the mean spans are read, and each must be a
    positive finite number.
    """
    window = check(window, int, name="window")
    if getattr(series, "ndim", 1) != 1:
        raise DomainError("series must be one-dimensional")
    try:
        n = len(series)
        x = list(map(float, series[-window - 1:])) if 1 <= window <= n // 2 else None
    except (TypeError, ValueError):
        raise DomainError("series must be a sequence of numbers") from None
    # an int beyond the float range
    except OverflowError:
        raise DomainError("series entries must be positive and finite") from None
    if x is None:
        raise DomainError(
            f"window must be between 1 and half the series length, got {window} "
            f"for {n} entries"
        )
    if not (all(map(math.isfinite, x)) and min(x) > 0.0):
        raise DomainError("series entries must be positive and finite")
    return _growth(math.log(x[-1]) - math.log(x[0]), window)


def _tail_arguments(path: EquilibriumPath, delta: float, window: int) -> tuple[float, int]:
    """``(delta, window)`` as checked, once the window fits the final balanced-growth segment."""
    delta = check(delta, name="delta", **DELTA)
    window = check(window, name="window", **WINDOW)
    available = path.T - path.balanced_from + 1
    if available < window + 1:
        raise ApplicabilityError(
            f"tail window of {window} needs {window + 1} dates inside the final "
            f"balanced-growth segment, which has only {available}"
        )
    return delta, window


def _tail_interest(path: EquilibriumPath, window: int) -> float:
    """Geometric mean of the interest factors R_t over the last ``window`` dates.

    Their logs are summed exactly rounded (``math.fsum``).
    """
    return _growth(math.fsum(map(math.log, path.R[-window:])), window)


def detect_bubble(path: EquilibriumPath, delta: float = 1e-3,
                  window: int = 20) -> BubbleVerdict:
    """Classify a path as bubbly from the decay of its rent-price ratio.

    The rent-price sum converges (bubble) or diverges (no bubble)
    according to the tail ratio ``rho``; the date-0 fundamental value
    truncates the present-value rent sum at the horizon and closes it with
    a geometric remainder at the fitted tail rates.
    """
    delta, window = _tail_arguments(path, delta, window)
    if not min(path.P) > 0.0:
        raise DomainError("price must be positive at every date")
    T = path.T
    # r/P on the last 2*window dates only, the fewest tail_growth takes with
    # this window; at a subnormal price (the solver still accepts one) r/P can
    # pass the float range, and the inf it then gives fails the verdict only
    # inside the window
    tail = -2 * window
    rho = tail_growth(list(map(operator.truediv, path.r[tail:], path.P[tail:])), window)
    rho_r = tail_growth(path.r, window)
    factor = rho_r / _tail_interest(path, window)
    if factor < 1.0:
        remainder = path.q[T] * path.r[T] * factor / (1.0 - factor)
    else:
        remainder = math.inf
    try:
        # exactly rounded, whatever the platform; past the float range fsum
        # raises where a float sum reads inf
        present_value = math.fsum(map(operator.mul, path.q[1:], path.r[1:]))
    except OverflowError:
        present_value = math.inf
    value = present_value + remainder
    return BubbleVerdict(
        is_bubble=rho < 1.0 - delta,
        ratio_estimate=rho,
        fundamental_value_0=value,
        bubble_component_0=path.P[0] - value,
        tvc_last=path.q[T] * path.P[T],
    )


def efficiency_test(path: EquilibriumPath, delta: float = 1e-3,
                    window: int = 20) -> EfficiencyVerdict:
    """Classify a path as efficient from its growth-deflated interest rates.

    The criterion terms are 1/(G^t q_t), the running product of R_s/G.
    Tail rates above growth settle efficiency outright; below growth the
    sums converge and the allocation is inefficient provided the housing
    expenditure share stays bounded below 1; rates balanced at growth are
    efficient when the path sustains a bubble (terms bounded away from 0)
    and indeterminate otherwise.
    """
    delta, window = _tail_arguments(path, delta, window)
    if not min(path.R) > 0.0:
        raise DomainError("interest factors must be positive at every date")
    rate = _tail_interest(path, window) / path.endowments.segments[-1].G
    share_top = max(path.s[-window:])

    if rate >= 1.0 + delta:
        verdict, branch = Verdict.EFFICIENT, EfficiencyBranch.RATE_ABOVE_GROWTH
    elif share_top < 1.0 - delta:
        if rate <= 1.0 - delta:
            verdict, branch = Verdict.INEFFICIENT, EfficiencyBranch.RATIO_TEST_CONVERGENT
        elif path.terminal_kind is TerminalKind.BUBBLY:
            verdict, branch = Verdict.EFFICIENT, EfficiencyBranch.BALANCED_BUBBLY
        else:
            verdict, branch = Verdict.UNKNOWN, EfficiencyBranch.BALANCED_AMBIGUOUS
    else:
        verdict, branch = Verdict.UNKNOWN, EfficiencyBranch.SHARE_NEAR_ONE

    return EfficiencyVerdict(
        is_efficient=verdict,
        rate_estimate=rate,
        applicability=branch,
    )
