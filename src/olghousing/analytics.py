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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ApplicabilityError, DomainError
from .solver import EquilibriumPath, TerminalKind

__all__ = [
    "BubbleVerdict",
    "EfficiencyVerdict",
    "EfficiencyBranch",
    "Verdict",
    "tail_growth",
    "detect_bubble",
    "efficiency_test",
]


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


def tail_growth(series, window: int = 20) -> float:
    """Geometric mean growth factor over the last ``window`` increments."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DomainError("series must be one-dimensional with at least 2 entries")
    if not (1 <= window <= len(x) // 2):
        raise DomainError(
            f"window must be between 1 and half the series length, got {window} "
            f"for {len(x)} entries"
        )
    if not np.all(np.isfinite(x)) or not np.all(x > 0.0):
        raise DomainError("series entries must be positive and finite")
    logs = np.log(x[-window - 1:])
    return float(np.exp(np.mean(np.diff(logs))))


def _require_balanced_tail(path: EquilibriumPath, window: int) -> None:
    if window < 2:
        raise DomainError(f"tail window must be at least 2, got {window}")
    available = path.T - path.balanced_from + 1
    if available < window + 1:
        raise ApplicabilityError(
            f"tail window of {window} needs {window + 1} dates inside the final "
            f"balanced-growth segment, which has only {available}"
        )


def _tail_interest(path: EquilibriumPath, window: int) -> float:
    """Geometric mean of the interest factors R_t over the last ``window`` dates."""
    return float(np.exp(np.mean(np.log(path.R[-window:]))))


def detect_bubble(path: EquilibriumPath, delta: float = 1e-3,
                  window: int = 20) -> BubbleVerdict:
    """Classify a path as bubbly from the decay of its rent-price ratio.

    The rent-price sum converges (bubble) or diverges (no bubble)
    according to the tail ratio ``rho``; the date-0 fundamental value
    truncates the present-value rent sum at the horizon and closes it with
    a geometric remainder at the fitted tail rates.
    """
    _require_balanced_tail(path, window)
    if not np.all(path.P > 0.0):
        raise DomainError("price must be positive at every date")
    T = path.T
    # at a subnormal price (the solver still accepts one) r/P can pass the
    # float range; tail_growth then rejects the series as a DomainError,
    # without a numpy overflow warning
    with np.errstate(over="ignore"):
        x = path.r / path.P
    rho = tail_growth(x, window)
    rho_r = tail_growth(path.r, window)
    factor = rho_r / _tail_interest(path, window)
    if factor < 1.0:
        remainder = path.q[T] * path.r[T] * factor / (1.0 - factor)
    else:
        remainder = math.inf
    value = float(np.dot(path.q[1:], path.r[1:]) + remainder)
    return BubbleVerdict(
        is_bubble=bool(rho < 1.0 - delta),
        ratio_estimate=rho,
        fundamental_value_0=value,
        bubble_component_0=float(path.P[0] - value),
        tvc_last=float(path.q[T] * path.P[T]),
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
    _require_balanced_tail(path, window)
    if not np.all(path.R > 0.0):
        raise DomainError("interest factors must be positive at every date")
    rate = _tail_interest(path, window) / path.endowments.segments[-1].G
    share_top = float(path.s[-window:].max())

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
