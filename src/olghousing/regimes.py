"""Regime thresholds, steady states, local stability, and welfare classification.

An economy is summarized by its old-to-young income ratio on the balanced
growth path. Two thresholds in that ratio partition the parameter space:
above the upper threshold only the no-bubble (fundamental) long run exists,
below the lower threshold every equilibrium carries a housing bubble, and in
between both long runs coexist. All of this applies to the curvature branch
``gamma < 1``; the log branch ``gamma == 1`` has a unique balanced growth
path computed here as well, while ``gamma > 1`` admits no steady state and
its dynamics are handled entirely by the solver. ``classify`` lists the
long runs an economy admits, and ``steady_state`` is the one place that
maps a long run to its steady state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import (BranchError, DomainError, LoanError, RegimeError, SolverError, bounded,
                     check, check_fields)
from .preferences import CesAggregator, HousingUtility
from .roots import newton

__all__ = [
    "EconomyParams",
    "Thresholds",
    "RegimeTag",
    "TerminalKind",
    "Regime",
    "Determinacy",
    "SteadyStateKind",
    "EisCondition",
    "Gamma1Condition",
    "SteadyStateReport",
    "LongRunKind",
    "WelfareClass",
    "CreditTransform",
    "thresholds",
    "classify",
    "bubbly_steady_state",
    "fundamental_steady_state",
    "gamma1_steady_state",
    "steady_state",
    "welfare_class",
    "credit_transform",
]

# |income ratio - threshold| at or below this is reported as a boundary case
BOUNDARY_TOL = 1e-9
# the gamma = 1 steady-state share must lie strictly inside (edge, 1 - edge)
_GAMMA1_EDGE = 1e-12
# evaluation cap of its root solve
_GAMMA1_MAX_EVALUATIONS = 200


@dataclass(frozen=True)
class EconomyParams:
    """Primitives of a balanced-growth economy.

    Parameters
    ----------
    agg : CesAggregator
        Consumption aggregator c(y, z).
    housing : HousingUtility
        Curvature ``gamma`` and marginal housing utility ``m``.
    G : float
        Gross growth factor of endowments, > 1.
    e1, e2 : float
        Young and old endowment levels at date 0; the date-t endowments on
        the balanced path are ``e1 * G**t`` and ``e2 * G**t``.
    """

    agg: CesAggregator
    housing: HousingUtility
    G: float = bounded(above=1.0)
    e1: float = bounded(above=0.0)
    e2: float = bounded(above=0.0)

    def __post_init__(self):
        check_fields(self)

    @property
    def income_ratio(self) -> float:
        """Old-to-young endowment ratio e2/e1, constant on the balanced path."""
        return self.e2 / self.e1


@dataclass(frozen=True)
class Thresholds:
    """Critical income ratios for the gamma < 1 branch.

    Below ``w_f_star`` no fundamental long run exists (every equilibrium is
    bubbly); below ``w_b_star`` a bubbly long run exists. The ordering
    ``0 < w_f_star < w_b_star`` always holds on this branch.
    """

    w_f_star: float
    w_b_star: float


class RegimeTag(str, Enum):
    FUNDAMENTAL = "Fundamental"
    BUBBLE_POSSIBILITY = "BubblePossibility"
    BUBBLE_NECESSITY = "BubbleNecessity"
    COBB_DOUGLAS_FUNDAMENTAL = "CobbDouglasFundamental"
    PATHOLOGICAL_GAMMA_ABOVE_1 = "PathologicalGammaAbove1"


class TerminalKind(str, Enum):
    FUNDAMENTAL = "Fundamental"
    BUBBLY = "Bubbly"
    GAMMA1 = "Gamma1"
    GAMMA_ABOVE_1 = "GammaAbove1"


@dataclass(frozen=True)
class Regime:
    """Classification verdict: regime tag, long runs, boundary diagnostics.

    ``long_runs`` lists the long runs that exist: for gamma < 1, Fundamental
    above ``w_f_star`` and Bubbly below ``w_b_star``, in that order; else the
    branch's one long run. ``boundary`` names the threshold ("w_f_star" or
    "w_b_star") when the income ratio sits within ``BOUNDARY_TOL`` of it;
    such cases are flagged rather than silently classified, and the tag
    then names the regime on the higher-ratio side of the threshold.
    """

    tag: RegimeTag
    income_ratio: float
    thresholds: Thresholds | None = None
    boundary: str | None = None
    long_runs: tuple[TerminalKind, ...] = ()


class Determinacy(str, Enum):
    SADDLE = "Saddle"
    SINK = "Sink"
    NON_HYPERBOLIC = "NonHyperbolic"
    SINGULAR = "SingularLinearization"


class SteadyStateKind(str, Enum):
    FUNDAMENTAL_DETRENDED = "FundamentalDetrended"
    BUBBLY_DETRENDED = "BubblyDetrended"
    GAMMA1_BALANCED_GROWTH = "Gamma1BalancedGrowth"


@dataclass(frozen=True)
class EisCondition:
    """Elasticity-of-substitution determinacy condition at the bubbly state.

    The linearization is informative when ``value`` exceeds ``lower_bound``
    and differs from ``singular_value`` (where the implicit function theorem
    fails).
    """

    value: float
    lower_bound: float
    singular_value: float
    holds: bool


@dataclass(frozen=True)
class Gamma1Condition:
    """Sufficient determinacy condition for the log housing branch."""

    inverse_eis: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady state location, linearized eigenvalues, determinacy verdict.

    ``s_star`` is a detrended housing-expenditure level whose meaning
    depends on ``kind``: the expenditure share of young income at the
    bubbly state, the limit of ``S_t / (e1**gamma * G**(gamma*t))`` at the
    fundamental state, and the constant expenditure share on the gamma = 1
    balanced growth path (where the dynamics are one-dimensional and
    ``lambda2`` is None).
    """

    kind: SteadyStateKind
    s_star: float
    lambda1: float
    lambda2: float | None
    determinacy: Determinacy
    eis_condition: EisCondition | None = None
    determinacy_condition: Gamma1Condition | None = None
    warning: str | None = None


class LongRunKind(str, Enum):
    FUNDAMENTAL_LONG_RUN = "FundamentalLongRun"
    BUBBLY_LONG_RUN = "BubblyLongRun"


class WelfareClass(str, Enum):
    EFFICIENT = "Efficient"
    INEFFICIENT = "Inefficient"


@dataclass(frozen=True)
class CreditTransform:
    """Effective economy after collateralized intra-period lending.

    A loan of ``loan_ratio`` times young income, repaid next period at the
    growth rate, shifts funds from old to young: the effective economy has
    young funds ``e1 * (1 + loan_ratio)`` and old funds
    ``e1 * (income_ratio - loan_ratio)``. ``price_coefficient`` is the
    predicted asymptotic housing price per unit of ``G**t`` in the bubbly
    long run, which rises one-for-one with the loan while consumption is
    unchanged.
    """

    params: EconomyParams
    loan_ratio: float
    w_effective: float
    price_coefficient: float
    condition_holds: bool
    warning: str | None = None


def _require_gamma_below_one(params: EconomyParams, what: str) -> None:
    if params.housing.gamma >= 1.0:
        raise BranchError(
            f"{what} requires gamma < 1, got gamma={params.housing.gamma!r}; "
            "the gamma >= 1 branches have no bubble thresholds"
        )


def thresholds(params: EconomyParams) -> Thresholds:
    """Closed-form critical income ratios bounding the bubble regimes of a
    CES economy (gamma < 1 only).

    Raises ``DomainError`` when they are not positive, finite and ordered
    in floating point, as happens for sigma below about 1e-3.
    """
    _require_gamma_below_one(params, "thresholds")
    agg = params.agg
    if not isinstance(agg, CesAggregator):
        raise BranchError(f"thresholds require a CesAggregator, got {type(agg).__name__}")
    G = params.G
    gamma = params.housing.gamma
    ratio = agg.beta / (1.0 - agg.beta)

    def root(base: float) -> float:
        # base ** (1/sigma), inf where it overflows
        try:
            return base ** (1.0 / agg.sigma)
        except OverflowError:
            return math.inf

    w_f = root(ratio * G ** (gamma - agg.sigma))
    w_b = root(ratio * G ** (1.0 - agg.sigma))
    if not 0.0 < w_f < w_b < math.inf:
        raise DomainError(
            f"thresholds w_f_star={w_f!r} and w_b_star={w_b!r} at sigma={agg.sigma!r} "
            "are not positive, finite and ordered in floating point; sigma is too small "
            "for the other parameters"
        )
    return Thresholds(w_f_star=w_f, w_b_star=w_b)


def _fundamental_level(params: EconomyParams) -> tuple[float, float, float]:
    """The fundamental long run's detrended level ``m c**gamma / (c_y - G**gamma c_z)``
    at consumption (1, G*w), with ``c_y`` and ``G**gamma c_z``.

    The level is inf, or nan, where that denominator is not positive in
    floating point: exactly so at or below ``w_f_star``, and also a few ulps
    above it, where the closed-form threshold test still passes.
    """
    G, gamma = params.G, params.housing.gamma
    c, cy, cz, _ = params.agg.value_partials(1.0, G * params.income_ratio)
    g_cz = G ** gamma * cz
    denom = cy - g_cz
    level = params.housing.m * c ** gamma / denom if denom > 0.0 else math.inf
    return level, cy, g_cz


def classify(params: EconomyParams) -> Regime:
    """Regime tag and long runs from the curvature branch and the income ratio.

    The fundamental long run is listed where the income ratio exceeds
    ``w_f_star`` and its detrended level is finite and positive in floating
    point; the tag follows the closed-form thresholds alone.
    """
    gamma = params.housing.gamma
    w = params.income_ratio
    if gamma > 1.0:
        return Regime(tag=RegimeTag.PATHOLOGICAL_GAMMA_ABOVE_1, income_ratio=w,
                      long_runs=(TerminalKind.GAMMA_ABOVE_1,))
    if gamma == 1.0:
        return Regime(tag=RegimeTag.COBB_DOUGLAS_FUNDAMENTAL, income_ratio=w,
                      long_runs=(TerminalKind.GAMMA1,))
    thr = thresholds(params)
    fundamental = w > thr.w_f_star and 0.0 < _fundamental_level(params)[0] < math.inf
    exists = {TerminalKind.FUNDAMENTAL: fundamental, TerminalKind.BUBBLY: w < thr.w_b_star}
    long_runs = tuple(kind for kind, admitted in exists.items() if admitted)
    if abs(w - thr.w_b_star) <= BOUNDARY_TOL:
        return Regime(tag=RegimeTag.FUNDAMENTAL, income_ratio=w, thresholds=thr,
                      boundary="w_b_star", long_runs=long_runs)
    if abs(w - thr.w_f_star) <= BOUNDARY_TOL:
        return Regime(tag=RegimeTag.BUBBLE_POSSIBILITY, income_ratio=w, thresholds=thr,
                      boundary="w_f_star", long_runs=long_runs)
    if w > thr.w_b_star:
        tag = RegimeTag.FUNDAMENTAL
    elif w > thr.w_f_star:
        tag = RegimeTag.BUBBLE_POSSIBILITY
    else:
        tag = RegimeTag.BUBBLE_NECESSITY
    return Regime(tag=tag, income_ratio=w, thresholds=thr, long_runs=long_runs)


def _linearized_verdict(n: float, d: float) -> tuple[float, Determinacy, str | None]:
    """Slope ``n/d`` of the implicit share map, its determinacy, and a warning."""
    if d == 0.0:
        return (math.inf, Determinacy.SINGULAR,
                "implicit function theorem inapplicable: linearization singular")
    lam1 = n / d
    if abs(lam1) > 1.0:
        verdict = Determinacy.SADDLE
    elif abs(lam1) < 1.0:
        verdict = Determinacy.SINK
    else:
        verdict = Determinacy.NON_HYPERBOLIC
    return lam1, verdict, None


def bubbly_steady_state(params: EconomyParams) -> SteadyStateReport:
    """Bubbly steady state of the detrended dynamics, with local stability.

    Exists iff gamma < 1 and the income ratio lies below ``w_b_star``. The
    state is the housing expenditure share s of young income; the two
    eigenvalues of the linearized two-dimensional map are the implicit
    share-map slope ``lambda1`` and the rent-forcing decay ``lambda2``.
    """
    _require_gamma_below_one(params, "bubbly_steady_state")
    thr = thresholds(params)
    w = params.income_ratio
    if w >= thr.w_b_star:
        raise RegimeError(
            f"no bubbly steady state: income ratio {w:.6g} is not below "
            f"w_b_star {thr.w_b_star:.6g}"
        )
    G = params.G
    gamma = params.housing.gamma
    s = (thr.w_b_star - w) / (thr.w_b_star + 1.0)
    y, z = 1.0 - s, G * (w + s)
    if not y > 0.0:
        raise DomainError(
            f"bubbly steady-state share rounds to 1 at w_b_star={thr.w_b_star!r} "
            f"(sigma={params.agg.sigma!r}), leaving the young no consumption"
        )
    eps = params.agg.eis(y, z)
    n = 1.0 + (1.0 / eps) * s / (1.0 - s)
    d = 1.0 - (1.0 / eps) * s / (w + s)
    lower = (1.0 - thr.w_b_star) / 2.0 * (1.0 - w / thr.w_b_star) / (1.0 + w)
    singular = (1.0 - w / thr.w_b_star) / (1.0 + w)
    cond = EisCondition(
        value=eps,
        lower_bound=lower,
        singular_value=singular,
        holds=(eps > lower and eps != singular),
    )
    lam1, verdict, warning = _linearized_verdict(n, d)
    return SteadyStateReport(
        kind=SteadyStateKind.BUBBLY_DETRENDED,
        s_star=s,
        lambda1=lam1,
        lambda2=G ** (gamma - 1.0),
        determinacy=verdict,
        eis_condition=cond,
        warning=warning,
    )


def fundamental_steady_state(params: EconomyParams) -> SteadyStateReport:
    """Fundamental steady state of the detrended dynamics (gamma < 1).

    The housing expenditure share of income vanishes along the fundamental
    path; the meaningful detrended level is ``S_t / (e1**gamma *
    G**(gamma*t))``, whose limit ``s_star`` is finite exactly when the
    income ratio exceeds ``w_f_star``. A few ulps above it the level is not
    representable in floating point, and that too raises ``RegimeError``.
    """
    _require_gamma_below_one(params, "fundamental_steady_state")
    thr = thresholds(params)
    w = params.income_ratio
    if w <= thr.w_f_star:
        raise RegimeError(
            f"no fundamental long run: income ratio {w:.6g} does not exceed "
            f"w_f_star {thr.w_f_star:.6g}"
        )
    s, cy, g_cz = _fundamental_level(params)
    if not 0.0 < s < math.inf:
        raise RegimeError(
            f"no fundamental long run in floating point: at income ratio {w!r}, "
            f"{w - thr.w_f_star:.3g} above w_f_star, c_y - G**gamma*c_z = {cy - g_cz!r} "
            f"gives the detrended level {s!r}"
        )
    warning = None
    if cy - g_cz < 1e-8 * cy:
        warning = (
            "income ratio is within the near-singular band above w_f_star; "
            "the detrended level is numerically unreliable"
        )
    return SteadyStateReport(
        kind=SteadyStateKind.FUNDAMENTAL_DETRENDED,
        s_star=s,
        lambda1=cy / g_cz,
        lambda2=params.G ** (params.housing.gamma - 1.0),
        determinacy=Determinacy.SADDLE,
        warning=warning,
    )


def gamma1_steady_state(params: EconomyParams) -> SteadyStateReport:
    """Unique balanced growth path of the log housing branch (gamma = 1).

    The expenditure share solves a strictly concave one-dimensional
    first-order condition, found by ``roots.newton`` in log s; a share
    outside ``(1e-12, 1 - 1e-12)``, or a marginal c_y or c_z that
    underflows to zero there, raises ``SolverError``. The report
    carries the implicit map slope as ``lambda1`` (``lambda2`` is None) and
    the sufficient determinacy condition on the inverse elasticity of
    substitution.
    """
    if params.housing.gamma != 1.0:
        raise BranchError(
            f"gamma1_steady_state requires gamma == 1, got {params.housing.gamma!r}"
        )
    agg = params.agg
    G = params.G
    w = params.income_ratio
    m = params.housing.m

    def foc(x: float) -> tuple[float, float, float]:
        # the condition in x = log s, its slope in x, and its largest term
        s = math.exp(x)
        y, z = -math.expm1(x), G * (w + s)
        c, cy, cz, cyz = agg.value_partials(y, z)
        resale, spent, rent = G * cz / c, cy / c, m / s
        # c_yy - 2G c_yz + G^2 c_zz = -c_yz (z + G y)^2 / (y z), from
        # c_yy = -(z/y) c_yz and c_zz = -(y/z) c_yz (homogeneity)
        curvature = cyz * (z + G * y) ** 2 / (y * z * c)
        slope = -s * (curvature + (resale - spent) ** 2) - rent
        return (resale - spent) + rent, slope, max(resale, spent, rent)

    lo = math.log(_GAMMA1_EDGE)
    x, dx, _, _ = newton(foc, math.log(0.5), lo, 0.0, _GAMMA1_MAX_EVALUATIONS)
    if x + dx <= lo:
        raise SolverError(f"gamma = 1 steady-state share lies at or below {_GAMMA1_EDGE:g}")
    # the final correction applied to s directly, so it is not rounded away
    s = math.exp(x)
    s += s * math.expm1(dx)
    if s >= 1.0 - _GAMMA1_EDGE:
        raise SolverError(f"gamma = 1 steady-state share lies at or above 1 - {_GAMMA1_EDGE:g}")

    y, z = 1.0 - s, G * (w + s)
    c, cy, cz, cyz = agg.value_partials(y, z)
    if not cy * cz > 0.0:
        name, marginal = ("c_y", cy) if cy < cz else ("c_z", cz)
        raise SolverError(
            f"marginal {name} = {marginal!r} underflows at the gamma = 1 steady-state "
            f"share s = {s!r}"
        )
    cyy, czz = -(z / y) * cyz, -(y / z) * cyz
    n = (1.0 + m) * cy + G * s * cyz - s * cyy
    d = G * ((1.0 + m) * cz + G * s * czz - s * cyz)
    inverse_eis = c * cyz / (cy * cz)
    bound = (1.0 + w / s) / (1.0 + w) * (1.0 + G * w * cz / cy)
    cond = Gamma1Condition(inverse_eis=inverse_eis, bound=bound, holds=inverse_eis < bound)
    lam1, verdict, warning = _linearized_verdict(n, d)
    return SteadyStateReport(
        kind=SteadyStateKind.GAMMA1_BALANCED_GROWTH,
        s_star=s,
        lambda1=lam1,
        lambda2=None,
        determinacy=verdict,
        determinacy_condition=cond,
        warning=warning,
    )


def steady_state(params: EconomyParams, long_run: TerminalKind | str) -> SteadyStateReport | None:
    """Steady-state report of one long run, None for GammaAbove1 (it has none).

    A long run of another curvature branch raises ``BranchError``; one the
    income ratio does not admit raises ``RegimeError``.
    """
    long_run = TerminalKind(long_run)
    gamma = params.housing.gamma
    if gamma < 1.0:
        if long_run is TerminalKind.FUNDAMENTAL:
            return fundamental_steady_state(params)
        if long_run is TerminalKind.BUBBLY:
            return bubbly_steady_state(params)
        raise BranchError(
            f"terminal {long_run.value} is not admissible for gamma < 1; "
            "choose Fundamental or Bubbly"
        )
    if gamma == 1.0:
        if long_run is not TerminalKind.GAMMA1:
            raise BranchError("gamma == 1 admits only the Gamma1 terminal")
        return gamma1_steady_state(params)
    if long_run is not TerminalKind.GAMMA_ABOVE_1:
        raise BranchError("gamma > 1 admits only the GammaAbove1 terminal")
    return None


def welfare_class(params: EconomyParams, kind: LongRunKind) -> WelfareClass:
    """Pareto classification of a long-run equilibrium kind (gamma < 1).

    Any long run is efficient when the income ratio is at or above
    ``w_b_star``; below it, bubbly long runs are efficient and fundamental
    ones are not. Asking about a fundamental long run that cannot exist
    (income ratio at or below ``w_f_star``) is an error.
    """
    _require_gamma_below_one(params, "welfare_class")
    kind = LongRunKind(kind)
    thr = thresholds(params)
    w = params.income_ratio
    if kind is LongRunKind.FUNDAMENTAL_LONG_RUN and w <= thr.w_f_star:
        raise RegimeError(
            f"no fundamental long run exists at income ratio {w:.6g} <= "
            f"w_f_star {thr.w_f_star:.6g}"
        )
    if w >= thr.w_b_star:
        return WelfareClass.EFFICIENT
    if kind is LongRunKind.BUBBLY_LONG_RUN:
        return WelfareClass.EFFICIENT
    return WelfareClass.INEFFICIENT


def credit_transform(params: EconomyParams, loan_ratio: float) -> CreditTransform:
    """Effective economy when the young can borrow against future income.

    Raising the loan ratio within the feasibility window shifts the bubbly
    long-run housing price up one-for-one (the price coefficient gains
    ``loan_ratio * e1``) without changing consumption. Outside the window
    the bubbly long run may not exist and a warning is attached.
    """
    _require_gamma_below_one(params, "credit_transform")
    loan_ratio = check(loan_ratio, name="loan_ratio", at_least=0.0)
    w = params.income_ratio
    if loan_ratio >= w:
        raise LoanError(
            f"loan_ratio {loan_ratio:.6g} is not repayable: it must stay below "
            f"the income ratio {w:.6g}"
        )
    thr = thresholds(params)
    lower = (w - thr.w_b_star) / (thr.w_b_star + 1.0)
    condition_holds = w > loan_ratio > lower
    warning = None
    if not condition_holds and loan_ratio > 0.0:
        warning = (
            f"loan_ratio {loan_ratio:.6g} is outside ({max(lower, 0.0):.6g}, {w:.6g}); "
            "the effective economy may not admit a bubbly long run"
        )
    s_star = (thr.w_b_star - w) / (thr.w_b_star + 1.0)
    # e1*(1+ratio) and e1*(w-ratio), written so a zero loan is an exact identity
    effective = replace(
        params,
        e1=params.e1 + loan_ratio * params.e1,
        e2=params.e2 - loan_ratio * params.e1,
    )
    return CreditTransform(
        params=effective,
        loan_ratio=loan_ratio,
        w_effective=(w - loan_ratio) / (1.0 + loan_ratio),
        price_coefficient=(s_star + loan_ratio) * params.e1,
        condition_holds=condition_holds,
        warning=warning,
    )
