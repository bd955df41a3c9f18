"""Equilibrium path computation by backward induction, plus belief scenarios.

The single equilibrium state is the housing expenditure of the young,
``S_t = P_t + r_t``. Given next period's expenditure, the current one is the
unique root of a strictly decreasing equation, so the whole path follows
from a terminal value by backward induction. Terminal values are the steady
states of the detrended dynamics; because the returned window must satisfy
the equilibrium identities everywhere (in particular positive prices), the
seed is planted ``pad`` periods beyond the requested horizon, where the
backward recursion is a contraction, and only dates ``0..T`` are reported.

Belief-revision scenarios solve one full path per announced belief and
stitch them: each date carries the values of the belief active there, the
realized interest rate across a revision uses the post-revision expenditure
(the one-time surprise revaluation), and present-value prices are chained
through realized rates.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import BranchError, DomainError, HorizonError, SolverError
from .preferences import CesAggregator, HousingUtility
from .regimes import (
    EconomyParams,
    bubbly_steady_state,
    fundamental_steady_state,
    gamma1_steady_state,
)
from .roots import newton

__all__ = [
    "Segment",
    "EndowmentPath",
    "TerminalKind",
    "EquilibriumPath",
    "BeliefSchedule",
    "backward_step",
    "solve_path",
    "solve_scenario",
]

log = logging.getLogger(__name__)

# floor on the relative tolerance of the share root solve: about 4 ulp
_MIN_RTOL = 9e-16
# a share root below this counts as unrepresentable
_TINY_SHARE = 1e-300
# the share root is sought in x = log u (gamma <= 1) or x = log(1 - u)
# (gamma > 1, where the young's own consumption share 1 - u is what
# shrinks); the search stops at these floors, just past where u falls below
# _TINY_SHARE and where 1 - e^x rounds to 1
_FLOOR_LOG_U = math.log(_TINY_SHARE) - 1.0
_FLOOR_LOG_Y = math.log(2.0 ** -55)
# iteration cap of one share root: above the ~330 ln 8 steps that cross the
# whole log u range, so only a failure to converge reaches it
_MAX_NEWTON = 400


@dataclass(frozen=True)
class Segment:
    """One balanced-growth piece of an endowment schedule.

    Endowment levels at date t >= start are ``e1 * G**t`` and ``e2 * G**t``
    (the exponent counts from date 0, so consecutive segments with equal
    levels join continuously).
    """

    start: int
    e1: float
    e2: float
    G: float

    def __post_init__(self):
        if not (isinstance(self.start, int) and self.start >= 0):
            raise DomainError(f"segment start must be a nonnegative integer, got {self.start!r}")
        if not (self.e1 > 0.0 and math.isfinite(self.e1)):
            raise DomainError(f"segment e1 must be positive and finite, got {self.e1!r}")
        if not (self.e2 > 0.0 and math.isfinite(self.e2)):
            raise DomainError(f"segment e2 must be positive and finite, got {self.e2!r}")
        if not (self.G > 0.0 and math.isfinite(self.G)):
            raise DomainError(f"segment G must be positive and finite, got {self.G!r}")


@dataclass(frozen=True)
class EndowmentPath:
    """Piecewise balanced-growth endowment schedule.

    Segments are dated by their first period; the last one extends forever
    and must have a growth factor above 1. ``T_max`` is the nominal horizon
    used as a default by consumers of the schedule; ``levels`` evaluates
    the schedule on any number of dates.
    """

    segments: tuple[Segment, ...]
    T_max: int

    def __post_init__(self):
        if not self.segments:
            raise DomainError("endowment path needs at least one segment")
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if segs[0].start != 0:
            raise DomainError(f"first segment must start at date 0, got {segs[0].start}")
        for a, b in zip(segs, segs[1:]):
            if b.start <= a.start:
                raise DomainError("segment start dates must be strictly increasing")
        if not self.T_max >= 0:
            raise DomainError(f"T_max must be nonnegative, got {self.T_max!r}")
        if not segs[-1].G > 1.0:
            raise DomainError(
                f"final segment must grow at a factor above 1, got G={segs[-1].G!r}"
            )

    @classmethod
    def from_params(cls, params: EconomyParams, T_max: int) -> "EndowmentPath":
        return cls(segments=(Segment(0, params.e1, params.e2, params.G),), T_max=T_max)

    def levels(self, n: int) -> tuple[list[float], list[float]]:
        """Young and old endowment levels ``e * G**t`` on dates ``0..n-1``.

        Raises a horizon error at the first date whose level is not finite.
        """
        young: list[float] = []
        old: list[float] = []
        ends = [seg.start for seg in self.segments[1:]] + [n]
        for seg, end in zip(self.segments, ends):
            for t in range(len(young), min(end, n)):
                try:
                    power = seg.G ** t
                except OverflowError:
                    power = math.inf
                e_y, e_o = seg.e1 * power, seg.e2 * power
                if not (math.isfinite(e_y) and math.isfinite(e_o)):
                    raise HorizonError(
                        f"endowment level is not finite at date {t} (G={float(seg.G)!r}); "
                        "shorten the horizon or the terminal padding"
                    )
                young.append(float(e_y))
                old.append(float(e_o))
        return young, old

    @property
    def balanced_from(self) -> int:
        return self.segments[-1].start

    def final_params(self, params: EconomyParams) -> EconomyParams:
        """Economy primitives on the final balanced-growth segment."""
        seg = self.segments[-1]
        return EconomyParams(agg=params.agg, housing=params.housing,
                             G=seg.G, e1=seg.e1, e2=seg.e2)


class TerminalKind(str, Enum):
    FUNDAMENTAL = "Fundamental"
    BUBBLY = "Bubbly"
    GAMMA1 = "Gamma1"
    GAMMA_ABOVE_1 = "GammaAbove1"


@dataclass(frozen=True)
class BeliefSchedule:
    """Dated announcements of the endowment path agents believe in.

    The first announcement must be dated 0 (the initial belief); dates must
    be strictly increasing. Between two announcements, behavior follows the
    earlier belief; at each announcement the equilibrium re-coordinates on
    the new one.
    """

    announcements: tuple[tuple[int, EndowmentPath], ...]

    def __post_init__(self):
        ann = tuple((int(a), p) for a, p in self.announcements)
        object.__setattr__(self, "announcements", ann)
        if not ann:
            raise DomainError("belief schedule needs at least one announcement")
        if ann[0][0] != 0:
            raise DomainError(f"first announcement must be at date 0, got {ann[0][0]}")
        for (a, _), (b, _) in zip(ann, ann[1:]):
            if b <= a:
                raise DomainError("announcement dates must be strictly increasing")


@dataclass(frozen=True)
class EquilibriumPath:
    """A solved equilibrium on dates 0..T (all arrays have length T+1).

    ``S`` is housing expenditure, ``s`` its share of young income, ``P``
    the house price, ``r`` the rent, ``R`` the gross interest rate between
    t and t+1, ``q`` the date-0 present-value price, ``c_y``/``c_o``
    young and old consumption, and ``belief_index`` the index of the belief
    active at each date (all zeros for a plain solve). ``residuals`` holds
    the relative equilibrium-equation error at each date, computed under
    the belief active there. ``balanced_from`` is the first date of the
    final balanced-growth segment of the realized endowments.
    """

    e_y: np.ndarray
    e_o: np.ndarray
    S: np.ndarray
    s: np.ndarray
    P: np.ndarray
    r: np.ndarray
    R: np.ndarray
    q: np.ndarray
    c_y: np.ndarray
    c_o: np.ndarray
    belief_index: np.ndarray
    residuals: np.ndarray
    terminal_kind: TerminalKind
    endowments: EndowmentPath
    balanced_from: int
    revision_dates: tuple[int, ...] = field(default_factory=tuple)

    @property
    def T(self) -> int:
        return len(self.S) - 1


def _equation(agg: CesAggregator, housing: HousingUtility,
              share_next_scaled: float, z_hat: float, e_y_t: float):
    """The equilibrium equation at one date, as a function of today's share u.

    ``share_next_scaled`` is S_{t+1}/e_y_t and ``z_hat`` is next-period old
    cash-in-hand (e_o_{t+1} + S_{t+1})/e_y_t, both in units of young income.
    The equation balances ``share_next_scaled*c_z + rent`` against ``u*c_y``
    at young consumption ``y = 1 - u`` (passed separately, so a caller that
    tracks y keeps its precision). The returned function gives the terms
    ``(resale, spent, rent)`` of the residual ``(resale - spent) + rent``,
    its derivative in u, and the partials ``(c_y, c_z)``, all from one
    aggregator call.
    """
    gamma = housing.gamma
    try:
        rent_scale = housing.m * e_y_t ** (gamma - 1.0)
    except OverflowError:
        rent_scale = math.inf
    if not math.isfinite(rent_scale):
        raise HorizonError(
            f"rent scale m * e_y**(gamma - 1) is not finite at young endowment {e_y_t:.6g}"
        )
    value_partials = agg.value_partials

    def terms(u: float, y: float):
        c, cy, cz, cyz = value_partials(y, z_hat)
        resale, spent, rent = share_next_scaled * cz, u * cy, rent_scale * c ** gamma
        # c_yy = -(z/y) c_yz by homogeneity
        slope = -share_next_scaled * cyz - cy - u * (z_hat / y) * cyz - gamma * rent * cy / c
        return resale, spent, rent, slope, cy, cz

    return terms


def _solve_share(agg: CesAggregator, housing: HousingUtility,
                 share_next_scaled: float, z_hat: float, e_y_t: float, rtol: float,
                 near: float | None = None, step: float = 0.0) -> tuple[float, float, int, int]:
    """Root of the equilibrium equation for the current expenditure share.

    Safeguarded Newton (``roots.newton``) in ``x = log w``, where ``w`` is
    the share u for gamma <= 1 and the young's own consumption share 1 - u
    for gamma > 1 (the one that shrinks there). x is measured from ``near``,
    the w of a neighbouring date's root, so every iterate's w is as precise
    as a float allows, and the iteration starts ``step`` away from it.
    Without ``near`` it starts at ``u = g/(1 + g)``, with
    ``g = (share_next_scaled*c_z + rent)/c_y`` at ``y = 1``, which costs one
    aggregator evaluation.

    Returns ``(u, w, aggregator evaluations, safeguard steps)``.
    """
    terms = _equation(agg, housing, share_next_scaled, z_hat, e_y_t)
    upper = housing.gamma > 1.0
    cold = near is None
    if cold:
        resale, _, rent, _, cy, _ = terms(0.0, 1.0)
        g = (resale + rent) / cy
        near, step = max((1.0 if upper else g) / (1.0 + g), _TINY_SHARE), 0.0

    def point(d: float) -> tuple[float, float]:
        w = near * math.exp(d)
        if upper:
            return 1.0 - w, w
        if w >= 1.0:
            raise SolverError("share root pinned against full young income")
        return w, 1.0 - w

    def f(d: float) -> tuple[float, float, float]:
        # decreasing in d: the residual itself when w = u, its negative when w = 1 - u
        u, y = point(d)
        resale, spent, rent, slope, _, _ = terms(u, y)
        if upper:
            return spent - resale - rent, slope * y, max(resale, spent, rent)
        return resale - spent + rent, slope * u, max(resale, spent, rent)

    x = math.log(near)
    lo, hi = (_FLOOR_LOG_Y if upper else _FLOOR_LOG_U) - x, -x
    d, dx, evaluations, safeguards = newton(f, min(max(step, lo), 0.5 * hi), lo, hi,
                                            max(rtol, _MIN_RTOL), _MAX_NEWTON)
    # the final correction moves the last evaluated point's w by the factor
    # e^dx; applied to w and u directly, it is not rounded away
    u, y = point(d)
    w = y if upper else u
    shift = w * math.expm1(dx)
    u, w = (u - shift, w + shift) if upper else (u + shift, u + shift)
    if u >= 1.0:
        raise SolverError("share root pinned against full young income")
    if u < _TINY_SHARE:
        raise SolverError("share root vanished below representable range")
    return u, w, evaluations + cold, safeguards


def backward_step(housing: HousingUtility, agg: CesAggregator,
                  S_next: float, e_y_t: float, e_o_next: float,
                  tol: float | None = None) -> float:
    """One backward-induction step: today's expenditure from tomorrow's.

    Returns the unique S in (0, e_y_t) balancing the young's housing demand
    against the resale value and rent, given next-period expenditure
    ``S_next`` and old endowment ``e_o_next``.
    """
    if not (S_next >= 0.0 and math.isfinite(S_next)):
        raise DomainError(f"S_next must be nonnegative and finite, got {S_next!r}")
    if not (e_y_t > 0.0 and math.isfinite(e_y_t)):
        raise DomainError(f"e_y_t must be positive and finite, got {e_y_t!r}")
    if not (e_o_next > 0.0 and math.isfinite(e_o_next)):
        raise DomainError(f"e_o_next must be positive and finite, got {e_o_next!r}")
    rtol = _MIN_RTOL if tol is None else float(tol)
    share = _solve_share(
        agg, housing,
        S_next / e_y_t,
        (e_o_next + S_next) / e_y_t,
        e_y_t,
        rtol,
    )[0]
    return share * e_y_t


def _terminal_seed(params: EconomyParams, endowments: EndowmentPath,
                   terminal: TerminalKind) -> tuple[float, float | None]:
    """Terminal share seed and the slope ``lambda1`` at its steady state."""
    gamma = params.housing.gamma
    terminal = TerminalKind(terminal)
    fin = endowments.final_params(params)
    if gamma < 1.0:
        if terminal is TerminalKind.FUNDAMENTAL:
            return 0.0, fundamental_steady_state(fin).lambda1
        if terminal is TerminalKind.BUBBLY:
            rep = bubbly_steady_state(fin)
            return rep.s_star, rep.lambda1
        raise BranchError(
            f"terminal {terminal.value} is not admissible for gamma < 1; "
            "choose Fundamental or Bubbly"
        )
    if gamma == 1.0:
        if terminal is not TerminalKind.GAMMA1:
            raise BranchError("gamma == 1 admits only the Gamma1 terminal")
        rep = gamma1_steady_state(fin)
        return rep.s_star, rep.lambda1
    if terminal is not TerminalKind.GAMMA_ABOVE_1:
        raise BranchError("gamma > 1 admits only the GammaAbove1 terminal")
    return 1.0 - 1e-6, None


def _auto_pad(terminal: TerminalKind, lambda1: float | None) -> int:
    """Distance beyond the horizon at which the terminal seed is planted.

    The backward recursion contracts seed error by 1/|lambda1| per step, so
    around 28 e-foldings leave a relative error of about e^-28 ~ 6.9e-13 at
    date T, not machine precision: tripling this pad moves a fundamental
    path's s_T (seeded at 0) by 6.2-6.8e-13. The seed is always at least
    one period beyond the horizon so every returned date has a successor.
    """
    if terminal is TerminalKind.GAMMA_ABOVE_1:
        return 150
    if terminal is TerminalKind.GAMMA1:
        return 1
    if lambda1 is None or abs(lambda1) <= 1.0 + 1e-12:
        return 1
    pad = math.ceil(28.0 / math.log(abs(lambda1)))
    return min(max(pad, 60), 5000)


def solve_path(params: EconomyParams,
               endowments: EndowmentPath | None,
               terminal: TerminalKind | str,
               T: int,
               tol: float | None = None,
               seed_pad: int | None = None) -> EquilibriumPath:
    """Equilibrium path on dates 0..T for one fixed belief.

    The terminal condition seeds the expenditure share at the steady state
    of the requested long run, ``pad`` periods beyond T (automatic unless
    ``seed_pad`` is given), then walks the equilibrium equation backwards.

    Raises a regime error when the final segment does not admit the
    requested terminal, and a horizon error when the horizon precedes the
    final segment or some price on the returned window fails to be positive.
    """
    if T < 1:
        raise HorizonError(f"horizon must be at least 1, got {T}")
    if endowments is None:
        endowments = EndowmentPath.from_params(params, T)
    if T < endowments.balanced_from:
        raise HorizonError(
            f"horizon {T} ends before the final balanced-growth segment "
            f"starting at {endowments.balanced_from}"
        )
    terminal = TerminalKind(terminal)
    seed_share, lambda1 = _terminal_seed(params, endowments, terminal)
    pad = _auto_pad(terminal, lambda1) if seed_pad is None else max(int(seed_pad), 1)
    t_seed = T + pad
    log.debug(
        "solve_path: terminal=%s T=%d pad=%d seed_share=%.6g lambda1=%s",
        terminal.value, T, pad, seed_share,
        "n/a" if lambda1 is None else f"{lambda1:.6g}",
    )

    agg, housing = params.agg, params.housing
    rtol = _MIN_RTOL if tol is None else float(tol)
    # the recursion runs on plain floats; arrays are built once, in _assemble
    e_y, e_o = endowments.levels(t_seed + 1)

    shares = [0.0] * (t_seed + 1)
    shares[t_seed] = float(seed_share)
    # each date starts from the next date's root, stepped on by the change
    # of log w (w = u, or 1 - u for gamma > 1) from the date after that, a
    # linear extrapolation; a zero seed leaves the first date to the cold start
    near = None
    if seed_share > 0.0:
        near = 1.0 - shares[t_seed] if housing.gamma > 1.0 else shares[t_seed]
    step = 0.0
    evaluations = worst = safeguards = 0
    for t in range(t_seed - 1, -1, -1):
        try:
            shares[t], w, n, k = _solve_share(agg, housing, *_scaled_next(shares, e_y, e_o, t),
                                              e_y[t], rtol, near, step)
        except HorizonError as exc:
            raise HorizonError(
                f"{exc} (date {t}); shorten the horizon or the terminal padding"
            ) from None
        if near is not None:
            step = math.log(w / near)
        near = w
        evaluations += n
        safeguards += k
        if n > worst:
            worst = n
    log.debug(
        "solve_path: %d aggregator evaluations over %d dates (at most %d on one date), "
        "%d safeguard steps",
        evaluations, t_seed, worst, safeguards,
    )

    return _assemble(params, endowments, terminal, T, shares, e_y, e_o)


def _scaled_next(shares: list[float], e_y: list[float], e_o: list[float],
                 t: int) -> tuple[float, float]:
    """``(S_{t+1}/e_y_t, (e_o_{t+1} + S_{t+1})/e_y_t)`` from the share sequence."""
    scale = e_y[t + 1] / e_y[t]
    return (shares[t + 1] * scale,
            (e_o[t + 1] + shares[t + 1] * e_y[t + 1]) / e_y[t])


def _present_value(R: Sequence[float]) -> np.ndarray:
    """Date-0 prices ``q`` chained through the gross interest rates ``R``."""
    q = [1.0]
    for rate in R[:-1]:
        q.append(q[-1] / rate)
    return np.array(q)


def _assemble(params: EconomyParams, endowments: EndowmentPath,
              terminal: TerminalKind, T: int, shares: list[float],
              e_y_full: list[float], e_o_full: list[float]) -> EquilibriumPath:
    """Populate all per-date fields from the solved share sequence."""
    agg, housing = params.agg, params.housing
    n = T + 1
    P: list[float] = []
    r: list[float] = []
    R: list[float] = []
    residuals: list[float] = []
    for t in range(n):
        share = shares[t]
        if not 0.0 < share < 1.0:
            raise HorizonError(f"expenditure share left (0, 1) at date {t}: {share!r}")
        terms = _equation(agg, housing, *_scaled_next(shares, e_y_full, e_o_full, t),
                          e_y_full[t])
        a, b, rent, _, cy_d, cz_d = terms(share, 1.0 - share)
        residuals.append(abs(a - b + rent) / max(a, b, rent))
        # price and rent from their own first-order conditions; this avoids
        # the cancellation in S - r when the price is a sliver of S, and in
        # S - P when the rent is (the marginal utilities are scale free)
        r.append((rent / cy_d) * e_y_full[t])
        S_next = shares[t + 1] * e_y_full[t + 1]
        price = S_next * cz_d / cy_d
        if not price > 0.0:
            raise HorizonError(
                f"nonpositive house price at date {t}: P={price!r}; "
                "the horizon or terminal padding is too short"
            )
        P.append(price)
        R.append(S_next / price)
    e_y = np.array(e_y_full[:n])
    e_o = np.array(e_o_full[:n])
    s = np.array(shares[:n])
    S = s * e_y
    return EquilibriumPath(
        e_y=e_y, e_o=e_o, S=S, s=s, P=np.array(P), r=np.array(r), R=np.array(R),
        q=_present_value(R),
        c_y=e_y - S, c_o=e_o + S,
        belief_index=np.zeros(n, dtype=int),
        residuals=np.array(residuals),
        terminal_kind=terminal,
        endowments=endowments,
        balanced_from=endowments.balanced_from,
    )


def solve_scenario(params: EconomyParams,
                   schedule: BeliefSchedule,
                   realized: EndowmentPath,
                   terminals: Sequence[TerminalKind | str],
                   T: int,
                   tol: float | None = None,
                   seed_pad: int | None = None) -> EquilibriumPath:
    """Equilibrium under a sequence of belief revisions.

    Solves a full path per announced belief and reports, at each date, the
    values of the belief active there. Prices and rents are belief
    consistent; the interest rate and present-value prices are realized
    (across a revision date, R uses the post-revision expenditure, which is
    where the one-time surprise shows). ``terminals`` gives the long-run
    kind per announcement.
    """
    announcements = schedule.announcements
    if len(terminals) != len(announcements):
        raise DomainError(
            f"got {len(terminals)} terminal kinds for {len(announcements)} announcements"
        )
    if announcements[-1][0] > T:
        raise HorizonError("last announcement lies beyond the horizon")

    bounds = [a for a, _ in announcements] + [T + 1]
    real_y, real_o = realized.levels(T + 1)
    for k, (a_k, believed) in enumerate(announcements):
        believed_y, believed_o = believed.levels(min(bounds[k + 1], T + 1))
        for t, (by, bo, ry, ro) in enumerate(zip(believed_y, believed_o, real_y, real_o)):
            if not (math.isclose(by, ry, rel_tol=1e-12) and math.isclose(bo, ro, rel_tol=1e-12)):
                raise DomainError(
                    f"belief announced at {a_k} disagrees with realized endowments "
                    f"at date {t} (believed ({by:.6g}, {bo:.6g}), realized ({ry:.6g}, {ro:.6g}))"
                )

    paths = [
        solve_path(params, believed, terminals[k], T, tol=tol, seed_pad=seed_pad)
        for k, (_, believed) in enumerate(announcements)
    ]
    log.debug("solve_scenario: %d beliefs over horizon %d", len(paths), T)

    n = T + 1
    active = np.zeros(n, dtype=int)
    for k, (a_k, _) in enumerate(announcements):
        active[a_k:] = k

    def pick(attr: str) -> np.ndarray:
        return np.stack([getattr(p, attr) for p in paths])[active, np.arange(n)]

    e_y, e_o, S, s, P, r, c_y, c_o, residuals = map(
        pick, ("e_y", "e_o", "S", "s", "P", "r", "c_y", "c_o", "residuals"))
    R = np.append(S[1:] / P[:-1], paths[active[T]].R[T])
    q = _present_value(R.tolist())
    return EquilibriumPath(
        e_y=e_y, e_o=e_o, S=S, s=s, P=P, r=r, R=R, q=q,
        c_y=c_y, c_o=c_o,
        belief_index=active,
        residuals=residuals,
        terminal_kind=TerminalKind(terminals[-1]),
        endowments=realized,
        balanced_from=realized.balanced_from,
        revision_dates=tuple(a for a, _ in announcements[1:]),
    )
