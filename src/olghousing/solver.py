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
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .errors import (DomainError, HorizonError, SolverError, bounded, bounded_as, check,
                     check_fields)
from .preferences import CesAggregator, HousingUtility
from .regimes import EconomyParams, SteadyStateKind, TerminalKind, steady_state
from .roots import newton

__all__ = [
    "Segment",
    "EndowmentPath",
    "Column",
    "TerminalKind",
    "EquilibriumPath",
    "BeliefSchedule",
    "backward_step",
    "solve_path",
    "solve_scenario",
]

log = logging.getLogger(__name__)

# a share root below this counts as unrepresentable
_TINY_SHARE = 1e-300
# the share root is sought in x = log w, where w is the smaller of u and the
# young's own consumption share 1 - u; the search stops at this floor, just
# past where w falls below _TINY_SHARE
_FLOOR_LOG_U = math.log(_TINY_SHARE) - 1.0
# a priced date whose relative equation error exceeds this fails
_RESIDUAL_BOUND = 1e-10
# iteration cap of one share root: above the ~330 ln 8 steps that cross the
# whole log u range, so only a failure to converge reaches it
_MAX_NEWTON = 400
# a rent below this (the least normal float) has lost precision
_NORMAL_MIN = sys.float_info.min


@dataclass(frozen=True)
class Segment:
    """One balanced-growth piece of an endowment schedule.

    Endowment levels at date t >= start are ``e1 * G**t`` and ``e2 * G**t``
    (the exponent counts from date 0, so consecutive segments with equal
    levels join continuously).
    """

    start: int = bounded(int, at_least=0)
    e1: float = bounded_as(EconomyParams, "e1")
    e2: float = bounded_as(EconomyParams, "e2")
    # only the final segment must grow (``EndowmentPath``)
    G: float = bounded(above=0.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EndowmentPath:
    """Piecewise balanced-growth endowment schedule.

    Segments are dated by their first period; the last one extends forever
    and must have a growth factor above 1. ``T_max`` is the nominal horizon
    used as a default by consumers of the schedule; ``levels`` evaluates
    the schedule on any number of dates.
    """

    segments: tuple[Segment, ...]
    T_max: int = bounded(int, at_least=0)

    def __post_init__(self):
        check_fields(self)
        if not self.segments:
            raise DomainError("endowment path needs at least one segment")
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if segs[0].start != 0:
            raise DomainError(f"first segment must start at date 0, got {segs[0].start}")
        for a, b in zip(segs, segs[1:]):
            if b.start <= a.start:
                raise DomainError("segment start dates must be strictly increasing")
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
                        f"endowment level is not finite at date {t} (G={seg.G!r}); "
                        "shorten the horizon"
                    )
                young.append(e_y)
                old.append(e_o)
        return young, old

    @property
    def balanced_from(self) -> int:
        return self.segments[-1].start

    def final_params(self, params: EconomyParams) -> EconomyParams:
        """Economy primitives on the final balanced-growth segment."""
        seg = self.segments[-1]
        return EconomyParams(agg=params.agg, housing=params.housing,
                             G=seg.G, e1=seg.e1, e2=seg.e2)


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
        ann = tuple((check(a, int, name=f"announcements[{i}] date", at_least=0), p)
                    for i, (a, p) in enumerate(self.announcements))
        object.__setattr__(self, "announcements", ann)
        if not ann:
            raise DomainError("belief schedule needs at least one announcement")
        if ann[0][0] != 0:
            raise DomainError(f"first announcement must be at date 0, got {ann[0][0]}")
        for (a, _), (b, _) in zip(ann, ann[1:]):
            if b <= a:
                raise DomainError("announcement dates must be strictly increasing")


class Column(list):
    """One path column: a list of floats (of ints for ``belief_index``), one per date.

    A list, so a caller reads or sets an entry by date; ``max()`` returns
    the largest entry, for callers that ask the column for it (the
    benchmark's checks read ``path.residuals.max()``).
    """

    __slots__ = ()

    def max(self):
        return max(self)


@dataclass(frozen=True)
class EquilibriumPath:
    """A solved equilibrium on dates 0..T (every column has length T+1).

    Stored as solved, under the belief active at each date (``belief_index``,
    all zeros for a plain solve): endowments ``e_y``/``e_o``, the share ``s``
    of young income spent on housing, the price ``P``, the rent ``r``, young
    consumption ``c_y = e_y - S`` (from the young's own share 1 - u where
    Newton solved for it, as the difference cancels) and the relative equation error
    ``residuals``; ``S_after`` is the expenditure at T+1 under the belief
    active at T. The rest follows from the identities, once, on first use:
    expenditure ``S = s*e_y``, old consumption ``c_o = e_o + S``, the gross
    interest rate ``R_t = S_{t+1}/P_t`` (no arbitrage; across a revision it
    uses the post-revision expenditure), the date-0 present-value price
    ``q`` chained through R, and ``balanced_from``, the first date of the
    realized endowments' final balanced-growth segment.
    """

    e_y: Column
    e_o: Column
    s: Column
    P: Column
    r: Column
    c_y: Column
    belief_index: Column
    residuals: Column
    terminal_kind: TerminalKind
    endowments: EndowmentPath
    S_after: float
    revision_dates: tuple[int, ...] = ()

    @property
    def T(self) -> int:
        return len(self.s) - 1

    @property
    def balanced_from(self) -> int:
        return self.endowments.balanced_from

    @cached_property
    def S(self) -> Column:
        return Column(map(operator.mul, self.s, self.e_y))

    @cached_property
    def c_o(self) -> Column:
        return Column(map(operator.add, self.e_o, self.S))

    @cached_property
    def R(self) -> Column:
        return Column(map(operator.truediv, [*self.S[1:], self.S_after], self.P))

    @cached_property
    def q(self) -> Column:
        # q_0 = 1 and q_{t+1} = q_t / R_t, divided in date order: 1/cumprod(R)
        # rounds differently
        return Column(accumulate(self.R[:-1], operator.truediv, initial=1.0))


def _terms(agg: CesAggregator, gamma: float, rent_scale: float,
           share_next_scaled: float, z_hat: float, u: float, y: float) -> tuple:
    """The equilibrium equation's terms at one date, at share ``u``.

    ``share_next_scaled`` is S_{t+1}/e_y_t and ``z_hat`` is next-period old
    cash-in-hand (e_o_{t+1} + S_{t+1})/e_y_t, both in units of young income.
    The equation balances ``resale = share_next_scaled*c_z`` plus ``rent``
    against ``spent = u*c_y`` at young consumption ``y = 1 - u`` (passed
    separately, so a caller that tracks y keeps its precision); the rent is
    ``rent_scale * c**gamma``, with ``rent_scale = m * e_y_t**(gamma - 1)``.
    Returns ``(resale, spent, rent, c, c_y, c_z, c_yz)``, from one aggregator
    call.
    """
    c, cy, cz, cyz = agg.value_partials(y, z_hat)
    return share_next_scaled * cz, u * cy, rent_scale * c ** gamma, c, cy, cz, cyz


def _solve_share(agg: CesAggregator, housing: HousingUtility,
                 share_next_scaled: float, z_hat: float, e_y_t: float,
                 near: tuple[float, float] | None = None,
                 step: float = 0.0) -> tuple[float, float, float, float, int, int]:
    """Root of the equilibrium equation (``_terms``) for the current expenditure share.

    Safeguarded Newton (``roots.newton``) in ``x = log w``, where ``w`` is
    whichever of the share u and the young's own consumption share
    y = 1 - u is smaller at ``near``, a neighbouring date's root ``(u, y)``.
    x is measured from that w, so every iterate's w is as precise as a
    float allows, and the iteration starts ``step`` away from it. Without
    ``near`` it starts at ``(u, y) = (g, 1)/(1 + g)``, with
    ``g = (share_next_scaled*c_z + rent)/c_y`` at ``y = 1``, which costs one
    aggregator evaluation. A root whose w lands above one half is solved
    once more, for the other share, from its complement.

    Returns ``(u, y, step, rent_scale, aggregator evaluations, safeguard
    steps)``: the root, the next date's start (the change of x, or 0 after
    a cold start or a change of side) and the date's rent scale for pricing it.
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
    cold = near is None
    if cold:
        resale, _, rent, _, cy, _, _ = _terms(agg, gamma, rent_scale,
                                              share_next_scaled, z_hat, 0.0, 1.0)
        g = (resale + rent) / cy
        near, step = (max(g / (1.0 + g), _TINY_SHARE), max(1.0 / (1.0 + g), _TINY_SHARE)), 0.0
    upper = near[1] < near[0]
    start = near[upper]

    def f(d: float) -> tuple[float, float, float]:
        # decreasing in d: the residual itself when w = u, its negative when w = y
        w = start * math.exp(d)
        if upper:
            u, y = 1.0 - w, w
        elif w >= 1.0:
            raise SolverError("share root pinned against full young income")
        else:
            u, y = w, 1.0 - w
        resale, spent, rent, c, cy, _, cyz = _terms(agg, gamma, rent_scale,
                                                    share_next_scaled, z_hat, u, y)
        # c_yy = -(z/y) c_yz by homogeneity
        slope = (-share_next_scaled * cyz - cy - u * (z_hat / y) * cyz
                 - gamma * rent * cy / c)
        if upper:
            return spent - resale - rent, slope * y, max(resale, spent, rent)
        return resale - spent + rent, slope * u, max(resale, spent, rent)

    evaluations, safeguards = int(cold), 0
    for crossed in (False, True):
        x = math.log(start)
        lo, hi = _FLOOR_LOG_U - x, -x
        d, dx, calls, steps = newton(f, min(max(step, lo), 0.5 * hi), lo, hi, _MAX_NEWTON)
        evaluations, safeguards = evaluations + calls, safeguards + steps
        # the final correction moves the last evaluated point's w by the factor
        # e^dx; applied to w directly, it is not rounded away
        w = start * math.exp(d)
        shift = w * math.expm1(dx)
        u, y = (1.0 - w - shift, w + shift) if upper else (w + shift, 1.0 - (w + shift))
        w = y if upper else u
        if crossed or w <= 0.5:
            break
        # w crossed one half: solve once more, for the other share, from its
        # value at this root (1 - w, exact there by Sterbenz)
        upper, step, start = not upper, 0.0, max(u if upper else y, _TINY_SHARE)
    if u < _TINY_SHARE or y < _TINY_SHARE:
        raise SolverError("share root pinned against full young income" if y < u
                          else "share root vanished below representable range")
    step = 0.0 if cold or crossed else math.log(w / start)
    return u, y, step, rent_scale, evaluations, safeguards


def backward_step(housing: HousingUtility, agg: CesAggregator,
                  S_next: float, e_y_t: float, e_o_next: float) -> float:
    """One backward-induction step: today's expenditure from tomorrow's.

    Returns the unique S in (0, e_y_t) balancing the young's housing demand
    against the resale value and rent, given next-period expenditure
    ``S_next`` and old endowment ``e_o_next``.
    """
    S_next = check(S_next, name="S_next", at_least=0.0)
    e_y_t = check(e_y_t, name="e_y_t", above=0.0)
    e_o_next = check(e_o_next, name="e_o_next", above=0.0)
    share = _solve_share(agg, housing, S_next / e_y_t, (e_o_next + S_next) / e_y_t, e_y_t)[0]
    return share * e_y_t


def _terminal_seed(params: EconomyParams, endowments: EndowmentPath,
                   terminal: TerminalKind) -> tuple[float, float | None, int]:
    """Terminal share seed, the slope ``lambda1`` at its steady state, and the pad.

    The pad is the distance beyond the horizon at which the seed is planted.
    The backward recursion contracts seed error by 1/|lambda1| per step, so
    around 28 e-foldings leave a relative error of about e^-28 ~ 6.9e-13 at
    date T, not machine precision: tripling this pad moves a fundamental
    path's s_T (seeded at 0) by 6.2-6.8e-13. The pad is 60 to 5000
    periods, and 1 only for a seed that is exact: the gamma = 1 share, and
    a bubbly share that is not a saddle. A fundamental seed is share 0 (its
    steady state is a detrended level), never exact, so it takes 5000
    periods where |lambda1| is too close to 1 for 28 e-foldings.
    """
    rep = steady_state(endowments.final_params(params), terminal)
    if rep is None:
        return 1.0 - 1e-6, None, 150
    fundamental = rep.kind is SteadyStateKind.FUNDAMENTAL_DETRENDED
    seed = 0.0 if fundamental else rep.s_star
    if not fundamental and (rep.kind is SteadyStateKind.GAMMA1_BALANCED_GROWTH
                            or not abs(rep.lambda1) > 1.0 + 1e-12):
        return seed, rep.lambda1, 1
    rate = math.log(abs(rep.lambda1)) if abs(rep.lambda1) > 1.0 else 0.0
    return seed, rep.lambda1, max(math.ceil(28.0 / rate), 60) if rate > 28.0 / 5000 else 5000


def _price_date(terms: tuple, S_next: float, e_y_t: float, t: int) -> tuple[float, float, float]:
    """``(P, r, residual)`` at a solved date, from the equation's ``_terms`` at its root."""
    a, b, rent, _, cy, cz, _ = terms
    # price and rent from their own first-order conditions; this avoids
    # the cancellation in S - r when the price is a sliver of S, and in
    # S - P when the rent is (the marginal utilities are scale free)
    price = S_next * cz / cy
    if not price > 0.0:
        raise HorizonError(
            f"nonpositive house price at date {t}: P={price!r}; "
            "no positive float represents it"
        )
    rent_level = (rent / cy) * e_y_t
    if not rent_level >= _NORMAL_MIN:
        raise HorizonError(
            f"rent underflows below the normal float range at date {t}: r={rent_level!r}"
        )
    if S_next / price == math.inf:
        raise HorizonError(
            f"house price underflows against expenditure at date {t}: P={price!r}, "
            f"S_next={S_next!r}, so the interest rate S_next/P is infinite"
        )
    residual = abs(a - b + rent) / max(a, b, rent)
    if not residual <= _RESIDUAL_BOUND:
        raise SolverError(f"equation residual {residual:.3g} exceeds "
                          f"{_RESIDUAL_BOUND:g} at date {t}")
    return price, rent_level, residual


def _backward(params: EconomyParams, endowments: EndowmentPath, terminal: TerminalKind | str,
              T: int, first: int, stop: int) -> tuple:
    """One belief's equilibrium, solved backwards from its terminal seed down to date ``first``.

    The seed is the steady state of the requested long run, planted ``pad``
    periods beyond T (``_terminal_seed``). Each date's share is solved once,
    and dates ``first..stop-1`` are also priced from the equation solved
    there. A date's root and its warm start read only later dates, so every
    returned date carries the same bits as in a solve down to date 0.

    Returns ``(e_y, e_o, s, P, r, c_y, residuals, S_stop)``: lists over dates
    ``first..stop-1``, and the expenditure at date ``stop``.
    """
    if T < endowments.balanced_from:
        raise HorizonError(
            f"horizon {T} ends before the final balanced-growth segment "
            f"starting at {endowments.balanced_from}"
        )
    terminal = TerminalKind(terminal)
    seed_share, lambda1, pad = _terminal_seed(params, endowments, terminal)
    t_seed = T + pad
    log.debug(
        "solve_path: terminal=%s T=%d pad=%d seed_share=%.6g lambda1=%s",
        terminal.value, T, pad, seed_share,
        "n/a" if lambda1 is None else f"{lambda1:.6g}",
    )

    agg, housing = params.agg, params.housing
    e_y, e_o = endowments.levels(t_seed + 1)

    shares = [0.0] * (t_seed + 1)
    shares[t_seed] = float(seed_share)
    P, r, c_y, residuals = ([0.0] * (stop - first) for _ in range(4))
    # each date starts from the next date's root ``(u, y)``, stepped on as
    # ``_solve_share`` says; a zero seed leaves the first date to the cold start
    near = (seed_share, 1.0 - seed_share) if seed_share > 0.0 else None
    step = 0.0
    evaluations = worst = safeguards = 0
    for t in range(t_seed - 1, first - 1, -1):
        S_next = shares[t + 1] * e_y[t + 1]
        share_next_scaled = shares[t + 1] * (e_y[t + 1] / e_y[t])
        z_hat = (e_o[t + 1] + S_next) / e_y[t]
        try:
            u, y, step, rent_scale, calls, steps = _solve_share(
                agg, housing, share_next_scaled, z_hat, e_y[t], near, step)
        except HorizonError as exc:
            raise HorizonError(f"{exc} (date {t}); shorten the horizon") from None
        except SolverError as exc:
            raise SolverError(f"{exc} (date {t})") from None
        shares[t] = u
        near = (u, y)
        evaluations += calls
        safeguards += steps
        worst = max(worst, calls)
        if t < stop:
            # priced, and c_y formed, at the y Newton solved for where it is
            # the smaller share: e_y - S would lose its precision as u nears 1
            P[t - first], r[t - first], residuals[t - first] = _price_date(
                _terms(agg, housing.gamma, rent_scale, share_next_scaled, z_hat, u, y),
                S_next, e_y[t], t)
            c_y[t - first] = e_y[t] * y if y < u else e_y[t] - u * e_y[t]
    if log.isEnabledFor(logging.DEBUG):
        largest = max(residuals)
        log.debug(
            "solve_path: %d aggregator evaluations over %d dates (at most %d on one date), "
            "%d safeguard steps, largest residual %.3g at date %d",
            evaluations, t_seed - first, worst, safeguards, largest,
            first + residuals.index(largest),
        )
    return (e_y[first:stop], e_o[first:stop], shares[first:stop], P, r, c_y, residuals,
            shares[stop] * e_y[stop])


def _stitch(params: EconomyParams, announcements: Sequence[tuple[int, EndowmentPath]],
            terminals: Sequence[TerminalKind | str], T: int,
            realized: EndowmentPath) -> EquilibriumPath:
    """The path on dates 0..T that each belief solves from its announcement on.

    Belief ``k`` is solved down to its announcement date and its dates up to
    the next announcement are kept; the record ends with the last belief's
    expenditure at T+1.
    """
    bounds = [a for a, _ in announcements] + [T + 1]
    # e_y, e_o, s, P, r, c_y and residuals, each belief's window after the last
    columns = [Column() for _ in range(7)]
    for k, (a_k, believed) in enumerate(announcements):
        *window, S_after = _backward(params, believed, terminals[k], T, a_k, bounds[k + 1])
        for column, part in zip(columns, window):
            column.extend(part)
    e_y, e_o, s, P, r, c_y, residuals = columns
    return EquilibriumPath(
        e_y=e_y, e_o=e_o, s=s, P=P, r=r, c_y=c_y, residuals=residuals,
        belief_index=Column(k for k in range(len(announcements))
                            for _ in range(bounds[k], bounds[k + 1])),
        terminal_kind=TerminalKind(terminals[-1]),
        endowments=realized,
        S_after=S_after,
        revision_dates=tuple(a for a, _ in announcements[1:]),
    )


def solve_path(params: EconomyParams,
               endowments: EndowmentPath | None,
               terminal: TerminalKind | str,
               T: int) -> EquilibriumPath:
    """Equilibrium path on dates 0..T for one fixed belief.

    The terminal condition seeds the expenditure share at the steady state
    of the requested long run, ``pad`` periods beyond T (``_terminal_seed``),
    then walks the equilibrium equation backwards. Each date is solved once:
    on dates 0..T the equation solved for the share also gives the price,
    rent and residual.

    Raises a regime error when the final segment does not admit the
    requested terminal, and a horizon error when the horizon precedes the
    final segment or, on the returned window, some price fails to be
    positive or underflows against expenditure, or some rent underflows.
    A solver error names the date whose share root is not representable or
    whose residual exceeds 1e-10.
    """
    if T < 1:
        raise HorizonError(f"horizon must be at least 1, got {T}")
    if endowments is None:
        endowments = EndowmentPath.from_params(params, T)
    return _stitch(params, ((0, endowments),), (terminal,), T, endowments)


def solve_scenario(params: EconomyParams,
                   schedule: BeliefSchedule,
                   realized: EndowmentPath,
                   terminals: Sequence[TerminalKind | str],
                   T: int) -> EquilibriumPath:
    """Equilibrium under a sequence of belief revisions.

    Solves each announced belief from its seed down to its announcement
    date and reports, at each date, the values of the belief active there
    (only those dates of a belief are priced). Prices and rents are belief
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
    if T < 1:
        raise HorizonError(f"horizon must be at least 1, got {T}")
    if announcements[-1][0] > T:
        raise HorizonError("last announcement lies beyond the horizon")

    ends = [a for a, _ in announcements[1:]] + [T + 1]
    real_y, real_o = realized.levels(T + 1)
    for (a_k, believed), end in zip(announcements, ends):
        believed_y, believed_o = believed.levels(end)
        for t, (by, bo, ry, ro) in enumerate(zip(believed_y, believed_o, real_y, real_o)):
            if not (math.isclose(by, ry, rel_tol=1e-12) and math.isclose(bo, ro, rel_tol=1e-12)):
                raise DomainError(
                    f"belief announced at {a_k} disagrees with realized endowments "
                    f"at date {t} (believed ({by:.6g}, {bo:.6g}), realized ({ry:.6g}, {ro:.6g}))"
                )

    path = _stitch(params, announcements, terminals, T, realized)
    log.debug("solve_scenario: %d beliefs over horizon %d", len(announcements), T)
    return path
