"""Tests for bubble detection, efficiency classification, and tail growth."""
import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from olghousing.analytics import (
    EfficiencyBranch,
    Verdict,
    _tail_interest,
    detect_bubble,
    efficiency_test,
    tail_growth,
)
from olghousing.errors import ApplicabilityError, DomainError
from olghousing.preferences import CesAggregator, HousingUtility
from olghousing.regimes import EconomyParams, fundamental_steady_state, welfare_class
from olghousing.solver import (
    BeliefSchedule,
    Column,
    EndowmentPath,
    EquilibriumPath,
    Segment,
    TerminalKind,
    solve_path,
    solve_scenario,
)

# Characterization constants frozen from the solved benchmark paths; the
# nearby analytic limits are asserted separately at their own tolerances.
RHO_FUNDAMENTAL = 0.9999915772548414
RHO_BUBBLY = 0.9534760970812631
B0_BUBBLY = 0.09881924772858142


def make_params(beta=0.5, sigma=1.0, gamma=0.5, m=0.1, G=1.1, e1=95.0, e2=105.0):
    return EconomyParams(
        agg=CesAggregator(beta=beta, sigma=sigma),
        housing=HousingUtility(gamma=gamma, m=m),
        G=G, e1=e1, e2=e2,
    )


FUND = make_params()
BUB = make_params(e1=105.0, e2=95.0)
ASYM_BUB = make_params(beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08,
                       e1=100.0, e2=50.0)
POSS = make_params(e1=100.0, e2=98.0)       # between the two thresholds
NEAR_G = make_params(e1=100.0, e2=100.05)   # rate within delta of growth


@pytest.fixture(scope="module")
def fund_path():
    return solve_path(FUND, None, TerminalKind.FUNDAMENTAL, 200)


@pytest.fixture(scope="module")
def bub_path():
    return solve_path(BUB, None, TerminalKind.BUBBLY, 200)


# ---------------------------------------------------------------- tail_growth

def test_tail_growth_exact_geometric():
    x = 3.0 * 1.1 ** np.arange(50)
    assert tail_growth(x, 20) == pytest.approx(1.1, rel=1e-12)
    assert tail_growth(1e-4 * 0.75 ** np.arange(12), 3) == pytest.approx(0.75, rel=1e-12)


def test_tail_means_are_within_1_5_ulp_of_the_exact_mean_of_their_logs(monkeypatch):
    # exp is the identity here, so tail_growth and _tail_interest return the
    # mean log itself. Each rounds twice, a difference or an exactly rounded
    # sum and then a division by the window, so the bound is 1.5 ulp, not 1
    rng = random.Random(24)
    logs = [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-5.0, 2.0) for _ in range(601)]
    series = [math.exp(v) for v in logs]
    monkeypatch.setattr(math, "exp", float)
    for n in range(1, 301):
        means = [
            (tail_growth(series[:2 * n], n),
             (Fraction(math.log(series[2 * n - 1])) - Fraction(math.log(series[n - 1]))) / n),
            (_tail_interest(SimpleNamespace(R=series[:n]), n),
             sum(map(Fraction, map(math.log, series[:n]))) / n),
        ]
        for got, exact in means:
            assert abs(Fraction(got) - exact) <= Fraction(1.5) * Fraction(math.ulp(got)), n


def test_tail_growth_validation():
    with pytest.raises(DomainError):
        tail_growth([1.0], 1)
    with pytest.raises(DomainError):
        tail_growth([1.0, 2.0, 3.0, 4.0], 3)   # window above half the length
    with pytest.raises(DomainError):
        tail_growth([1.0, -2.0, 3.0, 4.0], 2)
    with pytest.raises(DomainError):
        tail_growth([1.0, 0.0, 3.0, 4.0], 2)
    with pytest.raises(DomainError):
        tail_growth([1.0, math.inf, 3.0, 4.0], 2)


def test_tail_growth_overflow_is_a_domain_error():
    # one increment of log 1e600, a growth factor past the float range
    with pytest.raises(DomainError):
        tail_growth([1.0, 1.0, 1e-300, 1e300], 1)


def test_tail_growth_takes_lists_and_arrays_alike():
    x = 3.0 * 1.1 ** np.arange(50)
    assert tail_growth(x, 20) == tail_growth(x.tolist(), 20) == tail_growth(tuple(x), 20)


@pytest.mark.parametrize("series", [np.ones((8, 2)), [[1.0, 2.0]] * 8, np.ones((8, 1)),
                                    ["a", "b", "c", "d"], [None] * 4, [1j] * 4],
                         ids=["2-D array", "nested list", "column array", "strings",
                              "None", "complex"])
def test_tail_growth_rejects_series_that_are_not_1d_numbers(series):
    with pytest.raises(DomainError):
        tail_growth(series, 1)


# ---------------------------------------------------------------- detect_bubble

def rent_price_sums(path):
    """Running sums of the rent-price ratios r_t/P_t (inf once they overflow)."""
    with np.errstate(over="ignore"):
        return np.cumsum(np.asarray(path.r) / np.asarray(path.P))


def synthetic_path(P, r, T_max=None):
    """Wrap explicit price and rent series in a path object.

    Half of young income buys the house, so S = c_y = P + r, and the last
    interest rate repeats the one before it. The columns are float lists, as
    in a solved path (numpy scalars would warn where floats overflow to inf).
    """
    P = np.asarray(P, dtype=float)
    r = np.asarray(r, dtype=float)
    T = len(P) - 1
    return EquilibriumPath(
        e_y=Column((2.0 * (P + r)).tolist()), e_o=Column([1.0] * (T + 1)),
        s=Column([0.5] * (T + 1)), P=Column(P.tolist()), r=Column(r.tolist()),
        c_y=Column((P + r).tolist()),
        belief_index=Column([0] * (T + 1)),
        residuals=Column([0.0] * (T + 1)),
        terminal_kind=TerminalKind.BUBBLY,
        endowments=EndowmentPath((Segment(0, 1.0, 1.0, 2.0),), T_max or T),
        S_after=float((P[T] + r[T]) / P[T - 1] * P[T]),
    )


def test_synthetic_doubling_price_is_textbook_bubble():
    T = 40
    path = synthetic_path(2.0 ** np.arange(T + 1), np.ones(T + 1))
    verdict = detect_bubble(path)
    assert verdict.is_bubble
    assert verdict.ratio_estimate == pytest.approx(0.5, rel=1e-12)
    sums = rent_price_sums(path)
    assert sums[-1] == pytest.approx(2.0, abs=1e-9)
    assert np.all(np.diff(sums) > 0.0)
    assert verdict.bubble_component_0 > 0.0
    assert verdict.tvc_last > 0.2


def test_fundamental_path_has_no_bubble(fund_path):
    verdict = detect_bubble(fund_path)
    assert not verdict.is_bubble
    assert abs(verdict.ratio_estimate - 1.0) < 1e-3
    assert verdict.ratio_estimate == pytest.approx(RHO_FUNDAMENTAL, rel=1e-9)
    assert abs(verdict.bubble_component_0) < 1e-12 * fund_path.P[0]
    # transversality: present-value prices vanish monotonically at the tail
    assert np.all(np.diff((np.asarray(fund_path.q) * np.asarray(fund_path.P))[-40:]) < 0.0)
    assert verdict.tvc_last < 1e-10
    sums = rent_price_sums(fund_path)
    assert not math.isfinite(sums[-1]) or sums[-1] > 25.0


def test_bubbly_path_detected_with_geometric_ratio(bub_path):
    verdict = detect_bubble(bub_path)
    assert verdict.is_bubble
    assert verdict.ratio_estimate == pytest.approx(RHO_BUBBLY, rel=1e-9)
    # the rent-price ratio decays at the detrended rent growth rate
    assert abs(verdict.ratio_estimate - 1.1 ** -0.5) < 1e-3
    assert verdict.bubble_component_0 == pytest.approx(B0_BUBBLY, rel=1e-8)
    assert verdict.fundamental_value_0 > 0.0
    assert verdict.tvc_last > 0.05


def test_value_decomposition_is_consistent(fund_path, bub_path):
    for path in (fund_path, bub_path):
        verdict = detect_bubble(path)
        assert verdict.fundamental_value_0 + verdict.bubble_component_0 == pytest.approx(
            path.P[0], rel=1e-12)


def test_bubble_component_grows_at_interest_rate(bub_path):
    # reconstruct the whole fundamental-value series with the same
    # truncation remainder, then check B_{t+1} = R_t B_t
    path = bub_path
    T = path.T
    rho_r = tail_growth(path.r, 20)
    discount = float(np.exp(np.mean(np.log(path.R[-20:]))))
    factor = rho_r / discount
    remainder = path.q[T] * path.r[T] * factor / (1.0 - factor)
    pv = np.zeros(T + 1)
    acc = remainder
    for t in range(T, -1, -1):
        pv[t] = acc
        acc += path.q[t] * path.r[t]
    value = pv / path.q
    bubble = path.P - value
    scale = 1e-6 * np.asarray(path.P[:-1])
    live = np.abs(bubble[:-1]) > scale
    growth = bubble[1:][live] / (np.asarray(path.R[:-1])[live] * bubble[:-1][live])
    assert np.abs(growth - 1.0).max() < 1e-8


def test_necessity_regime_paths_are_always_bubbly(bub_path):
    assert detect_bubble(bub_path).is_bubble
    asym = solve_path(ASYM_BUB, None, TerminalKind.BUBBLY, 150)
    assert detect_bubble(asym).is_bubble


def test_gamma_one_and_above_have_no_bubble():
    p1 = solve_path(make_params(gamma=1.0, e1=100.0, e2=100.0), None,
                    TerminalKind.GAMMA1, 120)
    v1 = detect_bubble(p1)
    assert not v1.is_bubble
    assert v1.ratio_estimate == pytest.approx(1.0, rel=1e-10)
    p15 = solve_path(make_params(gamma=1.5), None, TerminalKind.GAMMA_ABOVE_1, 200)
    v15 = detect_bubble(p15)
    assert not v15.is_bubble
    assert v15.ratio_estimate > 1.0


def test_bubbly_tail_growth_triple(bub_path):
    assert abs(tail_growth(bub_path.P) - 1.1) < 1e-3
    assert abs(tail_growth(bub_path.r) - 1.1 ** 0.5) < 1e-3
    assert abs(tail_growth(np.asarray(bub_path.P) / np.asarray(bub_path.r)) - 1.1 ** 0.5) < 1e-3
    asym = solve_path(ASYM_BUB, None, TerminalKind.BUBBLY, 150)
    G, gamma = 1.08, 0.3
    assert abs(tail_growth(asym.P) - G) < 1e-3
    assert abs(tail_growth(asym.r) - G ** gamma) < 1e-3
    assert abs(tail_growth(np.asarray(asym.P) / np.asarray(asym.r)) - G ** (1.0 - gamma)) < 1e-3


def test_fundamental_tail_growth(fund_path):
    assert abs(tail_growth(fund_path.P) - 1.1 ** 0.5) < 1e-3
    assert abs(tail_growth(fund_path.r) - 1.1 ** 0.5) < 1e-3


def test_detect_bubble_window_validation(fund_path):
    with pytest.raises(DomainError):
        detect_bubble(fund_path, window=1)
    late = EndowmentPath((Segment(0, 95.0, 105.0, 1.1),
                          Segment(80, 95.0, 105.0, 1.1)), 90)
    short_tail = solve_path(FUND, late, TerminalKind.FUNDAMENTAL, 90)
    with pytest.raises(ApplicabilityError):
        detect_bubble(short_tail)
    with pytest.raises(ApplicabilityError):
        efficiency_test(short_tail)


def test_detect_bubble_rejects_nonpositive_price():
    P = 2.0 ** np.arange(41)
    path = synthetic_path(P, np.ones(41))
    broken = dataclasses.replace(path, P=P - 2.0)
    with pytest.raises(DomainError):
        detect_bubble(broken)


def test_rent_price_overflow_is_a_domain_error_without_a_warning():
    # a subnormal price puts r/P past the float range, outside the tail window
    P = 2.0 ** np.arange(41)
    P[5] = 1e-320
    with pytest.raises(DomainError):
        detect_bubble(synthetic_path(P, np.ones(41)))


def test_verdicts_carry_only_what_is_reported(bub_path):
    bubble = detect_bubble(bub_path)
    assert [f.name for f in dataclasses.fields(bubble)] == [
        "is_bubble", "ratio_estimate", "fundamental_value_0", "bubble_component_0", "tvc_last"]
    assert type(bubble.tvc_last) is float
    assert bubble.tvc_last == float(bub_path.q[-1] * bub_path.P[-1])
    efficiency = efficiency_test(bub_path)
    assert [f.name for f in dataclasses.fields(efficiency)] == [
        "is_efficient", "rate_estimate", "applicability"]


# ---------------------------------------------------------------- efficiency

EFFICIENCY_CASES = [
    ("fundamental-above-G", FUND, TerminalKind.FUNDAMENTAL, 200,
     Verdict.EFFICIENT, EfficiencyBranch.RATE_ABOVE_GROWTH),
    ("bubbly", BUB, TerminalKind.BUBBLY, 200,
     Verdict.EFFICIENT, EfficiencyBranch.BALANCED_BUBBLY),
    ("possibility-fundamental", POSS, TerminalKind.FUNDAMENTAL, 200,
     Verdict.INEFFICIENT, EfficiencyBranch.RATIO_TEST_CONVERGENT),
    ("possibility-bubbly", POSS, TerminalKind.BUBBLY, 200,
     Verdict.EFFICIENT, EfficiencyBranch.BALANCED_BUBBLY),
    ("near-growth-fundamental", NEAR_G, TerminalKind.FUNDAMENTAL, 200,
     Verdict.UNKNOWN, EfficiencyBranch.BALANCED_AMBIGUOUS),
    ("gamma1", make_params(gamma=1.0, e1=100.0, e2=100.0), TerminalKind.GAMMA1, 120,
     Verdict.EFFICIENT, EfficiencyBranch.RATE_ABOVE_GROWTH),
    ("gamma-above-1", make_params(gamma=1.5), TerminalKind.GAMMA_ABOVE_1, 200,
     Verdict.EFFICIENT, EfficiencyBranch.RATE_ABOVE_GROWTH),
]


@pytest.mark.parametrize("label,params,terminal,T,verdict,branch",
                         EFFICIENCY_CASES, ids=[c[0] for c in EFFICIENCY_CASES])
def test_efficiency_branches(label, params, terminal, T, verdict, branch):
    result = efficiency_test(solve_path(params, None, terminal, T))
    assert result.is_efficient is verdict
    assert result.applicability is branch


def test_efficiency_rate_estimates(fund_path, bub_path):
    rep = fundamental_steady_state(FUND)
    # tail interest rate is the detrended eigenvalue times rent growth
    predicted = rep.lambda1 * 1.1 ** 0.5 / 1.1
    assert efficiency_test(fund_path).rate_estimate == pytest.approx(predicted, rel=1e-4)
    assert efficiency_test(bub_path).rate_estimate == pytest.approx(1.0, abs=1e-3)
    poss = solve_path(POSS, None, TerminalKind.FUNDAMENTAL, 200)
    assert efficiency_test(poss).rate_estimate == pytest.approx(0.98, abs=1e-3)


def test_efficiency_matches_static_welfare_classification():
    for params, terminal, long_run in (
        (FUND, TerminalKind.FUNDAMENTAL, "FundamentalLongRun"),
        (POSS, TerminalKind.FUNDAMENTAL, "FundamentalLongRun"),
        (POSS, TerminalKind.BUBBLY, "BubblyLongRun"),
        (BUB, TerminalKind.BUBBLY, "BubblyLongRun"),
        (ASYM_BUB, TerminalKind.BUBBLY, "BubblyLongRun"),
    ):
        path = solve_path(params, None, terminal, 200)
        dynamic = efficiency_test(path).is_efficient
        static = welfare_class(params, long_run)
        assert dynamic.value == static.value, (params, terminal)


def criterion_sums(path):
    """Running sums of the efficiency criterion terms 1/(G^t q_t) (inf once they overflow)."""
    G = path.endowments.segments[-1].G
    log_terms = np.concatenate(([0.0], np.cumsum(np.log(path.R[:-1]) - math.log(G))))
    with np.errstate(over="ignore"):
        return np.cumsum(np.exp(log_terms))


def test_criterion_sums_shape(fund_path):
    poss = solve_path(POSS, None, TerminalKind.FUNDAMENTAL, 200)
    conv = criterion_sums(poss)
    div = criterion_sums(fund_path)
    assert np.all(np.diff(conv) > 0.0)
    assert np.all(np.diff(div) > 0.0)
    # ratio test on the criterion terms: geometric decay when the rate sits
    # below growth, geometric increase when it sits above
    conv_terms = np.diff(conv)
    div_terms = np.diff(div)
    assert conv_terms[-1] / conv_terms[-2] == pytest.approx(0.98, abs=1e-3)
    assert div_terms[-1] / div_terms[-2] == pytest.approx(1.1053, abs=1e-3)


def test_gamma_above_one_criterion_overflows_to_inf():
    path = solve_path(make_params(gamma=1.5), None, TerminalKind.GAMMA_ABOVE_1, 200)
    result = efficiency_test(path)
    assert result.is_efficient is Verdict.EFFICIENT
    assert math.isinf(criterion_sums(path)[-1])


def test_efficiency_on_stitched_scenario_path():
    base = EndowmentPath((Segment(0, 95.0, 105.0, 1.1),), 120)
    mid = EndowmentPath((Segment(0, 95.0, 105.0, 1.1),
                         Segment(40, 105.0, 95.0, 1.1)), 120)
    full = EndowmentPath((Segment(0, 95.0, 105.0, 1.1),
                          Segment(40, 105.0, 95.0, 1.1),
                          Segment(80, 95.0, 105.0, 1.1)), 120)
    schedule = BeliefSchedule(((0, base), (40, mid), (80, full)))
    sc = solve_scenario(FUND, schedule, full,
                        (TerminalKind.FUNDAMENTAL, TerminalKind.BUBBLY,
                         TerminalKind.FUNDAMENTAL), 120)
    assert not detect_bubble(sc).is_bubble
    result = efficiency_test(sc)
    assert result.is_efficient is Verdict.EFFICIENT
    assert result.applicability is EfficiencyBranch.RATE_ABOVE_GROWTH
