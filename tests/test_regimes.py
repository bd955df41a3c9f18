"""Regime, steady-state and welfare tests.

Frozen constants come from 50-digit mpmath closed forms cross-checked
against high-precision implicit-map finite differences; see tools/oracles.py.
"""
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from olghousing import BranchError, CesAggregator, DomainError, HousingUtility, LoanError, RegimeError, SolverError
import olghousing
from olghousing.regimes import (
    BOUNDARY_TOL,
    Determinacy,
    EconomyParams,
    LongRunKind,
    RegimeTag,
    SteadyStateKind,
    SteadyStateReport,
    TerminalKind,
    WelfareClass,
    bubbly_steady_state,
    classify,
    credit_transform,
    fundamental_steady_state,
    gamma1_steady_state,
    steady_state,
    thresholds,
    welfare_class,
)


def make_params(beta=0.5, sigma=1.0, gamma=0.5, m=0.1, G=1.1, e1=95.0, e2=105.0):
    return EconomyParams(
        agg=CesAggregator(beta=beta, sigma=sigma),
        housing=HousingUtility(gamma=gamma, m=m),
        G=G,
        e1=e1,
        e2=e2,
    )


BASE = make_params()                      # income ratio 105/95, fundamental regime
BUBBLY = make_params(e1=105.0, e2=95.0)   # income ratio 95/105, necessity regime
ASYM = make_params(beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08, e1=1.0, e2=0.5)


# ---------------------------------------------------------------- thresholds

def test_thresholds_frozen_symmetric():
    thr = thresholds(BASE)
    assert thr.w_b_star == pytest.approx(1.0, abs=1e-12)
    assert thr.w_f_star == pytest.approx(0.95346258924559228, rel=1e-12)
    assert thr.w_f_star == pytest.approx(1.1 ** -0.5, rel=1e-14)


def test_thresholds_frozen_asymmetric():
    thr = thresholds(ASYM)
    assert thr.w_f_star == pytest.approx(0.73942045535621396, rel=1e-13)
    assert thr.w_b_star == pytest.approx(0.76322780484242733, rel=1e-13)


def test_threshold_ratio_rule_sigma_one():
    # closed forms give w_f*/w_b* = G**((gamma-1)/sigma) < 1
    for gamma in (0.2, 0.5, 0.8):
        p = make_params(gamma=gamma)
        thr = thresholds(p)
        assert thr.w_f_star / thr.w_b_star == pytest.approx(
            p.G ** (gamma - 1.0), rel=1e-12
        )
        assert thr.w_f_star < thr.w_b_star


def test_thresholds_ordered_on_random_economies():
    rng = np.random.default_rng(42)
    for _ in range(25):
        beta = rng.uniform(0.15, 0.85)
        sigma = rng.uniform(0.3, 4.0)
        gamma = rng.uniform(0.05, 0.95)
        G = rng.uniform(1.01, 1.25)
        thr = thresholds(make_params(beta=beta, sigma=sigma, gamma=gamma, G=G))
        assert 0.0 < thr.w_f_star < thr.w_b_star


@pytest.mark.parametrize("beta,sigma,G,where", [
    (0.5, 1e-4, 1.1, "w_b_star=inf"),      # (ratio*G**(1-sigma))**(1/sigma) overflows
    (0.05, 1e-4, 1.01, "w_f_star=0.0"),    # both closed forms underflow to 0
], ids=["overflow", "underflow"])
def test_thresholds_outside_the_float_range_are_a_domain_error(beta, sigma, G, where):
    with pytest.raises(DomainError) as err:
        thresholds(make_params(beta=beta, sigma=sigma, G=G, e1=105.0, e2=95.0))
    assert where in str(err.value) and f"sigma={sigma!r}" in str(err.value)


def test_thresholds_reject_gamma_at_or_above_one():
    with pytest.raises(BranchError):
        thresholds(make_params(gamma=1.0))
    with pytest.raises(BranchError):
        thresholds(make_params(gamma=1.5))


def test_thresholds_reject_non_ces_aggregator():
    class Linear:
        def value(self, y, z):
            return y + z

        def partials(self, y, z):
            return 1.0, 1.0

    params = EconomyParams(agg=Linear(), housing=HousingUtility(gamma=0.5, m=0.1),
                           G=1.1, e1=1.0, e2=1.0)
    with pytest.raises(BranchError):
        thresholds(params)


# ---------------------------------------------------------------- classify

def test_classify_table():
    assert classify(BASE).tag is RegimeTag.FUNDAMENTAL
    assert classify(BUBBLY).tag is RegimeTag.BUBBLE_NECESSITY
    assert classify(make_params(e1=100.0, e2=98.0)).tag is RegimeTag.BUBBLE_POSSIBILITY
    assert classify(make_params(gamma=1.0)).tag is RegimeTag.COBB_DOUGLAS_FUNDAMENTAL
    assert classify(make_params(gamma=1.5)).tag is RegimeTag.PATHOLOGICAL_GAMMA_ABOVE_1
    assert classify(BASE).boundary is None


def test_classify_boundary_flags():
    thr = thresholds(BASE)
    at_b = classify(make_params(e1=1.0, e2=thr.w_b_star * (1.0 + 5e-10)))
    assert at_b.boundary == "w_b_star"
    at_f = classify(make_params(e1=1.0, e2=thr.w_f_star * (1.0 - 5e-10)))
    assert at_f.boundary == "w_f_star"
    clear = classify(make_params(e1=1.0, e2=thr.w_b_star + 1e-6))
    assert clear.boundary is None and clear.tag is RegimeTag.FUNDAMENTAL


def _tag_from_thresholds(w, thr):
    """The regime tag rule, written out independently of ``classify``."""
    if abs(w - thr.w_b_star) <= BOUNDARY_TOL:
        return RegimeTag.FUNDAMENTAL
    if abs(w - thr.w_f_star) <= BOUNDARY_TOL:
        return RegimeTag.BUBBLE_POSSIBILITY
    if w > thr.w_b_star:
        return RegimeTag.FUNDAMENTAL
    return RegimeTag.BUBBLE_POSSIBILITY if w > thr.w_f_star else RegimeTag.BUBBLE_NECESSITY


def test_classify_lists_long_runs():
    F, B = TerminalKind.FUNDAMENTAL, TerminalKind.BUBBLY
    assert classify(BASE).long_runs == (F,)
    assert classify(BUBBLY).long_runs == (B,)
    assert classify(make_params(e1=100.0, e2=98.0)).long_runs == (F, B)
    assert classify(make_params(gamma=1.0)).long_runs == (TerminalKind.GAMMA1,)
    assert classify(make_params(gamma=1.5)).long_runs == (TerminalKind.GAMMA_ABOVE_1,)
    # strict tests: a long run is not listed on its own threshold
    thr = thresholds(BASE)
    assert classify(make_params(e1=1.0, e2=thr.w_b_star)).long_runs == (F,)
    assert classify(make_params(e1=1.0, e2=thr.w_f_star)).long_runs == (B,)


def test_terminal_kind_is_one_class():
    assert olghousing.TerminalKind is olghousing.solver.TerminalKind is TerminalKind


def _random_economies(n=200):
    """Seeded gamma < 1 economies at income ratios spread over both
    thresholds, within BOUNDARY_TOL of each, and exactly on each."""
    rng = np.random.default_rng(15)
    for i in range(n):
        base = make_params(beta=rng.uniform(0.1, 0.9), sigma=math.exp(rng.uniform(-1.5, 2.5)),
                           gamma=rng.uniform(0.05, 0.95), G=rng.uniform(1.01, 1.5),
                           m=10.0 ** rng.uniform(-3.0, 1.0))
        thr = thresholds(base)
        near = (thr.w_f_star, thr.w_b_star)[i % 2]
        w = [rng.uniform(0.5 * thr.w_f_star, 1.5 * thr.w_b_star),
             near + rng.uniform(-BOUNDARY_TOL, BOUNDARY_TOL),
             near][i % 3]
        yield EconomyParams(agg=base.agg, housing=base.housing, G=base.G, e1=1.0, e2=w)


def test_steady_state_exists_exactly_for_the_listed_long_runs():
    boundaries = 0
    for params in _random_economies():
        regime = classify(params)
        w, thr = params.income_ratio, regime.thresholds
        assert regime.tag is _tag_from_thresholds(w, thr)
        boundaries += regime.boundary is not None
        for kind in (TerminalKind.FUNDAMENTAL, TerminalKind.BUBBLY):
            if kind in regime.long_runs:
                assert isinstance(steady_state(params, kind), SteadyStateReport)
            else:
                with pytest.raises(RegimeError):
                    steady_state(params, kind)
    assert boundaries > 100


# income ratio 3 ulps above w_f_star, where c_y - G**gamma*c_z at (1, G*w) rounds to 0
ULP_ABOVE_W_F = make_params(beta=0.5396749501384476, sigma=0.24913420619121826,
                            gamma=0.7281617978073259, m=0.1, G=1.2736902234774463,
                            e1=1.0, e2=3.0147005277667107)


def _ulp_neighbours(x, below=10, above=40):
    """The floats from ``below`` ulps under ``x`` to ``above`` ulps over it."""
    for _ in range(below):
        x = math.nextafter(x, -math.inf)
    for _ in range(below + above + 1):
        yield x
        x = math.nextafter(x, math.inf)


def test_listed_long_runs_have_a_finite_positive_level_ulps_from_each_threshold():
    rng = np.random.default_rng(16)
    economies = [ULP_ABOVE_W_F] + [
        make_params(beta=rng.uniform(0.1, 0.9), sigma=math.exp(rng.uniform(-1.5, 1.6)),
                    gamma=rng.uniform(0.2, 0.95), G=rng.uniform(1.01, 1.5))
        for _ in range(150)]
    dropped = 0
    for base in economies:
        thr = thresholds(base)
        for w in (*_ulp_neighbours(thr.w_f_star), *_ulp_neighbours(thr.w_b_star)):
            params = EconomyParams(agg=base.agg, housing=base.housing, G=base.G, e1=1.0, e2=w)
            regime = classify(params)
            assert regime.tag is _tag_from_thresholds(w, thr)
            for kind in (TerminalKind.FUNDAMENTAL, TerminalKind.BUBBLY):
                if kind in regime.long_runs:
                    assert 0.0 < steady_state(params, kind).s_star < math.inf
                else:
                    with pytest.raises(RegimeError):
                        steady_state(params, kind)
            # only a boundary cell can lose its closed-form fundamental long run
            if w > thr.w_f_star and TerminalKind.FUNDAMENTAL not in regime.long_runs:
                assert regime.boundary is not None
                dropped += 1
    assert TerminalKind.FUNDAMENTAL not in classify(ULP_ABOVE_W_F).long_runs
    assert dropped > 1


def test_steady_state_is_the_long_runs_report():
    assert steady_state(BASE, "Fundamental") == fundamental_steady_state(BASE)
    assert steady_state(BUBBLY, TerminalKind.BUBBLY) == bubbly_steady_state(BUBBLY)
    gamma1 = make_params(gamma=1.0)
    assert steady_state(gamma1, TerminalKind.GAMMA1) == gamma1_steady_state(gamma1)
    assert steady_state(make_params(gamma=1.5), TerminalKind.GAMMA_ABOVE_1) is None


@pytest.mark.parametrize("gamma,kind,message", [
    (0.5, TerminalKind.GAMMA1,
     "terminal Gamma1 is not admissible for gamma < 1; choose Fundamental or Bubbly"),
    (0.5, TerminalKind.GAMMA_ABOVE_1,
     "terminal GammaAbove1 is not admissible for gamma < 1; choose Fundamental or Bubbly"),
    (1.0, TerminalKind.FUNDAMENTAL, "gamma == 1 admits only the Gamma1 terminal"),
    (1.0, TerminalKind.GAMMA_ABOVE_1, "gamma == 1 admits only the Gamma1 terminal"),
    (1.5, TerminalKind.BUBBLY, "gamma > 1 admits only the GammaAbove1 terminal"),
    (1.5, TerminalKind.GAMMA1, "gamma > 1 admits only the GammaAbove1 terminal"),
])
def test_steady_state_branch_errors(gamma, kind, message):
    with pytest.raises(BranchError, match=f"^{re.escape(message)}$"):
        steady_state(make_params(gamma=gamma), kind)


# ---------------------------------------------------------------- bubbly steady state

def _implicit_share_slope(params, s_star, h=1e-6):
    """Finite-difference slope of the one-step share map at the steady state."""
    agg, G, w = params.agg, params.G, params.income_ratio

    def step(s_t):
        def f(x):
            cy, cz = agg.partials(1.0 - s_t, G * (w + x))
            return G * x * cz - s_t * cy

        return brentq(f, 1e-12, 0.999, xtol=1e-15, rtol=8.9e-16)

    return (step(s_star + h) - step(s_star - h)) / (2.0 * h)


def _raw_eigenvalue(params, s):
    # independent route: the eigenvalue from raw second partials
    agg, G, w = params.agg, params.G, params.income_ratio
    y, z = 1.0 - s, G * (w + s)
    cy, cz = agg.partials(y, z)
    # the own second partials from c_yz, by degree-zero homogeneity of c_y and c_z
    cyz = agg.value_partials(y, z)[3]
    cyy, czz = -(z / y) * cyz, -(y / z) * cyz
    n = G * s * cyz + cy - s * cyy
    d = G * cz + G * G * s * czz - G * s * cyz
    return n / d


def test_bubbly_steady_state_symmetric():
    rep = bubbly_steady_state(BUBBLY)
    assert rep.kind is SteadyStateKind.BUBBLY_DETRENDED
    assert rep.s_star == pytest.approx(1.0 / 21.0, rel=1e-12)
    assert rep.lambda1 == pytest.approx(1.1052631578947368, rel=1e-12)
    assert rep.lambda2 == pytest.approx(0.95346258924559228, rel=1e-14)
    assert rep.determinacy is Determinacy.SADDLE
    cond = rep.eis_condition
    assert cond.holds
    assert cond.value == pytest.approx(1.0, rel=1e-12)
    assert cond.lower_bound == pytest.approx(0.0, abs=1e-15)
    assert cond.singular_value == pytest.approx(0.05, rel=1e-10)


def test_bubbly_steady_state_asymmetric():
    p = make_params(beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08, e1=1.0, e2=0.5)
    rep = bubbly_steady_state(p)
    assert rep.s_star == pytest.approx(0.14928746252725464, rel=1e-13)
    assert rep.lambda1 == pytest.approx(2.1314504497249061, rel=1e-12)
    assert rep.lambda2 == pytest.approx(0.94755269500093284, rel=1e-14)
    assert rep.determinacy is Determinacy.SADDLE
    assert rep.eis_condition.lower_bound == pytest.approx(0.027219931272427899, rel=1e-11)
    assert rep.eis_condition.singular_value == pytest.approx(0.22992506577314068, rel=1e-11)
    assert rep.eis_condition.holds


def test_bubbly_steady_state_sink_case():
    p = make_params(sigma=50.0, e1=1.0, e2=0.02)
    rep = bubbly_steady_state(p)
    assert rep.s_star == pytest.approx(0.4661992872700432, rel=1e-13)
    assert rep.lambda1 == pytest.approx(-0.95153050157904146, rel=1e-11)
    assert rep.determinacy is Determinacy.SINK
    assert not rep.eis_condition.holds
    assert rep.eis_condition.lower_bound == pytest.approx(0.042753148231340948, rel=1e-11)


@pytest.mark.parametrize("params", [BUBBLY, ASYM, make_params(sigma=50.0, e1=1.0, e2=0.02)])
def test_bubbly_eigenvalue_routes_agree(params):
    rep = bubbly_steady_state(params)
    assert _raw_eigenvalue(params, rep.s_star) == pytest.approx(rep.lambda1, rel=1e-11)
    assert _implicit_share_slope(params, rep.s_star) == pytest.approx(rep.lambda1, rel=1e-4)


def test_bubbly_state_satisfies_defining_identity():
    # the marginal rate of substitution at the state equals the growth factor
    for params in (BUBBLY, ASYM):
        rep = bubbly_steady_state(params)
        s, G, w = rep.s_star, params.G, params.income_ratio
        cy, cz = params.agg.partials(1.0 - s, G * (w + s))
        assert cy / cz == pytest.approx(G, rel=1e-10)


def test_bubbly_steady_state_errors():
    with pytest.raises(RegimeError):
        bubbly_steady_state(BASE)  # income ratio above w_b_star
    with pytest.raises(BranchError):
        bubbly_steady_state(make_params(gamma=1.0, e1=105.0, e2=95.0))


def test_bubbly_share_rounding_to_one_is_a_domain_error():
    # w_b_star = 2.2e41 makes (w_b_star - w)/(w_b_star + 1) round to 1
    params = make_params(sigma=1e-3, e1=105.0, e2=95.0)
    with pytest.raises(DomainError, match="bubbly steady-state share rounds to 1"):
        bubbly_steady_state(params)


# ---------------------------------------------------------------- fundamental steady state

def test_fundamental_steady_state_frozen():
    rep = fundamental_steady_state(BASE)
    assert rep.kind is SteadyStateKind.FUNDAMENTAL_DETRENDED
    assert rep.s_star == pytest.approx(1.3867804042240574, rel=5e-14)
    assert rep.lambda1 == pytest.approx(1.1592097795564833, rel=1e-13)
    assert rep.lambda2 == pytest.approx(0.95346258924559228, rel=1e-14)
    assert rep.determinacy is Determinacy.SADDLE
    assert rep.warning is None
    # Cobb-Douglas shortcut: lambda1 = G * income_ratio / G**gamma
    assert rep.lambda1 == pytest.approx(
        BASE.G * BASE.income_ratio / BASE.G ** 0.5, rel=1e-14
    )


def test_fundamental_steady_state_asymmetric():
    p = make_params(beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08, e1=1.0, e2=0.9)
    rep = fundamental_steady_state(p)
    assert rep.s_star == pytest.approx(1.1925698455889128, rel=1e-13)
    assert rep.lambda1 == pytest.approx(1.3966795772539269, rel=1e-13)


def test_fundamental_near_singular_warning():
    thr = thresholds(BASE)
    p = make_params(e1=1.0, e2=thr.w_f_star * (1.0 + 1e-10))
    rep = fundamental_steady_state(p)
    assert rep.warning is not None
    assert rep.s_star > 1e6


def test_fundamental_steady_state_errors():
    with pytest.raises(RegimeError):
        fundamental_steady_state(BUBBLY)
    with pytest.raises(BranchError):
        fundamental_steady_state(make_params(gamma=1.2))


# ---------------------------------------------------------------- gamma = 1

def test_gamma1_symmetric_closed_form():
    p = make_params(gamma=1.0, e1=100.0, e2=100.0)
    rep = gamma1_steady_state(p)
    assert rep.kind is SteadyStateKind.GAMMA1_BALANCED_GROWTH
    assert rep.s_star == pytest.approx(1.0 / math.sqrt(11.0), rel=1e-12)
    assert rep.lambda2 is None
    cond = rep.determinacy_condition
    assert cond.holds
    assert cond.inverse_eis == pytest.approx(1.0, rel=1e-12)
    assert cond.bound == pytest.approx(3.3166247903553998, rel=1e-12)
    assert rep.determinacy is Determinacy.SADDLE and rep.lambda1 > 1.0


def test_gamma1_asymmetric_frozen():
    p = make_params(beta=0.35, gamma=1.0, m=0.2, G=1.05, e1=1.0, e2=0.8)
    rep = gamma1_steady_state(p)
    assert rep.s_star == pytest.approx(0.31497742594638207, rel=1e-12)


def test_gamma1_first_order_condition_and_concavity():
    p = make_params(gamma=1.0, e1=100.0, e2=100.0)
    rep = gamma1_steady_state(p)
    agg, G, w, m = p.agg, p.G, p.income_ratio, p.housing.m
    s = rep.s_star
    y, z = 1.0 - s, G * (w + s)
    c = agg.value(y, z)
    cy, cz = agg.partials(y, z)
    assert abs((G * cz - cy) / c + m / s) <= 1e-10

    def objective(sv):
        return math.log(agg.value(1.0 - sv, G * (w + sv))) + m * math.log(sv)

    best = objective(s)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    assert all(objective(sv) <= best + 1e-12 for sv in grid)


def test_gamma1_slope_matches_finite_difference():
    p = make_params(beta=0.35, gamma=1.0, m=0.2, G=1.05, e1=1.0, e2=0.8)
    rep = gamma1_steady_state(p)
    agg, G, w, m = p.agg, p.G, p.income_ratio, p.housing.m

    def step(s_t):
        def f(x):
            y, z = 1.0 - s_t, G * (w + x)
            return G * x * agg.partials(y, z)[1] + m * agg.value(y, z) - s_t * agg.partials(y, z)[0]

        return brentq(f, 1e-12, 0.999, xtol=1e-15, rtol=8.9e-16)

    h = 1e-6
    fd = (step(rep.s_star + h) - step(rep.s_star - h)) / (2.0 * h)
    assert rep.lambda1 == pytest.approx(fd, rel=1e-6)


def test_gamma1_small_housing_weight_shrinks_share():
    p = make_params(gamma=1.0, m=1e-8, e1=100.0, e2=100.0)
    assert gamma1_steady_state(p).s_star < 1e-4


def test_gamma1_underflowing_marginal_is_a_solver_error():
    # at sigma = 50 and a share near 1, c_z = beta (z/c)^-50 underflows to 0
    p = make_params(sigma=50.0, gamma=1.0, m=1e8, e1=100.0, e2=100.0)
    with pytest.raises(SolverError, match="marginal c_z = 0.0 underflows"):
        gamma1_steady_state(p)


def test_gamma1_branch_errors():
    with pytest.raises(BranchError):
        gamma1_steady_state(BASE)
    with pytest.raises(BranchError):
        gamma1_steady_state(make_params(gamma=1.5))


# ---------------------------------------------------------------- welfare

def test_welfare_class_table():
    assert welfare_class(BASE, LongRunKind.FUNDAMENTAL_LONG_RUN) is WelfareClass.EFFICIENT
    poss = make_params(e1=100.0, e2=98.0)
    assert welfare_class(poss, LongRunKind.FUNDAMENTAL_LONG_RUN) is WelfareClass.INEFFICIENT
    assert welfare_class(poss, LongRunKind.BUBBLY_LONG_RUN) is WelfareClass.EFFICIENT
    assert welfare_class(BUBBLY, LongRunKind.BUBBLY_LONG_RUN) is WelfareClass.EFFICIENT
    assert welfare_class(BASE, "BubblyLongRun") is WelfareClass.EFFICIENT


def test_welfare_class_errors():
    with pytest.raises(RegimeError):
        welfare_class(BUBBLY, LongRunKind.FUNDAMENTAL_LONG_RUN)
    with pytest.raises(BranchError):
        welfare_class(make_params(gamma=1.0), LongRunKind.FUNDAMENTAL_LONG_RUN)
    # above w_f_star, but classify lists no fundamental long run there
    with pytest.raises(RegimeError, match="^no fundamental long run exists at income ratio "):
        welfare_class(ULP_ABOVE_W_F, LongRunKind.FUNDAMENTAL_LONG_RUN)
    assert welfare_class(ULP_ABOVE_W_F, "BubblyLongRun") is WelfareClass.EFFICIENT


# ---------------------------------------------------------------- credit

def test_credit_transform_frozen_example():
    p = make_params(e1=100.0, e2=120.0)
    tr = credit_transform(p, 0.2)
    assert tr.w_effective == pytest.approx(1.0 / 1.2, rel=1e-14)
    assert tr.price_coefficient == pytest.approx(10.0, rel=1e-13)
    assert tr.condition_holds and tr.warning is None
    assert tr.params.e1 == pytest.approx(120.0, rel=1e-14)
    assert tr.params.e2 == pytest.approx(100.0, rel=1e-13)
    # effective economy flips into the necessity regime, so a bubbly long
    # run exists there
    assert classify(tr.params).tag is RegimeTag.BUBBLE_NECESSITY


def test_credit_transform_zero_is_identity():
    p = make_params(e1=100.0, e2=120.0)
    tr = credit_transform(p, 0.0)
    assert tr.params == p
    assert not tr.condition_holds and tr.warning is None


def test_credit_transform_below_window_warns():
    p = make_params(e1=100.0, e2=120.0)
    tr = credit_transform(p, 0.05)
    assert not tr.condition_holds
    assert tr.warning is not None


def test_credit_transform_errors():
    p = make_params(e1=100.0, e2=120.0)
    with pytest.raises(LoanError):
        credit_transform(p, 1.2)
    with pytest.raises(LoanError):
        credit_transform(p, 1.5)
    with pytest.raises(DomainError):
        credit_transform(p, -0.1)
    with pytest.raises(BranchError):
        credit_transform(make_params(gamma=1.0, e1=100.0, e2=120.0), 0.2)


# ---------------------------------------------------------------- params validation

def test_economy_params_validation():
    with pytest.raises(DomainError):
        make_params(G=1.0)
    with pytest.raises(DomainError):
        make_params(G=0.9)
    with pytest.raises(DomainError):
        make_params(e1=0.0)
    with pytest.raises(DomainError):
        make_params(e2=-5.0)
    assert BASE.income_ratio == pytest.approx(105.0 / 95.0, rel=1e-15)
