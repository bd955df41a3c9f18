"""Tests for backward-induction path solving and belief scenarios."""
import logging
import math
import random
import re

import mpmath
import numpy as np
import pytest

from olghousing import solver
from olghousing.errors import (
    BranchError,
    DomainError,
    HorizonError,
    ModelError,
    RegimeError,
    SolverError,
)
from olghousing.preferences import CesAggregator, HousingUtility
from olghousing.regimes import (EconomyParams, bubbly_steady_state, classify, credit_transform,
                                thresholds)
from olghousing.solver import (
    BeliefSchedule,
    EndowmentPath,
    Segment,
    TerminalKind,
    backward_step,
    solve_path,
    solve_scenario,
)
from oracles import brent_share_root, mp_path, mp_share_root

# Frozen values computed by an independent high-precision fixed-point solve
# of the one-step equilibrium equation.
STEP_SHARE_SYMMETRIC = 0.05024658947958093
STEP_SHARE_ASYMMETRIC = 0.18602407704665211
GAMMA1_RATE_SYMMETRIC = 2.0496574538781882
GAMMA1_RATE_ASYMMETRIC = 3.173918733406976


def make_params(beta=0.5, sigma=1.0, gamma=0.5, m=0.1, G=1.1, e1=95.0, e2=105.0):
    return EconomyParams(
        agg=CesAggregator(beta=beta, sigma=sigma),
        housing=HousingUtility(gamma=gamma, m=m),
        G=G, e1=e1, e2=e2,
    )


FUND = make_params()                       # income ratio above w_b* = 1
BUB = make_params(e1=105.0, e2=95.0)       # income ratio below w_f*
ASYM_BUB = make_params(beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08,
                       e1=100.0, e2=50.0)  # ratio 0.5 < w_f* ~ 0.739
GAMMA1 = make_params(gamma=1.0, e1=100.0, e2=100.0)
GAMMA15 = make_params(gamma=1.5)


# ---------------------------------------------------------------- backward_step

def test_backward_step_frozen_symmetric():
    h = HousingUtility(gamma=0.5, m=0.1)
    agg = CesAggregator(beta=0.5, sigma=1.0)
    e_y = 105.0 * 1.1 ** 40
    S = backward_step(h, agg, 5.0 * 1.1 ** 41, e_y, 95.0 * 1.1 ** 41)
    assert S / e_y == pytest.approx(STEP_SHARE_SYMMETRIC, rel=1e-10)


def test_backward_step_frozen_asymmetric():
    h = HousingUtility(gamma=0.3, m=0.2)
    agg = CesAggregator(beta=0.4, sigma=1.7)
    e_y = 7.0 * 1.08 ** 12
    S = backward_step(h, agg, 3.0 * 1.08 ** 13, e_y, 5.0 * 1.08 ** 13)
    assert S / e_y == pytest.approx(STEP_SHARE_ASYMMETRIC, rel=1e-10)


def test_backward_step_rejects_bad_inputs():
    h = HousingUtility(gamma=0.5, m=0.1)
    agg = CesAggregator(beta=0.5, sigma=1.0)
    with pytest.raises(DomainError):
        backward_step(h, agg, -1.0, 10.0, 10.0)
    with pytest.raises(DomainError):
        backward_step(h, agg, 1.0, 0.0, 10.0)
    with pytest.raises(DomainError):
        backward_step(h, agg, 1.0, 10.0, -5.0)
    with pytest.raises(DomainError):
        backward_step(h, agg, math.nan, 10.0, 10.0)


@pytest.mark.parametrize("m", [0.1, 1e10], ids=["power", "product"])
def test_rent_scale_overflow_is_a_horizon_error(m):
    # e_y**(gamma - 1) overflows ("power"), or m times it does ("product"),
    # while e_y itself is finite
    h = HousingUtility(gamma=2.5, m=m)
    agg = CesAggregator(beta=0.5, sigma=1.0)
    with pytest.raises(ModelError, match="rent scale"):
        backward_step(h, agg, 1.0, 1e300 if m < 1.0 else 1e200, 1.0)


def test_rent_scale_overflow_names_the_date():
    params = make_params(gamma=2.5, G=3.0, e1=1.0, e2=1.0)
    with pytest.raises(HorizonError, match=r"rent scale .* \(date 449\)"):
        solve_path(params, None, TerminalKind.GAMMA_ABOVE_1, 300)


def test_backward_step_interior_and_deterministic():
    rng = np.random.default_rng(20240818)
    for _ in range(100):
        agg = CesAggregator(beta=rng.uniform(0.1, 0.9), sigma=rng.uniform(0.3, 3.0))
        h = HousingUtility(gamma=rng.uniform(0.1, 0.95), m=rng.uniform(0.01, 0.5))
        e_y = rng.uniform(0.5, 200.0)
        e_o = rng.uniform(0.5, 200.0)
        for resale in (1e-8 * e_y, 0.2 * e_y, 0.6 * e_y, 50.0 * e_y):
            S = backward_step(h, agg, resale, e_y, e_o)
            assert 0.0 < S < e_y
            assert backward_step(h, agg, resale, e_y, e_o) == S


def test_backward_step_zero_resale_is_pure_rent():
    h = HousingUtility(gamma=0.5, m=0.1)
    agg = CesAggregator(beta=0.5, sigma=1.0)
    e_y, e_o = 95.0, 115.0
    S = backward_step(h, agg, 0.0, e_y, e_o)
    y, z = e_y - S, e_o
    cy = agg.partials(y, z)[0]
    assert S * cy == pytest.approx(h.m * agg.value(y, z) ** h.gamma, rel=1e-12)


@pytest.mark.parametrize("params", [BUB, ASYM_BUB], ids=["symmetric", "asymmetric"])
def test_backward_step_approaches_bubbly_star(params):
    # the steady share is the fixed point of the limiting map only: at
    # finite dates the rent term leaves a positive wedge that decays like
    # G^((gamma-1) t)
    rep = bubbly_steady_state(params)
    G, e1, e2 = params.G, params.e1, params.e2
    gamma = params.housing.gamma
    devs = []
    for t in (0, 40, 80):
        S = backward_step(params.housing, params.agg,
                          rep.s_star * e1 * G ** (t + 1),
                          e1 * G ** t, e2 * G ** (t + 1))
        devs.append(S / (e1 * G ** t) - rep.s_star)
    assert devs[0] > devs[1] > devs[2] > 0.0
    theory = G ** ((gamma - 1.0) * 40)
    assert devs[1] / devs[0] == pytest.approx(theory, rel=0.15)
    assert devs[2] / devs[1] == pytest.approx(theory, rel=0.15)


def test_backward_step_consistent_with_solved_path():
    path = solve_path(BUB, None, TerminalKind.BUBBLY, 200)
    for t in (0, 50, 150):
        S = backward_step(BUB.housing, BUB.agg, path.S[t + 1],
                          path.e_y[t], path.e_o[t + 1])
        assert S == pytest.approx(path.S[t], rel=1e-12)


# ---------------------------------------------------------------- share root

@pytest.mark.parametrize("share_next_scaled,z_hat", [(0.0, 1.0), (5e-324, 1.0), (1e-20, 1e290)],
                         ids=["zero", "least-subnormal", "guess-far-above-root"])
def test_warm_bracket_keeps_the_representable_floor(share_next_scaled, z_hat):
    # a root below 1e-300 fails the same way for the bracketing scan and for
    # Newton, whether the cold start lies near the root or many decades above
    # it (a huge z_hat makes c_z/c_y, and with it the resale term, tiny)
    agg = CesAggregator(beta=0.5, sigma=1.0)
    h = HousingUtility(gamma=0.05, m=1e-20)
    args = (agg, h, share_next_scaled, z_hat, 1e300)
    with pytest.raises(SolverError) as expected:
        brent_share_root(*args)
    with pytest.raises(SolverError) as got:
        solver._solve_share(*args)
    assert str(got.value) == str(expected.value) == (
        "share root vanished below representable range")


def test_share_root_pinned_against_full_young_income():
    # gamma = 1.5 with young income 1e80 puts the root at w = 1 - u ~ 3.6e-32,
    # where 1 - u rounds to 1; w itself solves. A cold solve measures log w
    # from a start 18 e-folds away, where one ulp of that coordinate is
    # 3.6e-15; the final Newton correction, kept below that ulp, puts w within
    # an ulp of its 50-digit root
    args = (CesAggregator(0.5, 1.0), HousingUtility(1.5, 0.1), 0.5, 1.0, 1e80)
    u, w = solver._solve_share(*args)[:2]
    assert u == 1.0
    with mpmath.workdps(50):
        exact = mpmath.exp(mp_share_root(*args, math.log(w), True))
        assert abs(w - exact) / exact <= 4.5e-16, (w, exact)
    # at sigma = 0.2 and a rent scale of 1e100, w lies far below 1e-300
    # (the test above covers the other end)
    with pytest.raises(SolverError, match="^share root pinned against full young income$"):
        solver._solve_share(CesAggregator(0.5, 0.2), HousingUtility(1.5, 1.0),
                            0.5, 1.0, 1e200)


def test_share_root_where_the_slope_overflows():
    # near w = 1e-200, (z/y)*c_yz overflows in the slope; the infinite slope
    # must not end Newton at its start. At beta = 0.5, sigma = 1, gamma = 2
    # and z = 1 the equation reads 2*rs*w**1.5 + 1.5*w - 1 = 0 (rs, the rent
    # scale, is 1e300). A cold solve measures log w from its start 460
    # e-folds away, where one ulp of that coordinate is 5.7e-14; the final
    # Newton correction, kept below that ulp, puts w within 1.4 ulp
    args = (CesAggregator(0.5, 1.0), HousingUtility(2.0, 1e200), 0.5, 1.0, 1e100)
    w = solver._solve_share(*args)[1]
    with mpmath.workdps(50):
        rs = mpmath.mpf(1e200) * mpmath.mpf(1e100)
        exact = mpmath.findroot(lambda y: 2 * rs * y ** 1.5 + 1.5 * y - 1,
                                (w, w * (1 + mpmath.mpf(2) ** -40)), tol=mpmath.mpf(10) ** -45)
        assert abs(w - exact) / exact <= 4.5e-16, (w, exact)


def test_share_root_errors_on_a_path_name_their_date():
    params = make_params(sigma=0.2, gamma=1.5, m=1.0, e1=1e200, e2=1e200)
    with pytest.raises(SolverError,
                       match=r"^share root pinned against full young income \(date \d+\)$"):
        solve_path(params, None, TerminalKind.GAMMA_ABOVE_1, 20)


# ---------------------------------------------------------------- solve_path

PATH_CASES = [
    ("fundamental", FUND, TerminalKind.FUNDAMENTAL, 200),
    ("bubbly", BUB, TerminalKind.BUBBLY, 200),
    ("asym-bubbly", ASYM_BUB, TerminalKind.BUBBLY, 150),
    ("gamma1", GAMMA1, TerminalKind.GAMMA1, 120),
    ("gamma-above-1", GAMMA15, TerminalKind.GAMMA_ABOVE_1, 200),
]


@pytest.fixture(scope="module", params=PATH_CASES, ids=[c[0] for c in PATH_CASES])
def solved(request):
    _, params, terminal, T = request.param
    return params, solve_path(params, None, terminal, T)


def test_path_residuals_small(solved):
    params, path = solved
    assert path.residuals.max() <= (1e-15 if params.housing.gamma <= 1.0 else 1e-10)


def test_path_interior_and_positive(solved):
    params, path = solved
    assert np.all(np.asarray(path.S) > 0.0)
    assert np.all(np.asarray(path.S) < np.asarray(path.e_y))
    assert np.all(np.asarray(path.P) > 0.0)
    assert np.all(np.asarray(path.r) > 0.0)
    assert np.all(np.asarray(path.R) > 0.0)
    # present-value prices may underflow to zero once rates explode, but
    # they stay positive up to that point and never go negative
    assert path.q[0] == 1.0
    assert np.all(np.asarray(path.q) >= 0.0)
    positive = np.flatnonzero(np.asarray(path.q) > 0.0)
    assert np.array_equal(positive, np.arange(len(positive)))
    assert path.T == len(path.S) - 1
    assert np.all(np.asarray(path.belief_index) == 0)
    assert path.revision_dates == ()


def test_path_market_clearing(solved):
    _, path = solved
    total = np.asarray(path.e_y) + np.asarray(path.e_o)
    gap = np.abs(np.asarray(path.c_y) + np.asarray(path.c_o) - total)
    assert np.all(gap <= 2.0 * np.spacing(total))


def test_path_price_rent_expenditure_identity(solved):
    # P and r are built from their own first-order conditions, so P + r
    # matches S only to root precision (amplified when the share nears 1)
    _, path = solved
    P, r, S = np.asarray(path.P), np.asarray(path.r), np.asarray(path.S)
    assert np.all(np.abs(P + r - S) <= 1e-12 * S)


def test_path_rate_identities(solved):
    params, path = solved
    T = path.T
    # R_t P_t = S_{t+1} and R_t equals the marginal rate of substitution
    # between young and old consumption of the generation born at t
    assert np.allclose(np.asarray(path.R[:T]) * np.asarray(path.P[:T]), path.S[1:],
                       rtol=1e-12, atol=0.0)
    for t in range(0, T, max(1, T // 17)):
        cy, cz = params.agg.partials(path.c_y[t], path.c_o[t + 1])
        assert path.R[t] == pytest.approx(cy / cz, rel=1e-10)


def test_path_rent_from_marginal_utility(solved):
    params, path = solved
    h = params.housing
    for t in range(0, path.T, max(1, path.T // 13)):
        c = params.agg.value(path.c_y[t], path.c_o[t + 1])
        cy = params.agg.partials(path.c_y[t], path.c_o[t + 1])[0]
        assert path.r[t] == pytest.approx(h.m * c ** h.gamma / cy, rel=1e-10)


def test_path_present_value_chaining(solved):
    _, path = solved
    q = np.asarray(path.q)
    assert q[0] == 1.0
    # below the normal floating-point range q loses significand bits
    live = q[1:] > np.finfo(float).tiny
    assert np.allclose((q[1:] * np.asarray(path.R[:-1]))[live], q[:-1][live],
                       rtol=1e-12, atol=0.0)


def test_fundamental_tail_grows_at_rent_rate():
    path = solve_path(FUND, None, TerminalKind.FUNDAMENTAL, 200)
    growth = path.P[-1] / path.P[-2]
    assert growth == pytest.approx(1.1 ** 0.5, rel=1e-3)
    assert path.r[-1] / path.r[-2] == pytest.approx(1.1 ** 0.5, rel=1e-4)


def test_bubbly_tail_near_steady_share():
    path = solve_path(BUB, None, TerminalKind.BUBBLY, 200)
    assert abs(path.s[-1] - 1.0 / 21.0) < 1e-4
    assert abs(path.R[-1] - 1.1) < 1e-4
    assert path.P[-1] / path.P[-2] == pytest.approx(1.1, rel=1e-4)


def test_pad_invariance_on_shared_dates():
    for params, terminal in ((FUND, TerminalKind.FUNDAMENTAL), (BUB, TerminalKind.BUBBLY)):
        short = solve_path(params, None, terminal, 100)
        long = solve_path(params, None, terminal, 200)
        assert np.allclose(short.S, long.S[:101], rtol=1e-12, atol=0.0)
        assert np.allclose(short.P, long.P[:101], rtol=1e-12, atol=0.0)


def test_seed_pad_override_agrees_with_auto(monkeypatch):
    # the automatic pad is long enough: a 400-period pad gives the same path
    auto = solve_path(BUB, None, TerminalKind.BUBBLY, 100)
    seed = solver._terminal_seed
    monkeypatch.setattr(solver, "_terminal_seed", lambda *args: (*seed(*args)[:2], 400))
    manual = solve_path(BUB, None, TerminalKind.BUBBLY, 100)
    assert np.allclose(auto.S, manual.S, rtol=1e-12, atol=0.0)


def _near_w_f_star(offset):
    # income ratio just above w_f_star (e1 = 1): the fundamental |lambda1|
    # is within about 1e-13 of 1, or rounds to it for offset None (one ulp)
    w_f = thresholds(make_params(e1=1.0, e2=1.0)).w_f_star
    return make_params(e1=1.0, e2=math.nextafter(w_f, 2.0) if offset is None else w_f + offset)


@pytest.mark.parametrize("offset", [None, 1e-14, 1e-13], ids=["one-ulp", "1e-14", "1e-13"])
def test_fundamental_path_just_above_w_f_star(offset):
    # a zero seed takes the longest pad there, never the one date past T
    # that would price date T at 0
    T = 100
    path = solve_path(_near_w_f_star(offset), None, TerminalKind.FUNDAMENTAL, T)
    reference = solve_path(_near_w_f_star(1e-11), None, TerminalKind.FUNDAMENTAL, T)
    assert path.residuals.max() <= 1e-15
    assert np.allclose(path.S, reference.S, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("params,terminal",
                         [(FUND, TerminalKind.FUNDAMENTAL), (BUB, TerminalKind.BUBBLY)],
                         ids=["fundamental", "bubbly"])
def test_backward_stability_under_seed_perturbation(params, terminal):
    # a 10% terminal perturbation washes out backward over 150 periods
    T = 150
    path = solve_path(params, None, terminal, T)

    def run_back(factor):
        S = path.S[T] * factor
        for t in range(T - 1, -1, -1):
            S = backward_step(params.housing, params.agg, S,
                              path.e_y[t], path.e_o[t + 1])
        return S

    base = run_back(1.0)
    assert abs(run_back(1.1) - base) / base < 1e-8
    assert abs(run_back(0.9) - base) / base < 1e-8


def test_gamma1_path_is_balanced():
    path = solve_path(GAMMA1, None, TerminalKind.GAMMA1, 120)
    s_star = 1.0 / math.sqrt(11.0)
    assert np.abs(np.asarray(path.s) - s_star).max() < 1e-12
    ratio = np.asarray(path.P) / np.asarray(path.r)
    assert np.abs(ratio / ratio[0] - 1.0).max() < 1e-10
    assert (np.abs(np.asarray(path.R) - GAMMA1_RATE_SYMMETRIC).max()
            < 1e-12 * GAMMA1_RATE_SYMMETRIC)


def test_gamma1_path_asymmetric_rate():
    params = make_params(beta=0.35, sigma=1.0, gamma=1.0, m=0.2, G=1.05,
                         e1=100.0, e2=80.0)
    path = solve_path(params, None, TerminalKind.GAMMA1, 80)
    assert np.abs(np.asarray(path.s) - path.s[0]).max() < 1e-12
    assert path.R[0] == pytest.approx(GAMMA1_RATE_ASYMMETRIC, rel=1e-10)


def test_gamma_above_one_limits():
    path = solve_path(GAMMA15, None, TerminalKind.GAMMA_ABOVE_1, 200)
    assert np.all(np.diff(path.s) > 0.0)
    assert 1.0 - path.s[-1] < 1e-3
    tail = path.R[-20:]
    assert np.all(np.diff(tail) > 0.0)
    assert tail[-1] > 10.0 * 1.1
    ratio = np.asarray(path.P) / np.asarray(path.r)
    assert np.all(np.diff(ratio[-50:]) < 0.0)
    assert ratio[-1] < 1e-3


@pytest.mark.parametrize("gamma,T", [(1.2, 2000), (1.5, 400)])
def test_gamma_above_one_residuals_stay_at_rounding_as_the_share_nears_one(gamma, T):
    # 1 - u falls far below 1e-7 here, where 1.0 - u rounded from the stored
    # share has lost most of its digits; the residual must measure the solver
    params = make_params(gamma=gamma, e1=100.0, e2=100.0)
    path = solve_path(params, None, TerminalKind.GAMMA_ABOVE_1, T)
    assert path.residuals.max() <= 1e-14


def test_gamma_above_one_young_consumption_matches_50_digits():
    # 1 - u falls to about 1.5e-15 here, where e_y - S would cancel; c_y must
    # carry the young's own share as Newton solved it. Each date's 50-digit
    # root is taken from the path's own S_{t+1}
    params = make_params(gamma=1.2, e1=100.0, e2=100.0)
    path = solve_path(params, None, TerminalKind.GAMMA_ABOVE_1, 2000)
    e_y, e_o, S = path.e_y, path.e_o, path.S
    for t in (0, 500, 1000, 1500, 1900, 1999):
        args = (params.agg, params.housing, path.s[t + 1] * (e_y[t + 1] / e_y[t]),
                (e_o[t + 1] + S[t + 1]) / e_y[t], e_y[t])
        # started from a cold solve of the same equation, not from c_y itself
        w = solver._solve_share(*args)[1]
        with mpmath.workdps(50):
            exact = mpmath.mpf(e_y[t]) * mpmath.exp(mp_share_root(*args, math.log(w), True))
            assert abs(path.c_y[t] - exact) / exact <= 4e-16, (t, path.c_y[t], exact)


def test_gamma_above_one_solves_where_the_share_prints_as_one():
    # at T = 1000, 1 - u falls to 1.4e-17: s rounds to 1.0 from date 964 on,
    # and c_y must still carry the young's own share. Each date's 50-digit
    # root is taken from the path's own S_{t+1}
    params = make_params(gamma=1.5, e1=100.0, e2=100.0)
    path = solve_path(params, None, TerminalKind.GAMMA_ABOVE_1, 1000)
    assert path.s[964] == 1.0 and path.residuals.max() <= 1e-15
    e_y, e_o, S = path.e_y, path.e_o, path.S
    for t in (0, 250, 500, 750, 900, 950, 963, 964, 975, 990, 998, 999):
        args = (params.agg, params.housing, path.s[t + 1] * (e_y[t + 1] / e_y[t]),
                (e_o[t + 1] + S[t + 1]) / e_y[t], e_y[t])
        w = solver._solve_share(*args)[1]
        with mpmath.workdps(50):
            exact = mpmath.mpf(e_y[t]) * mpmath.exp(mp_share_root(*args, math.log(w), True))
            assert abs(path.c_y[t] - exact) / exact <= 4e-16, (t, path.c_y[t], exact)


# a fundamental gamma <= 1 economy whose share nears 1 (T = 50)
SHARE_NEAR_ONE = make_params(beta=0.44, sigma=4.0, gamma=0.13, m=420.0, G=1.64, e1=0.6, e2=28.8)


def test_gamma_below_one_share_near_one_solves_in_the_young_share():
    # the share exceeds 0.99 on dates 0-13 and 1 - u falls to 7.9e-22, where
    # u itself keeps no bits of it; Newton solves those dates for 1 - u. Each
    # date's 50-digit root is taken from the path's own S_{t+1}
    params = SHARE_NEAR_ONE
    path = solve_path(params, None, TerminalKind.FUNDAMENTAL, 50)
    assert path.residuals.max() <= 1e-15
    near_one = [t for t in range(path.T) if path.s[t] >= 0.99]
    assert len(near_one) == 14
    e_y, e_o, S = path.e_y, path.e_o, path.S
    for t in near_one:
        args = (params.agg, params.housing, path.s[t + 1] * (e_y[t + 1] / e_y[t]),
                (e_o[t + 1] + S[t + 1]) / e_y[t], e_y[t])
        y = solver._solve_share(*args)[1]
        with mpmath.workdps(50):
            exact = mpmath.mpf(e_y[t]) * mpmath.exp(mp_share_root(*args, math.log(y), True))
            assert abs(path.c_y[t] - exact) / exact <= 1e-14, (t, path.c_y[t], exact)


def test_share_that_crosses_one_half_between_dates_is_solved_again_on_the_other_side():
    # below its seed the share oscillates from date to date, between up to
    # 0.63 and values down to 1e-16, crossing one half 38 times; a root
    # started on the neighbour's side can land above one half, and is solved
    # once more for the other share (without that, date 264 misses by 0.89)
    params = make_params(beta=0.53358357358427, sigma=42.229791334903936,
                         gamma=0.21642719910545746, m=0.15422077893799035,
                         G=3.3916321209323117, e1=94.10843716519024, e2=8.678539035565455)
    path = solve_path(params, None, TerminalKind.BUBBLY, 300)
    assert sum((a > 0.5) != (b > 0.5) for a, b in zip(path.s, path.s[1:])) >= 30
    assert path.residuals.max() <= 1e-12


def seeded_economies(n, seed=7):
    """``(draw index, params, T)`` of a seeded fuzz over wide primitives."""
    rng = random.Random(seed)
    for i in range(n):
        beta = rng.uniform(0.05, 0.95)
        sigma = 10.0 ** rng.uniform(-1.5, 1.8)
        gamma = 10.0 ** rng.uniform(-1.0, 0.45)
        m = 10.0 ** rng.uniform(-4.0, 3.0)
        G = 1.0 + 10.0 ** rng.uniform(-2.0, 0.5)
        e1 = 10.0 ** rng.uniform(-3.0, 3.0)
        e2 = 10.0 ** rng.uniform(-3.0, 3.0)
        T = rng.choice((50, 100, 300))
        yield i, make_params(beta, sigma, gamma, m, G, e1, e2), T


# draws of seeded_economies(1500) that failed while Newton's coordinate
# followed gamma, not the share: 17 gamma <= 1 draws "pinned against full
# young income" and 15 past the residual bound; and one (765, gamma 2.63)
# with no convergence while a final Newton step too short to move x was
# replaced by bisection
RESCUED_DRAWS = (2, 92, 125, 145, 242, 296, 380, 381, 450, 473, 575, 624, 651, 653, 676, 728,
                 765, 809, 887, 907, 915, 918, 1036, 1054, 1144, 1240, 1252, 1266, 1319, 1335,
                 1447, 1468, 1492)


def test_seeded_economies_with_shares_near_one_solve():
    for i, params, T in seeded_economies(max(RESCUED_DRAWS) + 1):
        if i in RESCUED_DRAWS:
            path = solve_path(params, None, classify(params).long_runs[-1], T)
            assert path.residuals.max() <= 1e-13, i


# the fuzz draw whose gamma (1.0574) sits just above 1, T = 300
DRAW_230 = next(params for i, params, _ in seeded_economies(231) if i == 230)


@pytest.mark.parametrize("params,terminal,T", [
    (FUND, TerminalKind.FUNDAMENTAL, 100),
    (BUB, TerminalKind.BUBBLY, 100),
    (GAMMA1, TerminalKind.GAMMA1, 100),
    (make_params(gamma=1.2, e1=100.0, e2=100.0), TerminalKind.GAMMA_ABOVE_1, 100),
    (DRAW_230, TerminalKind.GAMMA_ABOVE_1, 300),
], ids=["fundamental", "bubbly", "gamma1", "gamma-1.2", "fuzz-draw-230"])
def test_path_matches_the_recursion_at_50_digits(params, terminal, T):
    # the same seed and pad, the whole recursion at 50 digits: the float
    # path's own rounding, in both shares, stays within 1e-14 relative at
    # every reported date (measured: at most 2.5e-15, on draw 230). The
    # seed's own distance from the exact path is not measured here
    path = solve_path(params, None, terminal, T)
    u, y = mp_path(params, terminal, T)
    with mpmath.workdps(50):
        for t in range(T + 1):
            young = mpmath.mpf(path.c_y[t]) / mpmath.mpf(path.e_y[t])
            assert abs(path.s[t] - u[t]) <= 1e-14 * u[t], t
            assert abs(young - y[t]) <= 1e-14 * y[t], t


def test_sink_steady_state_path_stays_near_star():
    # with |lambda1| < 1 the backward recursion is expansive, so the finite
    # horizon rent wedge at the seed grows (oscillating) toward date 0; the
    # result is still an exact equilibrium in a neighborhood of the star
    params = make_params(sigma=50.0, e1=100.0, e2=2.0)
    rep = bubbly_steady_state(params)
    assert -1.0 < rep.lambda1 < 0.0
    path = solve_path(params, None, TerminalKind.BUBBLY, 60)
    assert np.abs(np.asarray(path.s) - rep.s_star).max() < 5e-3
    assert path.residuals.max() <= 1e-10
    assert np.all(np.asarray(path.P) > 0.0)


def test_credit_path_asymptotics():
    base = make_params(e1=100.0, e2=120.0)
    tr = credit_transform(base, 0.2)
    T = 300
    path = solve_path(tr.params, None, TerminalKind.BUBBLY, T)
    t = np.arange(T + 1)
    price_target = tr.price_coefficient * 1.1 ** t
    # young consumption is unaffected by the loan size once a bubble exists
    consumption_target = (1.0 + 0.1) * 100.0 * 1.1 ** t
    tail = slice(T - 19, T + 1)
    assert (np.abs(path.P[tail] - price_target[tail]) / path.P[tail]).max() < 1e-4
    assert (np.abs(path.c_y[tail] - consumption_target[tail]) / path.c_y[tail]).max() < 1e-6


FLOAT_PATHS = [
    ("fundamental", FUND, TerminalKind.FUNDAMENTAL, 200),
    ("bubbly", ASYM_BUB, TerminalKind.BUBBLY, 150),
    ("gamma1", GAMMA1, TerminalKind.GAMMA1, 120),
    ("gamma-above-1", GAMMA15, TerminalKind.GAMMA_ABOVE_1, 200),
]


@pytest.mark.parametrize("params,terminal,T", [c[1:] for c in FLOAT_PATHS],
                         ids=[c[0] for c in FLOAT_PATHS])
def test_backward_recursion_runs_on_builtin_floats(monkeypatch, params, terminal, T):
    seen = {"calls": 0}
    original = CesAggregator.value_partials

    def strict(agg, y, z):
        assert type(y) is float and type(z) is float
        out = original(agg, y, z)
        assert all(type(v) is float for v in out)
        seen["calls"] += 1
        return out

    monkeypatch.setattr(CesAggregator, "value_partials", strict)
    path = solve_path(params, None, terminal, T)
    assert seen["calls"] > 2 * (T + 1)
    assert path.residuals.max() <= 1e-10


def count_aggregator_calls(monkeypatch):
    calls = [0]
    original = CesAggregator.value_partials

    def counted(agg, y, z):
        calls[0] += 1
        return original(agg, y, z)

    monkeypatch.setattr(CesAggregator, "value_partials", counted)
    return calls


@pytest.mark.parametrize("e1,e2", [(94.171854, 106.356152), (95.472963, 105.040207),
                                   (96.343661, 104.249556)])
def test_fundamental_path_needs_few_aggregator_calls(monkeypatch, e1, e2):
    # the long-horizon fundamental configurations: Newton started from the
    # neighbouring dates needs about 1.5 evaluations per solved date, where
    # the bracket scan and Brent needed 10.7
    params = make_params(e1=e1, e2=e2)
    calls = count_aggregator_calls(monkeypatch)
    T = 2000
    solve_path(params, None, TerminalKind.FUNDAMENTAL, T)
    assert calls[0] <= 3 * (T + 1)


@pytest.mark.parametrize("gamma,e1,e2,terminal,T,per_date", [
    (0.5, 106.387036, 93.721941, TerminalKind.BUBBLY, 2000, 3),
    (1.0, 98.633422, 99.525968, TerminalKind.GAMMA1, 2000, 3),
    (1.2, 99.710841, 99.506247, TerminalKind.GAMMA_ABOVE_1, 600, 5),
], ids=["bubbly", "gamma1", "gamma-above-1"])
def test_paths_need_few_aggregator_calls(monkeypatch, gamma, e1, e2, terminal, T, per_date):
    # long-horizon configurations of the other terminals, counted per
    # returned date with the terminal padding and the assembly included
    # (13.2, 12.9 and 25.9 with the bracket scan and Brent, whose gamma > 1
    # residual reached 2.8e-12 here)
    params = make_params(gamma=gamma, e1=e1, e2=e2)
    calls = count_aggregator_calls(monkeypatch)
    path = solve_path(params, None, terminal, T)
    assert calls[0] <= per_date * (T + 1)
    assert path.residuals.max() <= (1e-15 if gamma <= 1.0 else 2e-12)


def test_each_date_is_decided_once(monkeypatch):
    # the long-horizon bubbly configuration: each date's share is solved
    # once, and the date priced from that solve's rent scale
    params = make_params(e1=106.387036, e2=93.721941)
    T = 2000
    built = [0]
    original = solver._solve_share

    def counted(*args):
        built[0] += 1
        return original(*args)

    monkeypatch.setattr(solver, "_solve_share", counted)
    calls = count_aggregator_calls(monkeypatch)
    solve_path(params, None, TerminalKind.BUBBLY, T)
    pad = solver._terminal_seed(params, EndowmentPath.from_params(params, T),
                                TerminalKind.BUBBLY)[2]
    assert built[0] == T + pad
    assert calls[0] <= 2.55 * (T + 1)


def test_solve_path_logs_its_root_finding_effort(caplog):
    caplog.set_level(logging.DEBUG, logger="olghousing.solver")
    T = 200
    path = solve_path(BUB, None, TerminalKind.BUBBLY, T)
    lines = [r.getMessage() for r in caplog.records
             if "aggregator evaluations" in r.getMessage()]
    assert len(lines) == 1
    match = re.fullmatch(r"solve_path: (\d+) aggregator evaluations over (\d+) dates "
                         r"\(at most (\d+) on one date\), (\d+) safeguard steps, "
                         r"largest residual (\S+) at date (\d+)", lines[0])
    assert match, lines[0]
    total, dates, worst, safeguards = map(int, match.groups()[:4])
    assert dates > T and dates <= total <= 3 * dates
    assert 1 <= worst <= 10 and safeguards >= 0
    residual, date = float(match[5]), int(match[6])
    assert 0 <= date <= T and path.residuals[date] == path.residuals.max()
    assert residual == float(f"{path.residuals.max():.3g}")


def test_error_messages_print_plain_floats(monkeypatch):
    # a zero fundamental seed one date past T prices date T at exactly 0
    params = make_params(e1=94.0, e2=106.0)
    seed = solver._terminal_seed
    monkeypatch.setattr(solver, "_terminal_seed", lambda *args: (*seed(*args)[:2], 1))
    with pytest.raises(HorizonError) as info:
        solve_path(params, None, TerminalKind.FUNDAMENTAL, 50)
    message = str(info.value)
    assert "at date 50" in message and "P=0.0;" in message
    assert "np.float64" not in message


def test_terminal_validation_errors():
    with pytest.raises(BranchError):
        solve_path(FUND, None, TerminalKind.GAMMA1, 50)
    with pytest.raises(BranchError):
        solve_path(GAMMA1, None, TerminalKind.FUNDAMENTAL, 50)
    with pytest.raises(BranchError):
        solve_path(GAMMA15, None, TerminalKind.BUBBLY, 50)
    with pytest.raises(RegimeError):
        solve_path(BUB, None, TerminalKind.FUNDAMENTAL, 50)
    with pytest.raises(RegimeError):
        solve_path(FUND, None, TerminalKind.BUBBLY, 50)
    with pytest.raises(HorizonError):
        solve_path(FUND, None, TerminalKind.FUNDAMENTAL, 0)
    late = EndowmentPath((Segment(0, 95.0, 105.0, 1.1), Segment(60, 95.0, 105.0, 1.1)), 100)
    with pytest.raises(HorizonError):
        solve_path(FUND, late, TerminalKind.FUNDAMENTAL, 40)


# ---------------------------------------------------------------- endowments

def test_endowment_levels_use_global_exponent():
    path = EndowmentPath((Segment(0, 95.0, 105.0, 1.1), Segment(40, 105.0, 95.0, 1.1)), 120)
    young, old = path.levels(41)
    assert len(young) == len(old) == 41
    assert young[0] == 95.0
    assert young[39] == pytest.approx(95.0 * 1.1 ** 39, rel=1e-15)
    assert old[39] == pytest.approx(105.0 * 1.1 ** 39, rel=1e-15)
    assert young[40] == pytest.approx(105.0 * 1.1 ** 40, rel=1e-15)
    assert old[40] == pytest.approx(95.0 * 1.1 ** 40, rel=1e-15)
    assert all(type(level) is float for level in young + old)
    assert path.balanced_from == 40
    assert path.levels(0) == ([], [])


def test_endowment_from_params_matches_primitives():
    path = EndowmentPath.from_params(FUND, 200)
    young, old = path.levels(14)
    assert young[13] == pytest.approx(95.0 * 1.1 ** 13, rel=1e-15)
    assert old[13] == pytest.approx(105.0 * 1.1 ** 13, rel=1e-15)
    assert path.T_max == 200
    assert path.balanced_from == 0


def test_endowment_validation_errors():
    with pytest.raises(DomainError):
        EndowmentPath((), 100)
    with pytest.raises(DomainError):
        EndowmentPath((Segment(5, 95.0, 105.0, 1.1),), 100)
    with pytest.raises(DomainError):
        EndowmentPath((Segment(0, 95.0, 105.0, 1.1), Segment(0, 1.0, 1.0, 1.1)), 100)
    with pytest.raises(DomainError):
        EndowmentPath((Segment(0, 95.0, 105.0, 1.0),), 100)
    with pytest.raises(DomainError):
        Segment(0, -1.0, 105.0, 1.1)
    with pytest.raises(DomainError):
        Segment(-3, 95.0, 105.0, 1.1)


@pytest.mark.parametrize("segment,date", [
    (Segment(0, 100.0, 100.0, 2.96), 650),     # G**t itself overflows
    (Segment(0, 95.0, 105.0, 1.1), 7399),      # e2 * G**t overflows before e1 * G**t
    (Segment(0, 1e300, 1.0, 1.1), 200),        # G**t is finite, the level is not
], ids=["power", "old-level-first", "level"])
def test_endowment_overflow_is_a_horizon_error(segment, date):
    path = EndowmentPath((segment,), 10)
    with pytest.raises(HorizonError, match=f"not finite at date {date} "):
        path.levels(10_000)
    young, old = path.levels(date)
    assert math.isfinite(young[-1]) and math.isfinite(old[-1])


# ---------------------------------------------------------------- scenarios

BASE_BELIEF = EndowmentPath((Segment(0, 95.0, 105.0, 1.1),), 120)
MID_BELIEF = EndowmentPath((Segment(0, 95.0, 105.0, 1.1),
                            Segment(40, 105.0, 95.0, 1.1)), 120)
FULL_BELIEF = EndowmentPath((Segment(0, 95.0, 105.0, 1.1),
                             Segment(40, 105.0, 95.0, 1.1),
                             Segment(80, 95.0, 105.0, 1.1)), 120)
SCENARIO_TERMINALS = (TerminalKind.FUNDAMENTAL, TerminalKind.BUBBLY, TerminalKind.FUNDAMENTAL)


def test_belief_schedule_validation():
    with pytest.raises(DomainError):
        BeliefSchedule(())
    with pytest.raises(DomainError):
        BeliefSchedule(((3, BASE_BELIEF),))
    with pytest.raises(DomainError):
        BeliefSchedule(((0, BASE_BELIEF), (40, MID_BELIEF), (40, FULL_BELIEF)))


def test_scenario_single_belief_equals_solve_path():
    # one belief takes the same path builder as a plain solve, on every branch
    T = 300
    for params, terminal in ((FUND, TerminalKind.FUNDAMENTAL), (BUB, TerminalKind.BUBBLY),
                             (GAMMA1, TerminalKind.GAMMA1),
                             (GAMMA15, TerminalKind.GAMMA_ABOVE_1)):
        belief = EndowmentPath.from_params(params, T)
        sc = solve_scenario(params, BeliefSchedule(((0, belief),)), belief, (terminal,), T)
        direct = solve_path(params, belief, terminal, T)
        for name in ("e_y", "e_o", "s", "P", "r", "residuals", "belief_index",
                     "S", "R", "q", "c_y", "c_o"):
            got, want = np.asarray(getattr(sc, name)), np.asarray(getattr(direct, name))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (terminal, name)
        assert sc.S_after == direct.S_after and sc.revision_dates == direct.revision_dates == ()
        assert sc.terminal_kind is direct.terminal_kind is terminal


def test_scenario_solves_each_belief_only_from_its_announcement(monkeypatch):
    # the long-horizon fundamental-first shape: a belief's root at a date
    # reads only later dates, so solving it down to its announcement and
    # no further gives every reported date the bits of a solve from date 0
    T, e1, e2 = 2000, 95.119684, 106.030036
    params = make_params(e1=e1, e2=e2)
    segments, beliefs, kinds = [], [], []
    for k, a in enumerate((0, 500, 1000, 1500)):
        segments.append(Segment(a, *((e1, e2) if k % 2 == 0 else (e2, e1)), 1.1))
        beliefs.append((a, EndowmentPath(tuple(segments), T)))
        kinds.append(TerminalKind.FUNDAMENTAL if k % 2 == 0 else TerminalKind.BUBBLY)
    solved = [0]
    original = solver._solve_share

    def counted(*args):
        solved[0] += 1
        return original(*args)

    monkeypatch.setattr(solver, "_solve_share", counted)
    sc = solve_scenario(params, BeliefSchedule(tuple(beliefs)), beliefs[-1][1], kinds, T)
    pads = [solver._terminal_seed(params, believed, kind)[2]
            for (_, believed), kind in zip(beliefs, kinds)]
    assert solved[0] == sum(T + pad - a for (a, _), pad in zip(beliefs, pads))

    bounds = [a for a, _ in beliefs] + [T + 1]
    for k, ((a, believed), kind) in enumerate(zip(beliefs, kinds)):
        alone = solve_path(params, believed, kind, T)
        window = slice(a, bounds[k + 1])
        assert list(sc.belief_index[window]) == [k] * (bounds[k + 1] - a)
        for name in ("e_y", "e_o", "s", "P", "r", "residuals", "S", "c_y", "c_o"):
            assert (np.asarray(getattr(sc, name)[window]).tobytes()
                    == np.asarray(getattr(alone, name)[window]).tobytes()), (k, name)
    assert sc.S_after == alone.S_after


def test_scenario_unanticipated_revisions():
    T = 120
    schedule = BeliefSchedule(((0, BASE_BELIEF), (40, MID_BELIEF), (80, FULL_BELIEF)))
    sc = solve_scenario(FUND, schedule, FULL_BELIEF, SCENARIO_TERMINALS, T)

    assert sc.revision_dates == (40, 80)
    assert list(np.unique(sc.belief_index[:40])) == [0]
    assert list(np.unique(sc.belief_index[40:80])) == [1]
    assert list(np.unique(sc.belief_index[80:])) == [2]
    assert sc.residuals.max() <= 1e-10
    assert np.all(np.asarray(sc.P) > 0.0)

    # price jumps up when the optimistic belief arrives, down at reversal
    assert sc.P[40] / sc.P[39] > 2.0
    assert sc.P[80] / sc.P[79] < 0.2

    # the surprise rate across a revision uses the post-revision expenditure
    solo_base = solve_path(FUND, BASE_BELIEF, TerminalKind.FUNDAMENTAL, T)
    solo_mid = solve_path(FUND, MID_BELIEF, TerminalKind.BUBBLY, T)
    assert sc.R[39] == pytest.approx(solo_mid.S[40] / solo_base.P[39], rel=1e-14)
    assert np.allclose(np.asarray(sc.q[1:]) * np.asarray(sc.R[:-1]), sc.q[:-1],
                       rtol=1e-12, atol=0.0)


def test_scenario_anticipated_revisions_move_price_at_announcement():
    T = 120
    schedule = BeliefSchedule(((0, BASE_BELIEF), (30, MID_BELIEF), (70, FULL_BELIEF)))
    sc = solve_scenario(FUND, schedule, FULL_BELIEF, SCENARIO_TERMINALS, T)
    assert sc.P[30] / sc.P[29] > 1.25
    assert sc.P[70] / sc.P[69] < 0.35
    assert sc.residuals.max() <= 1e-10


def test_scenario_rent_steps_stay_bounded():
    schedule = BeliefSchedule(((0, BASE_BELIEF), (40, MID_BELIEF), (80, FULL_BELIEF)))
    sc = solve_scenario(FUND, schedule, FULL_BELIEF, SCENARIO_TERMINALS, 120)
    assert (np.asarray(sc.r[1:]) / np.asarray(sc.r[:-1])).max() < 1.11


def test_scenario_validation_errors():
    schedule = BeliefSchedule(((0, BASE_BELIEF), (40, MID_BELIEF), (80, FULL_BELIEF)))
    with pytest.raises(DomainError):
        solve_scenario(FUND, schedule, FULL_BELIEF, SCENARIO_TERMINALS[:2], 120)
    with pytest.raises(HorizonError):
        solve_scenario(FUND, schedule, FULL_BELIEF, SCENARIO_TERMINALS, 60)
    # belief 1 disagrees with realized endowments while it is active
    other = EndowmentPath((Segment(0, 95.0, 105.0, 1.1), Segment(40, 104.0, 95.0, 1.1),
                           Segment(80, 95.0, 105.0, 1.1)), 120)
    with pytest.raises(DomainError):
        solve_scenario(FUND, schedule, other, SCENARIO_TERMINALS, 120)
