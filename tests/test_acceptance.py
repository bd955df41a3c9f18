"""Acceptance gate: one test per advertised guarantee, at its stated tolerance.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` and in failure reports) and then asserts. Criterion 3 is split:
the growth/detection core holds, while the strict tail clauses (share within
1e-8 of its limit, interest rate within 1e-6 of G) are kept as stated and
fail honestly: at any finite horizon the rent wedge decays like
G^((gamma-1)t), which leaves deviations near 2e-5 at T=200.
"""
import math

import numpy as np
import pytest
from scipy.optimize import newton

from olghousing import (
    BeliefSchedule,
    CesAggregator,
    EconomyParams,
    EndowmentPath,
    HousingUtility,
    LongRunKind,
    Segment,
    TerminalKind,
    backward_step,
    bubbly_steady_state,
    credit_transform,
    detect_bubble,
    efficiency_test,
    fundamental_steady_state,
    gamma1_steady_state,
    solve_path,
    solve_scenario,
    tail_growth,
    thresholds,
    welfare_class,
)


def make(e1, e2, beta=0.5, sigma=1.0, gamma=0.5, m=0.1, G=1.1):
    return EconomyParams(agg=CesAggregator(beta=beta, sigma=sigma),
                         housing=HousingUtility(gamma=gamma, m=m),
                         G=G, e1=e1, e2=e2)


FUND = make(95.0, 105.0)
BUB = make(105.0, 95.0)
G = 1.1
GROWTH_SQRT = 1.1 ** 0.5  # 1.0488088...


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")


# ---------------------------------------------------------------- 1

def test_criterion_01_thresholds():
    thr = thresholds(make(100.0, 100.0))
    dev = abs(thr.w_f_star - 1.1 ** -0.5)
    ok = thr.w_b_star == 1.0 and dev <= 1e-10
    _report(1, "threshold reproduction", ok,
            f"w_b*={thr.w_b_star!r}, |w_f* - 1.1^-0.5|={dev:.1e}")
    assert thr.w_b_star == 1.0
    assert dev <= 1e-10


# ---------------------------------------------------------------- 2

def test_criterion_02_fundamental_path():
    path = solve_path(FUND, None, TerminalKind.FUNDAMENTAL, 200)
    g_P = tail_growth(path.P)
    g_r = tail_growth(path.r)
    verdict = detect_bubble(path)
    ratio = (np.asarray(path.P) / np.asarray(path.r))[-20:]
    variation = (ratio.max() - ratio.min()) / ratio.min()
    ok = (abs(g_P - GROWTH_SQRT) <= 1e-3 and abs(g_r - GROWTH_SQRT) <= 1e-3
          and not verdict.is_bubble and variation < 1e-3)
    _report(2, "fundamental path growth and no bubble", ok,
            f"P growth {g_P:.6f}, r growth {g_r:.6f}, "
            f"bubble={verdict.is_bubble}, ratio variation {variation:.1e}")
    assert abs(g_P - GROWTH_SQRT) <= 1e-3
    assert abs(g_r - GROWTH_SQRT) <= 1e-3
    assert verdict.is_bubble is False
    assert variation < 1e-3


# ---------------------------------------------------------------- 3

def test_criterion_03_bubbly_path_core():
    path = solve_path(BUB, None, TerminalKind.BUBBLY, 200)
    g_P = tail_growth(path.P)
    g_r = tail_growth(path.r)
    verdict = detect_bubble(path)
    rho_dev = abs(verdict.ratio_estimate - 0.953463)
    ok = (abs(g_P - 1.1) <= 1e-3 and abs(g_r - GROWTH_SQRT) <= 1e-3
          and verdict.is_bubble and rho_dev <= 1e-3)
    _report(3, "bubbly path growth and detection", ok,
            f"P growth {g_P:.6f}, r growth {g_r:.6f}, "
            f"bubble={verdict.is_bubble}, |rho-0.953463|={rho_dev:.1e}")
    assert abs(g_P - 1.1) <= 1e-3
    assert abs(g_r - GROWTH_SQRT) <= 1e-3
    assert verdict.is_bubble is True
    assert rho_dev <= 1e-3


def test_criterion_03_bubbly_path_strict_tail():
    # Stated tolerances: |s_t - 1/21| <= 1e-8 and |R_t - 1.1| <= 1e-6 * 1.1
    # over the last 20 periods. The backward solution is exact to 1e-12, but
    # the finite-horizon rent wedge shrinks only like G^((gamma-1)t), so at
    # T=200 the true equilibrium still sits ~2e-5 away from the limit. Kept
    # as stated; expected to fail for every exact finite-horizon solution.
    path = solve_path(BUB, None, TerminalKind.BUBBLY, 200)
    s_dev = float(np.abs(np.asarray(path.s[-20:]) - 1.0 / 21.0).max())
    R_dev = float(np.abs(np.asarray(path.R[-21:-1]) / 1.1 - 1.0).max())
    ok = s_dev <= 1e-8 and R_dev <= 1e-6
    _report(3, "bubbly tail at limit values (strict)", ok,
            f"max|s-1/21|={s_dev:.1e} vs 1e-8, max|R/1.1-1|={R_dev:.1e} vs 1e-6")
    assert s_dev <= 1e-8, (
        f"share deviates {s_dev:.2e} from 1/21; the exact finite-horizon "
        "equilibrium cannot reach 1e-8 at T=200")
    assert R_dev <= 1e-6, (
        f"interest rate deviates {R_dev:.2e} relative from 1.1; the exact "
        "finite-horizon equilibrium cannot reach 1e-6 at T=200")


# ---------------------------------------------------------------- 4

def _scenario(announcements, kinds, T=120):
    segments: list[Segment] = []
    beliefs = []
    for announce, effective, e1, e2 in announcements:
        segments = [s for s in segments if s.start < effective]
        segments.append(Segment(effective, e1, e2, G))
        beliefs.append((announce, EndowmentPath(tuple(segments), T)))
    schedule = BeliefSchedule(tuple(beliefs))
    return solve_scenario(FUND, schedule, beliefs[-1][1], kinds, T)


BAND_LO = math.log(GROWTH_SQRT) - 0.02
BAND_HI = math.log(G) + 0.02
KINDS = [TerminalKind.FUNDAMENTAL, TerminalKind.BUBBLY, TerminalKind.FUNDAMENTAL]


def test_criterion_04_unanticipated_jumps():
    path = _scenario([(0, 0, 95.0, 105.0), (40, 40, 105.0, 95.0),
                      (80, 80, 95.0, 105.0)], KINDS)
    steps = np.diff(np.log(path.P))
    failures = []
    for t, d in enumerate(steps, start=1):
        if t == 40:
            if not d > BAND_HI:
                failures.append((t, d, "expected upward exit"))
        elif t == 80:
            if not d < BAND_LO:
                failures.append((t, d, "expected downward exit"))
        elif not BAND_LO <= d <= BAND_HI:
            failures.append((t, d, "unexpected exit"))
    _report(4, "unanticipated revisions jump only at 40/80", not failures,
            f"step into 40 {steps[39]:+.3f}, into 80 {steps[79]:+.3f}")
    assert not failures, failures


def test_criterion_04_anticipated_jumps():
    # News arrives at 30 and 70 but takes effect at 40 and 80. The price
    # exits the balanced band in the predicted direction at each news date,
    # and the whole announcement-to-effect transition stays directional:
    # no downward exits in the first window, none upward in the second,
    # and no exits at all outside the two windows.
    path = _scenario([(0, 0, 95.0, 105.0), (30, 40, 105.0, 95.0),
                      (70, 80, 95.0, 105.0)], KINDS)
    steps = np.diff(np.log(path.P))
    failures = []
    for t, d in enumerate(steps, start=1):
        in_band = BAND_LO <= d <= BAND_HI
        if t == 30:
            if not d > BAND_HI:
                failures.append((t, d, "expected upward exit at the news"))
        elif t == 70:
            if not d < BAND_LO:
                failures.append((t, d, "expected downward exit at the news"))
        elif 30 < t <= 40:
            if not (in_band or d > BAND_HI):
                failures.append((t, d, "downward exit inside upward window"))
        elif 70 < t <= 80:
            if not (in_band or d < BAND_LO):
                failures.append((t, d, "upward exit inside downward window"))
        elif not in_band:
            failures.append((t, d, "exit outside announcement windows"))
    _report(4, "anticipated revisions jump at the news dates 30/70", not failures,
            f"step into 30 {steps[29]:+.3f}, into 70 {steps[69]:+.3f}")
    assert not failures, failures


# ---------------------------------------------------------------- 5

def _structure_paths():
    yield "fundamental", solve_path(FUND, None, TerminalKind.FUNDAMENTAL, 200)
    yield "bubbly", solve_path(BUB, None, TerminalKind.BUBBLY, 200)
    asym = make(100.0, 50.0, beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08)
    yield "asymmetric bubbly", solve_path(asym, None, TerminalKind.BUBBLY, 200)
    gamma1 = make(100.0, 100.0, gamma=1.0)
    yield "log utility", solve_path(gamma1, None, TerminalKind.GAMMA1, 150)
    gamma15 = make(95.0, 105.0, gamma=1.5)
    yield "strong housing curvature", solve_path(
        gamma15, None, TerminalKind.GAMMA_ABOVE_1, 200)
    yield "scenario", _scenario([(0, 0, 95.0, 105.0), (40, 40, 105.0, 95.0),
                                 (80, 80, 95.0, 105.0)], KINDS)
    credit = credit_transform(make(100.0, 120.0), 0.2)
    yield "credit", solve_path(credit.params, None, TerminalKind.BUBBLY, 200)


def test_criterion_05_structure_suite():
    # Market clearing is checked to 2 ulp of total resources: with
    # c_y = e_y - S and c_o = e_o + S the identity is algebraic, and one
    # rounding per side is the floating-point rendering of "exact".
    worst = {"residual": 0.0, "clearing_ulp": 0.0, "no_arb": 0.0}
    failures = []
    for name, path in _structure_paths():
        res = float(path.residuals.max())
        worst["residual"] = max(worst["residual"], res)
        if res > 1e-10:
            failures.append((name, "residual", res))
        total = np.asarray(path.e_y) + np.asarray(path.e_o)
        ulp = float((np.abs((np.asarray(path.c_y) + np.asarray(path.c_o)) - total)
                     / np.spacing(total)).max())
        worst["clearing_ulp"] = max(worst["clearing_ulp"], ulp)
        if ulp > 2.0:
            failures.append((name, "market clearing", ulp))
        skip = set(path.revision_dates)
        for t in range(path.T):
            if t + 1 in skip:
                continue
            gap = abs(path.R[t] * path.P[t] - (path.P[t + 1] + path.r[t + 1]))
            rel = gap / path.S[t + 1]
            worst["no_arb"] = max(worst["no_arb"], rel)
            if rel > 1e-10:
                failures.append((name, "no-arbitrage", rel, t))
        S = np.asarray(path.S)
        if not (np.all(S > 0.0) and np.all(S < np.asarray(path.e_y))):
            failures.append((name, "state bounds"))
    ok = not failures
    _report(5, "residual/structure suite on every solved path", ok,
            f"residual<={worst['residual']:.1e}, "
            f"clearing<={worst['clearing_ulp']:.1f} ulp, "
            f"no-arb<={worst['no_arb']:.1e}")
    assert not failures, failures


# ---------------------------------------------------------------- 6

def _share_map_slope(params, s_star, h_rel=1e-6):
    """Central difference through the asymptotic share map near its rest point."""
    agg, G_, w = params.agg, params.G, params.income_ratio
    h = h_rel * s_star

    def step(s_t):
        def f(x):
            cy, cz = agg.partials(1.0 - s_t, G_ * (w + x))
            return G_ * x * cz - s_t * cy
        return newton(f, s_star, tol=1e-14, maxiter=200)

    return (step(s_star + h) - step(s_star - h)) / (2.0 * h)


def _rent_scaled_slope(params, s_star, h_rel=1e-6):
    """Central difference through the exact one-step backward map, taken far
    enough out that the vanishing expenditure share no longer matters."""
    G_, gamma = params.G, params.housing.gamma
    t = math.ceil((14.0 + math.log(max(s_star, 1.0)))
                  / ((1.0 - gamma) * math.log(G_)))
    scale_t = params.e1 ** gamma * G_ ** (gamma * t)
    scale_next = scale_t * G_ ** gamma
    e_y = params.e1 * G_ ** t
    e_o = params.e2 * G_ ** (t + 1)
    h = h_rel * s_star

    def back(level_next):
        S = backward_step(params.housing, params.agg,
                          level_next * scale_next, e_y, e_o)
        return S / scale_t

    backward_slope = (back(s_star + h) - back(s_star - h)) / (2.0 * h)
    return 1.0 / backward_slope


def test_criterion_06_eigenvalue_oracle():
    rng = np.random.default_rng(20240825)
    worst_bub = worst_fund = 0.0
    checked = 0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 500, "draw filter rejected too many candidates"
        beta = rng.uniform(0.25, 0.75)
        sigma = rng.uniform(0.4, 2.5)
        gamma = rng.uniform(0.2, 0.85)
        growth = rng.uniform(1.03, 1.18)
        probe = make(1.0, 1.0, beta=beta, sigma=sigma, gamma=gamma, G=growth)
        thr = thresholds(probe)
        w_bub = rng.uniform(0.4, 0.95) * thr.w_f_star
        w_fund = rng.uniform(1.05, 1.6) * thr.w_b_star
        p_bub = make(1.0, w_bub, beta=beta, sigma=sigma, gamma=gamma, G=growth)
        p_fund = make(1.0, w_fund, beta=beta, sigma=sigma, gamma=gamma, G=growth)
        rep_bub = bubbly_steady_state(p_bub)
        if not rep_bub.eis_condition.holds:
            continue
        rep_fund = fundamental_steady_state(p_fund)
        dev_bub = abs(_share_map_slope(p_bub, rep_bub.s_star)
                      / rep_bub.lambda1 - 1.0)
        dev_fund = abs(_rent_scaled_slope(p_fund, rep_fund.s_star)
                       / rep_fund.lambda1 - 1.0)
        assert rep_bub.lambda2 == growth ** (gamma - 1.0)
        assert rep_fund.lambda2 == growth ** (gamma - 1.0)
        worst_bub = max(worst_bub, dev_bub)
        worst_fund = max(worst_fund, dev_fund)
        checked += 1
    ok = worst_bub <= 1e-4 and worst_fund <= 1e-4
    _report(6, "analytic eigenvalues vs finite differences, 20 draws", ok,
            f"worst bubbly {worst_bub:.1e}, worst fundamental {worst_fund:.1e}, "
            f"lambda2 exact on all draws")
    assert worst_bub <= 1e-4
    assert worst_fund <= 1e-4


# ---------------------------------------------------------------- 7

def test_criterion_07_welfare_agreement():
    cases = [
        (FUND, TerminalKind.FUNDAMENTAL, LongRunKind.FUNDAMENTAL_LONG_RUN),
        (make(100.0, 98.0), TerminalKind.FUNDAMENTAL,
         LongRunKind.FUNDAMENTAL_LONG_RUN),
        (make(100.0, 98.0), TerminalKind.BUBBLY, LongRunKind.BUBBLY_LONG_RUN),
        (BUB, TerminalKind.BUBBLY, LongRunKind.BUBBLY_LONG_RUN),
        (make(100.0, 50.0, beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08),
         TerminalKind.BUBBLY, LongRunKind.BUBBLY_LONG_RUN),
    ]
    rows = []
    failures = []
    for params, terminal, kind in cases:
        analytic = welfare_class(params, kind).value
        measured = efficiency_test(
            solve_path(params, None, terminal, 200)).is_efficient.value
        w = params.income_ratio
        rows.append(f"w={w:.3f}/{terminal.value}: {measured}")
        if measured != analytic:
            failures.append((w, terminal.value, measured, analytic))
    inefficient = rows[1].endswith("Inefficient")
    efficient = rows[0].endswith(": Efficient")
    ok = not failures and inefficient and efficient
    _report(7, "efficiency verdicts match the analytic classification", ok,
            "; ".join(rows))
    assert not failures, failures
    assert inefficient and efficient


# ---------------------------------------------------------------- 8

def test_criterion_08_credit_crowd_out():
    base = make(100.0, 120.0)
    paths = {}
    for lam in (0.2, 0.15):
        transformed = credit_transform(base, lam)
        paths[lam] = solve_path(transformed.params, None,
                                TerminalKind.BUBBLY, 200)
    tail = slice(-20, None)
    t_idx = np.arange(201)[tail]
    P = paths[0.2].P[tail]
    price_dev = float(np.max(np.abs(P - 10.0 * G ** t_idx) / P))
    cons_dev = float(np.max(np.abs(np.asarray(paths[0.2].c_y[tail]) - paths[0.15].c_y[tail])
                            / paths[0.2].c_y[tail]))
    ok = price_dev <= 1e-3 and cons_dev <= 1e-4
    _report(8, "credit: price level and one-for-one crowd-out", ok,
            f"|P-10*G^t|/P<={price_dev:.1e}, "
            f"|c_y(0.2)-c_y(0.15)|/c_y<={cons_dev:.1e}")
    assert price_dev <= 1e-3
    assert cons_dev <= 1e-4


# ---------------------------------------------------------------- 9

def test_criterion_09_log_housing_branch():
    params = make(100.0, 100.0, gamma=1.0)
    rep = gamma1_steady_state(params)
    s_dev = abs(rep.s_star - 1.0 / math.sqrt(11.0))
    path = solve_path(params, None, TerminalKind.GAMMA1, 150)
    s_flat = float(np.abs(np.asarray(path.s) / path.s[0] - 1.0).max())
    ratio = np.asarray(path.P) / np.asarray(path.r)
    ratio_flat = float(np.abs(ratio / ratio[0] - 1.0).max())
    ok = s_dev <= 1e-10 and s_flat <= 1e-8 and ratio_flat <= 1e-8
    _report(9, "log housing: closed-form state and flat path", ok,
            f"|s*-1/sqrt(11)|={s_dev:.1e}, share flat to {s_flat:.1e}, "
            f"price-rent flat to {ratio_flat:.1e}")
    assert s_dev <= 1e-10
    assert s_flat <= 1e-8
    assert ratio_flat <= 1e-8


# ---------------------------------------------------------------- 10

def test_criterion_10_strong_curvature_branch():
    params = make(95.0, 105.0, gamma=1.5)
    path = solve_path(params, None, TerminalKind.GAMMA_ABOVE_1, 200)
    tail = slice(-60, None)
    s = np.asarray(path.s[tail])
    R = np.asarray(path.R[tail])
    ratio = (np.asarray(path.P) / np.asarray(path.r))[tail]
    s_up = bool(np.all(np.diff(s) > 0.0))
    gap_down = bool(np.all(np.diff(1.0 - s) < 0.0))
    R_up = bool(np.all(np.diff(R) > 0.0))
    R_high = bool(R[-1] > 10.0 * G)
    ratio_down = bool(np.all(np.diff(ratio) < 0.0))
    ratio_small = bool(ratio[-1] < 1e-3 * (np.asarray(path.P) / np.asarray(path.r))[0])
    ok = s_up and gap_down and R_up and R_high and ratio_down and ratio_small
    _report(10, "strong curvature: share to 1, rate and ratio limits", ok,
            f"s[-1]={s[-1]:.6f}, R[-1]={R[-1]:.1f}, "
            f"price-rent[-1]={ratio[-1]:.2e}")
    assert s_up and gap_down
    assert R_up and R_high
    assert ratio_down and ratio_small
