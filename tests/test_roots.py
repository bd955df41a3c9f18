"""The package's root finder, safeguarded Newton, against independent oracles.

The solver's per-date share roots are checked against scipy's Brent roots
of the same equation and against 50-digit roots computed with mpmath; the
gamma = 1 steady-state share against its 50-digit root.
"""
import math
import random

import mpmath
import pytest

from olghousing import roots, solver
from olghousing.errors import ModelError, SolverError
from olghousing.preferences import CesAggregator, HousingUtility
from olghousing.regimes import EconomyParams, gamma1_steady_state
from olghousing.solver import solve_path
from oracles import (brent_share_root, coordinate, coordinate_error, mp_gamma1_share,
                     mp_share_root, ulp_in_coordinate)

EPS = 2.220446049250313e-16


def test_solver_errors_belong_to_the_model_error_contract():
    assert issubclass(SolverError, ModelError)


# ---------------------------------------------------------------- Brent oracle

def random_share_states(seed=5):
    """120 seeded one-date states over all three curvature branches."""
    rng = random.Random(seed)
    for gamma in (0.3, 0.6, 0.9, 1.0, 1.2, 1.5):
        for _ in range(20):
            agg = CesAggregator(beta=rng.uniform(0.2, 0.8), sigma=rng.uniform(0.4, 3.0))
            housing = HousingUtility(gamma=gamma, m=rng.uniform(0.01, 0.4))
            share_next_scaled = rng.uniform(1e-4, 0.6)
            z_hat = share_next_scaled + rng.uniform(0.2, 2.0)
            e_y_t = 10.0 ** rng.uniform(0.0, 2.0)
            rng.choice((0, 1))  # a retired tolerance draw, kept so the states stay the same
            yield agg, housing, share_next_scaled, z_hat, e_y_t


def assert_matches_scipy(args, share):
    """The solver's share agrees with scipy's Brent root to twice the tolerance."""
    expected = brent_share_root(*args[:5])
    assert type(share) is float and 0.0 < share < 1.0
    assert share == pytest.approx(expected, rel=2 * roots._XTOL, abs=0.0)


def test_share_residual_roots_match_scipy_on_all_branches():
    for args in random_share_states():
        assert_matches_scipy(args, solver._solve_share(*args)[0])


def record_share_solves(monkeypatch):
    """Spy on ``solver._solve_share``: a list of (arguments, share) per date."""
    calls = []
    original = solver._solve_share

    def spy(*args):
        out = original(*args)
        calls.append((args, out[0]))
        return out

    monkeypatch.setattr(solver, "_solve_share", spy)
    return calls


@pytest.mark.parametrize("gamma,terminal", [(0.5, "Bubbly"), (0.5, "Fundamental"),
                                            (1.0, "Gamma1"), (1.3, "GammaAbove1")])
def test_solved_paths_match_scipy_step_for_step(monkeypatch, gamma, terminal):
    e1, e2 = (115.0, 85.0) if terminal == "Bubbly" else (95.0, 105.0)
    params = EconomyParams(agg=CesAggregator(beta=0.45, sigma=1.4),
                           housing=HousingUtility(gamma=gamma, m=0.1), G=1.08, e1=e1, e2=e2)
    calls = record_share_solves(monkeypatch)
    path = solve_path(params, None, terminal, 30)
    assert len(calls) >= 31
    for args, share in calls:
        assert_matches_scipy(args, share)
    assert path.residuals.max() < 1e-10


# ---------------------------------------------------------------- 50-digit oracle

def errors_in_ulp(args, share, upper):
    """Newton's and Brent's distance from the 50-digit root, in ulp of the share.

    Both are measured in one coordinate, log(1 - u) if ``upper`` and log u
    otherwise, from the same float inputs.
    """
    brent = brent_share_root(*args[:5])
    root = mp_share_root(*args[:5], coordinate(brent, upper), upper)
    ulp = ulp_in_coordinate(share, upper)
    return coordinate_error(share, root, upper) / ulp, coordinate_error(brent, root, upper) / ulp


def test_random_share_roots_as_close_to_50_digits_as_brent():
    for args in random_share_states():
        # in Newton's coordinate: log of the smaller of u and 1 - u
        share = solver._solve_share(*args)[0]
        newton, brent = errors_in_ulp(args, share, share > 0.5)
        assert newton <= max(brent, 2.0), (args, newton, brent)


def economy(beta=0.5, sigma=1.0, gamma=0.5, m=0.1, G=1.1, e1=95.0, e2=105.0):
    return EconomyParams(agg=CesAggregator(beta=beta, sigma=sigma),
                         housing=HousingUtility(gamma=gamma, m=m), G=G, e1=e1, e2=e2)


MP_PATHS = [
    ("fundamental", economy(), "Fundamental", 120),
    ("bubbly", economy(e1=105.0, e2=95.0), "Bubbly", 120),
    ("gamma1", economy(gamma=1.0, e1=100.0, e2=100.0), "Gamma1", 120),
    ("gamma-above-1", economy(gamma=1.5, e1=100.0, e2=100.0), "GammaAbove1", 120),
    ("sigma-1.7-bubbly", economy(beta=0.4, sigma=1.7, gamma=0.3, m=0.2, G=1.08,
                                 e1=100.0, e2=50.0), "Bubbly", 120),
]


@pytest.mark.parametrize("params,terminal,T", [c[1:] for c in MP_PATHS],
                         ids=[c[0] for c in MP_PATHS])
def test_solved_paths_as_close_to_50_digits_as_brent(monkeypatch, params, terminal, T):
    # both roots sit within a few ulp, where the float residual's own
    # rounding decides; so the paths are compared by their worst date
    calls = record_share_solves(monkeypatch)
    path = solve_path(params, None, terminal, T)
    newton, brent = zip(*(errors_in_ulp(args, share, share > 0.5) for args, share in calls))
    assert max(newton) <= max(max(brent), 2.0), (max(newton), max(brent))
    if params.housing.gamma <= 1.0:
        assert path.residuals.max() <= 1e-15


def gamma1_economy(beta, sigma, m, G, e1, e2):
    return EconomyParams(agg=CesAggregator(beta=beta, sigma=sigma),
                         housing=HousingUtility(gamma=1.0, m=m), G=G, e1=e1, e2=e2)


def random_gamma1_economies():
    """25 seeded gamma = 1 economies, each also at sigma = 1."""
    rng = random.Random(11)
    for _ in range(25):
        beta, sigma = rng.uniform(0.2, 0.8), rng.uniform(0.4, 3.0)
        m, G = 10.0 ** rng.uniform(-6.0, 0.0), rng.uniform(1.01, 1.2)
        e1, e2 = rng.uniform(50.0, 150.0), rng.uniform(50.0, 150.0)
        yield gamma1_economy(beta, sigma, m, G, e1, e2)
        yield gamma1_economy(beta, 1.0, m, G, e1, e2)


# (beta, m, G, e1, e2) at sigma = 1; the last is the golden gamma1 config,
# whose root is 1/sqrt(11)
SIGMA1_ECONOMIES = [
    (0.3, 1e-9, 1.05, 10.0, 150.0),
    (0.5, 1e-7, 1.1, 20.0, 100.0),
    (0.5, 0.1, 1.1, 100.0, 100.0),
]


def test_gamma1_share_within_its_condition_number_of_50_digits():
    economies = list(random_gamma1_economies())
    economies += [gamma1_economy(beta, 1.0, m, G, e1, e2)
                  for beta, m, G, e1, e2 in SIGMA1_ECONOMIES]
    for params in economies:
        s = gamma1_steady_state(params).s_star
        root, kappa = mp_gamma1_share(params, s)
        with mpmath.workdps(50):
            error = float(abs(s - root) / root)
        assert error <= 8 * EPS * kappa, (params, error / (EPS * kappa))


def sigma1_quadratic_root(params):
    """The gamma = 1 share at sigma = 1, at 50 digits.

    With Cobb-Douglas consumption the condition reduces to
    ``-(1+m) s^2 + (beta - (1-beta) w + m (1-w)) s + m w = 0``; its
    positive root.
    """
    with mpmath.workdps(50):
        beta, m = mpmath.mpf(params.agg.beta), mpmath.mpf(params.housing.m)
        w = mpmath.mpf(params.income_ratio)
        a, b, c = -(1 + m), beta - (1 - beta) * w + m * (1 - w), m * w
        return (-b - mpmath.sqrt(b * b - 4 * a * c)) / (2 * a)


@pytest.mark.parametrize("beta,m,G,e1,e2", SIGMA1_ECONOMIES)
def test_gamma1_share_at_sigma_1_is_the_exact_quadratic_root(beta, m, G, e1, e2):
    params = gamma1_economy(beta, 1.0, m, G, e1, e2)
    s = gamma1_steady_state(params).s_star
    with mpmath.workdps(50):
        root = sigma1_quadratic_root(params)
        assert float(abs(s - root)) <= 4 * math.ulp(s), (s, root)


def test_golden_gamma1_share_is_one_over_sqrt_11_correctly_rounded():
    s = gamma1_steady_state(gamma1_economy(0.5, 1.0, 0.1, 1.1, 100.0, 100.0)).s_star
    with mpmath.workdps(50):
        assert s == float(1 / mpmath.sqrt(11))


# ---------------------------------------------------------------- safeguarded Newton

def decreasing(g, dg):
    """A kernel function from a decreasing g and its derivative."""
    def f(x):
        return g(x), dg(x), 1.0
    return f


def test_newton_from_a_near_start_converges_in_few_evaluations():
    root = math.log(3.0)
    f = decreasing(lambda x: 3.0 - math.exp(x), lambda x: -math.exp(x))
    x, dx, evaluations, safeguards = roots.newton(f, root + 1e-4, -700.0, 5.0, 50)
    assert evaluations <= 3 and safeguards == 0
    assert abs(x + dx - root) <= 2 * math.ulp(root)


def test_newton_replaces_steps_that_would_overflow():
    # from far below the root the slope underflows to 0 and then stays so
    # tiny that a Newton step would reach e^700 and beyond
    f = decreasing(lambda x: 3.0 - math.exp(x), lambda x: -math.exp(x))
    x, dx, evaluations, safeguards = roots.newton(f, -745.0, -800.0, 20.0, 300)
    assert safeguards >= 1
    assert x + dx == pytest.approx(math.log(3.0), rel=1e-15)


def test_newton_expands_toward_an_unknown_lower_end():
    # a saturated tanh: the first Newton step is far longer than 700, and no
    # point below the root is known yet, so the iterate moves down by ln 8
    f = decreasing(lambda x: -math.tanh((x + 50.0) / 10.0),
                   lambda x: -1.0 / (10.0 * math.cosh((x + 50.0) / 10.0) ** 2))
    x, dx, evaluations, safeguards = roots.newton(f, 0.0, -700.0, 1.0, 300)
    assert safeguards >= 1
    assert x + dx == pytest.approx(-50.0, rel=1e-14)


def test_newton_returns_the_floor_when_the_root_lies_below_it():
    f = decreasing(lambda x: -1.0 - x, lambda x: -1.0)
    assert roots.newton(f, 0.0, -0.5, 1.0, 50)[:2] == (-0.5, 0.0)


def test_newton_does_not_stop_where_a_term_overflows():
    # an infinite value against an infinite scale is not a small residual
    def f(x):
        value = math.inf if x < 0.0 else 1.0 - x
        return value, -1.0, abs(value)

    x, dx, evaluations, safeguards = roots.newton(f, -1.0, -10.0, 5.0, 50)
    assert safeguards >= 1
    assert x + dx == pytest.approx(1.0, rel=1e-15)


def test_newton_replaces_the_zero_step_of_an_infinite_slope():
    # value / -slope is 0 for slope = -inf; taken, that step would read as convergence
    def f(x):
        return 5.0 - x, -math.inf if x == 0.0 else -1.0, 5.0

    x, dx, evaluations, safeguards = roots.newton(f, 0.0, -10.0, 20.0, 100)
    assert safeguards >= 1
    assert x + dx == 5.0


def test_newton_nan_value_is_a_solver_error():
    with pytest.raises(SolverError, match="NaN at x=0.0"):
        roots.newton(lambda x: (math.nan, -1.0, 1.0), 0.0, -1.0, 1.0, 50)


def test_newton_no_convergence_is_a_solver_error():
    f = decreasing(lambda x: 3.0 - math.exp(x), lambda x: -math.exp(x))
    with pytest.raises(SolverError, match="no convergence after 2 iterations"):
        roots.newton(f, 0.0, -700.0, 5.0, 2)
