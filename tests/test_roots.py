"""The in-package root finders: Brent and safeguarded Newton.

``scipy.optimize.brentq`` is an independent oracle here: the Brent kernel
ports its C loop operation for operation, so on every bracketed problem both
must return the same float after the same number of function evaluations.
The solver's Newton roots are checked against scipy's Brent roots of the
same equation, and against 50-digit roots computed with mpmath.
"""
import math
import random

import pytest
from scipy.optimize import brentq as scipy_brentq

from olghousing import regimes, roots, solver
from olghousing.errors import ModelError, SolverError
from olghousing.preferences import CesAggregator, HousingUtility
from olghousing.regimes import EconomyParams, gamma1_steady_state
from olghousing.solver import solve_path
from oracles import brent_share_root, coordinate_error, mp_share_root, ulp_in_coordinate

EPS4 = 4 * 2.220446049250313e-16


class Counted:
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def agree_with_scipy(f, a, b, xtol, rtol, maxiter):
    """Both solvers on one problem; asserts equal roots and call counts."""
    ours, theirs = Counted(f), Counted(f)
    x = roots.brentq(ours, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    y = scipy_brentq(theirs, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert x == y, (x, y, a, b, xtol, rtol)
    assert ours.calls == theirs.calls
    return x


class Oracle:
    """Stand-in for a module's ``brentq`` that checks each call against scipy."""

    def __init__(self):
        self.calls = 0

    def __call__(self, f, a, b, xtol, rtol, maxiter):
        self.calls += 1
        return agree_with_scipy(f, a, b, xtol, rtol, maxiter)


# ---------------------------------------------------------------- failures

def test_nan_at_a_bracket_end_is_a_solver_error():
    with pytest.raises(SolverError, match="NaN at x=0.0"):
        roots.brentq(lambda x: math.nan if x == 0.0 else x - 0.5, 0.0, 1.0, 1e-12, EPS4, 100)


def test_nan_at_an_iterate_is_a_solver_error():
    def f(x):
        return x - 0.3 if x in (0.0, 1.0) else math.nan

    with pytest.raises(SolverError, match=r"NaN at x=0\.[1-9]"):
        roots.brentq(f, 0.0, 1.0, 1e-12, EPS4, 100)


def test_unbracketed_root_is_a_solver_error():
    with pytest.raises(SolverError, match="do not bracket a root"):
        roots.brentq(lambda x: x + 1.0, 0.0, 1.0, 1e-12, EPS4, 100)


def test_no_convergence_is_a_solver_error():
    with pytest.raises(SolverError, match="no convergence after 3 iterations"):
        roots.brentq(lambda x: math.exp(x) - 2.0, 0.0, 10.0, 1e-300, EPS4, 3)


def test_solver_errors_belong_to_the_model_error_contract():
    assert issubclass(SolverError, ModelError)


def test_exact_zero_at_a_bracket_end_is_returned():
    assert roots.brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12, EPS4, 100) == 1.0
    assert roots.brentq(lambda x: x, 0.0, 1.0, 1e-12, EPS4, 100) == 0.0


# ---------------------------------------------------------------- scipy oracle

def _random_problem(rng: random.Random):
    """A smooth function with one root in a bracket, and solver settings."""
    place = rng.choice(("interior", "near 0", "near 1"))
    if place == "interior":
        r = rng.uniform(0.01, 0.99)
    elif place == "near 0":
        r = 10.0 ** -rng.uniform(2.0, 13.0)
    else:
        r = 1.0 - 10.0 ** -rng.uniform(2.0, 13.0)
    k = rng.uniform(0.2, 30.0)
    c = rng.uniform(0.0, 5.0)
    sign = rng.choice((1.0, -1.0))
    family = rng.randrange(5)
    if family == 0:
        def f(x):
            return sign * (k * (x - r) + c * (x - r) ** 3)
    elif family == 1:
        def f(x):
            return sign * math.expm1(k * (x - r))
    elif family == 2:
        def f(x):
            return sign * (math.tanh(k * (x - r)) + c * (x - r))
    elif family == 3:
        def f(x):
            return sign * math.log(x / r) * (1.0 + c * x)
    else:
        def f(x):
            return sign * (x - r) * math.exp(-k * x) / (1.0 + x * x)
    lo = r * rng.uniform(0.05, 0.9) if family == 3 else -rng.uniform(0.0, 0.5)
    hi = 1.0 + rng.uniform(0.0, 0.5)
    xtol, rtol = rng.choice(((1e-300, 9e-16), (1e-15, 8.9e-16), (2e-12, EPS4), (1e-10, 1e-10)))
    return f, lo, hi, xtol, rtol, rng.choice((100, 300))


def test_random_bracketed_functions_match_scipy_bit_for_bit():
    rng = random.Random(20261018)
    for _ in range(200):
        agree_with_scipy(*_random_problem(rng))


def test_underflowing_interpolation_matches_scipy():
    # slopes of order 1e-150 and below underflow the extrapolation
    # denominator to zero, where C divides into inf or nan and bisects
    rng = random.Random(3)
    for _ in range(50):
        r, k, scale = rng.uniform(0.05, 0.95), rng.uniform(0.5, 5.0), 10.0 ** -rng.uniform(150, 300)
        agree_with_scipy(lambda x: scale * (math.expm1(k * (x - r)) + (x - r) ** 3),
                         0.0, 1.0, 1e-300, 9e-16, 300)


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
            rtol = rng.choice((solver._MIN_RTOL, 1e-10))
            yield agg, housing, share_next_scaled, z_hat, e_y_t, rtol


def assert_matches_scipy(args, share):
    """The solver's share agrees with scipy's Brent root to both tolerances."""
    expected = brent_share_root(*args[:6], brentq=scipy_brentq)
    assert type(share) is float and 0.0 < share < 1.0
    assert share == pytest.approx(expected, rel=2 * max(args[5], solver._MIN_RTOL), abs=0.0)


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


def test_gamma1_first_order_condition_matches_scipy(monkeypatch):
    oracle = Oracle()
    monkeypatch.setattr(regimes, "brentq", oracle)
    rng = random.Random(11)
    for _ in range(25):
        params = EconomyParams(agg=CesAggregator(beta=rng.uniform(0.2, 0.8),
                                                 sigma=rng.uniform(0.4, 3.0)),
                               housing=HousingUtility(gamma=1.0, m=10.0 ** rng.uniform(-6.0, 0.0)),
                               G=rng.uniform(1.01, 1.2), e1=rng.uniform(50.0, 150.0),
                               e2=rng.uniform(50.0, 150.0))
        assert 0.0 < gamma1_steady_state(params).s_star < 1.0
    assert oracle.calls == 25


# ---------------------------------------------------------------- 50-digit oracle

def errors_in_ulp(args, share):
    """Newton's and Brent's distance from the 50-digit root, in ulp of the share.

    Both are measured in Newton's coordinate (log u, or log(1 - u) for
    gamma > 1), from the same float inputs.
    """
    brent = brent_share_root(*args[:6])
    upper = args[1].gamma > 1.0
    root = mp_share_root(*args[:5], brent)
    ulp = ulp_in_coordinate(share, upper)
    return coordinate_error(share, root, upper) / ulp, coordinate_error(brent, root, upper) / ulp


def test_random_share_roots_as_close_to_50_digits_as_brent():
    for args in random_share_states():
        newton, brent = errors_in_ulp(args, solver._solve_share(*args)[0])
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
    newton, brent = zip(*(errors_in_ulp(args, share) for args, share in calls))
    assert max(newton) <= max(max(brent), 2.0), (max(newton), max(brent))
    if params.housing.gamma <= 1.0:
        assert path.residuals.max() <= 1e-15


# ---------------------------------------------------------------- safeguarded Newton

def decreasing(g, dg):
    """A kernel function from a decreasing g and its derivative."""
    def f(x):
        return g(x), dg(x), 1.0
    return f


def test_newton_from_a_near_start_converges_in_few_evaluations():
    root = math.log(3.0)
    f = decreasing(lambda x: 3.0 - math.exp(x), lambda x: -math.exp(x))
    x, dx, evaluations, safeguards = roots.newton(f, root + 1e-4, -700.0, 5.0, 9e-16, 50)
    assert evaluations <= 3 and safeguards == 0
    assert abs(x + dx - root) <= 2 * math.ulp(root)


def test_newton_replaces_steps_that_would_overflow():
    # from far below the root the slope underflows to 0 and then stays so
    # tiny that a Newton step would reach e^700 and beyond
    f = decreasing(lambda x: 3.0 - math.exp(x), lambda x: -math.exp(x))
    x, dx, evaluations, safeguards = roots.newton(f, -745.0, -800.0, 20.0, 9e-16, 300)
    assert safeguards >= 1
    assert x + dx == pytest.approx(math.log(3.0), rel=1e-15)


def test_newton_expands_toward_an_unknown_lower_end():
    # a saturated tanh: the first Newton step is far longer than 700, and no
    # point below the root is known yet, so the iterate moves down by ln 8
    f = decreasing(lambda x: -math.tanh((x + 50.0) / 10.0),
                   lambda x: -1.0 / (10.0 * math.cosh((x + 50.0) / 10.0) ** 2))
    x, dx, evaluations, safeguards = roots.newton(f, 0.0, -700.0, 1.0, 9e-16, 300)
    assert safeguards >= 1
    assert x + dx == pytest.approx(-50.0, rel=1e-14)


def test_newton_returns_the_floor_when_the_root_lies_below_it():
    f = decreasing(lambda x: -1.0 - x, lambda x: -1.0)
    assert roots.newton(f, 0.0, -0.5, 1.0, 9e-16, 50)[:2] == (-0.5, 0.0)


def test_newton_nan_value_is_a_solver_error():
    with pytest.raises(SolverError, match="NaN at x=0.0"):
        roots.newton(lambda x: (math.nan, -1.0, 1.0), 0.0, -1.0, 1.0, 9e-16, 50)


def test_newton_no_convergence_is_a_solver_error():
    f = decreasing(lambda x: 3.0 - math.exp(x), lambda x: -math.exp(x))
    with pytest.raises(SolverError, match="no convergence after 2 iterations"):
        roots.newton(f, 0.0, -700.0, 5.0, 9e-16, 2)
