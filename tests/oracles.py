"""Independent solutions of one date's equilibrium equation, for the solver tests.

``brent_share_root`` is the bracketing solve the solver used before Newton:
a top-down scan for a sign change (``lo /= 8`` from 1e-14, ``1 - hi /= 8``
from 1 - 1e-14) and Brent's method on it, with the equation written out term
by term, on ``scipy.optimize.brentq``. ``mp_share_root`` solves the same
equation from the same float inputs at 50 significant digits with mpmath,
and ``mp_gamma1_share`` does so for the gamma = 1 steady-state condition.
"""
import math

import mpmath
from scipy.optimize import brentq as scipy_brentq

from olghousing.errors import SolverError

EDGE = 1e-14
MIN_RTOL = 9e-16


def brent_share_root(agg, housing, share_next_scaled, z_hat, e_y_t, brentq=scipy_brentq):
    def f(u):
        c, cy, cz = agg.value_partials(1.0 - u, z_hat)[:3]
        rent = housing.m * e_y_t ** (housing.gamma - 1.0) * c ** housing.gamma
        return share_next_scaled * cz - u * cy + rent

    lo, hi = EDGE, 1.0 - EDGE
    while f(lo) <= 0.0:
        lo /= 8.0
        if lo < 1e-300:
            raise SolverError("share root vanished below representable range")
    while f(hi) >= 0.0:
        hi = 1.0 - (1.0 - hi) / 8.0
        if hi == 1.0:
            raise SolverError("share root pinned against full young income")
    return brentq(f, lo, hi, xtol=1e-300, rtol=MIN_RTOL, maxiter=300)


def _ces(beta, sigma, y, z):
    """CES value and first partials at mpmath precision."""
    if sigma == 1:
        c = y ** (1 - beta) * z ** beta
    else:
        e = 1 - sigma
        c = ((1 - beta) * y ** e + beta * z ** e) ** (1 / e)
    return c, (1 - beta) * (y / c) ** (-sigma), beta * (z / c) ** (-sigma)


def coordinate(u, upper):
    """A coordinate of a share, exactly: log u, or log(1 - u) if ``upper``."""
    u = mpmath.mpf(u)
    return mpmath.log(1 - u) if upper else mpmath.log(u)


def mp_share_root(agg, housing, share_next_scaled, z_hat, e_y_t, x0, upper):
    """The root's coordinate (``coordinate(root, upper)``) at 50 digits.

    The secant iteration starts at ``x0``, a coordinate near the root's (a
    share u near 1 cannot carry log(1 - u) itself).
    """
    with mpmath.workdps(50):
        beta, sigma = mpmath.mpf(agg.beta), mpmath.mpf(agg.sigma)
        gamma, z = mpmath.mpf(housing.gamma), mpmath.mpf(z_hat)
        sns = mpmath.mpf(share_next_scaled)
        rent_scale = mpmath.mpf(housing.m) * mpmath.mpf(e_y_t) ** (gamma - 1)

        def f(x):
            w = mpmath.exp(x)
            u, y = (1 - w, w) if upper else (w, 1 - w)
            c, cy, cz = _ces(beta, sigma, y, z)
            return sns * cz - u * cy + rent_scale * c ** gamma

        root = mpmath.findroot(f, (x0, x0 * (1 + mpmath.mpf(2) ** -40)), tol=mpmath.mpf(10) ** -45)
        assert abs(root - x0) < 1e-6, (root, x0)
        return root


def coordinate_error(u, root, upper):
    """Distance of a float share from the 50-digit root, in the coordinate."""
    with mpmath.workdps(50):
        return float(abs(coordinate(u, upper) - root))


def ulp_in_coordinate(u, upper):
    """One ulp of the share u, measured in the coordinate ``upper`` names."""
    return math.ulp(u) / ((1.0 - u) if upper else u)


def mp_gamma1_share(params, guess):
    """The gamma = 1 steady-state share and its condition number, at 50 digits.

    Solves ``(G c_z - c_y)/c + m/s = 0`` at ``y = 1 - s``, ``z = G (w + s)``
    from the float inputs of a CES economy, by a secant iteration in log s
    started at the float share ``guess``. The condition number is
    ``max(G c_z/c, c_y/c, m/s) / |s dF/ds|`` at the root: the relative error
    in s that one unit of relative error in the largest term causes.
    """
    with mpmath.workdps(50):
        beta, sigma = mpmath.mpf(params.agg.beta), mpmath.mpf(params.agg.sigma)
        G, m = mpmath.mpf(params.G), mpmath.mpf(params.housing.m)
        w = mpmath.mpf(params.income_ratio)

        def terms(s):
            c, cy, cz = _ces(beta, sigma, 1 - s, G * (w + s))
            return G * cz / c, cy / c, m / s

        def foc(s):
            resale, spent, rent = terms(s)
            return resale - spent + rent

        x0 = mpmath.log(guess)
        x = mpmath.findroot(lambda x: foc(mpmath.exp(x)), (x0, x0 * (1 + mpmath.mpf(2) ** -40)),
                            tol=mpmath.mpf(10) ** -45)
        root = mpmath.exp(x)
        assert abs(x - x0) < 1e-6, (root, guess)
        kappa = max(terms(root)) / abs(root * mpmath.diff(foc, root))
        return root, float(kappa)
