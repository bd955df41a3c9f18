"""Aggregator kernel tests.

Frozen reference values come from a 50-digit mpmath evaluation of the CES
closed forms, cross-checked there against high-precision central
differences; see tools/oracles.py.
"""
import math

import numpy as np
import pytest

from olghousing import CesAggregator, DomainError, HousingUtility


def second_partials(agg, y, z):
    """(c_yy, c_yz, c_zz): the cross partial, and the own partials from it by
    degree-zero homogeneity of the first partials."""
    cyz = agg.value_partials(y, z)[3]
    return -(z / y) * cyz, cyz, -(y / z) * cyz


def mrs(agg, y, z):
    """Marginal rate of substitution c_y / c_z."""
    cy, cz = agg.partials(y, z)
    return cy / cz


# (beta, sigma, y, z) -> (c, c_y, c_z, c_yy, c_yz, c_zz, mrs, eis)
FROZEN = {
    (0.4, 1.7, 1.3, 0.8): (
        1.0491710529392602,
        0.41676022227627962,
        0.63422845497512077,
        -0.26356105681665396,
        0.42828671732706268,
        -0.69596591565647684,
        0.6571137245688986,
        0.58823529411764707,
    ),
    (0.3, 0.5, 0.6, 2.4): (
        1.0139999999999999,
        0.91000000000000001,
        0.19499999999999999,
        -0.35000000000000001,
        0.087500000000000001,
        -0.021875,
        4.6666666666666669,
        2.0,
    ),
    (0.5, 1.0, 1.0, 1.215789): (
        1.1026282238361215,
        0.55131411191806074,
        0.45346200032905441,
        -0.27565705595903037,
        0.22673100016452721,
        -0.18648877409199064,
        1.215789,
        1.0,
    ),
}


@pytest.mark.parametrize("point", sorted(FROZEN))
def test_frozen_point_values(point):
    beta, sigma, y, z = point
    c, cy, cz, cyy, cyz, czz, frozen_mrs, eis = FROZEN[point]
    agg = CesAggregator(beta=beta, sigma=sigma)
    assert agg.value(y, z) == pytest.approx(c, rel=1e-14)
    got_cy, got_cz = agg.partials(y, z)
    assert got_cy == pytest.approx(cy, rel=1e-14)
    assert got_cz == pytest.approx(cz, rel=1e-14)
    got_cyy, got_cyz, got_czz = second_partials(agg, y, z)
    assert got_cyy == pytest.approx(cyy, rel=1e-13)
    assert got_cyz == pytest.approx(cyz, rel=1e-13)
    assert got_czz == pytest.approx(czz, rel=1e-13)
    assert mrs(agg, y, z) == pytest.approx(frozen_mrs, rel=1e-13)
    assert agg.eis(y, z) == pytest.approx(eis, rel=1e-13)


def test_symmetric_identities():
    agg = CesAggregator(beta=0.5, sigma=1.0)
    assert agg.value(1.0, 1.0) == 1.0
    assert agg.partials(1.0, 1.0) == (0.5, 0.5)
    assert agg.value_partials(1.0, 1.0)[3] == pytest.approx(0.25, rel=1e-15)
    assert CesAggregator(beta=0.5, sigma=2.0).value(2.0, 2.0) == pytest.approx(2.0, rel=1e-15)


def test_cobb_douglas_branch_is_exact():
    # the sigma == 1 member must be the closed-form product, not a limit
    agg = CesAggregator(beta=0.3, sigma=1.0)
    assert agg.value(2.0, 0.5) == 2.0 ** (1.0 - 0.3) * 0.5 ** 0.3
    assert agg.value(2.0, 0.5) == pytest.approx(1.3195079107728943, rel=1e-15)
    near = CesAggregator(beta=0.3, sigma=1.0 + 1e-9)
    assert near.value(2.0, 0.5) != agg.value(2.0, 0.5)
    assert near.value(2.0, 0.5) == pytest.approx(agg.value(2.0, 0.5), rel=1e-6)


def _random_grid(n=200, lo=0.1, hi=10.0, seed=20240817):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, 2))


@pytest.mark.parametrize("beta,sigma", [(0.5, 1.0), (0.4, 1.7), (0.3, 0.5), (0.7, 4.0)])
def test_homogeneity_and_euler(beta, sigma):
    agg = CesAggregator(beta=beta, sigma=sigma)
    for y, z in _random_grid():
        c = agg.value(y, z)
        for lam in (0.5, 2.0, 10.0):
            assert agg.value(lam * y, lam * z) == pytest.approx(lam * c, rel=1e-12)
        cy, cz = agg.partials(y, z)
        assert cy > 0.0 and cz > 0.0
        assert y * cy + z * cz == pytest.approx(c, rel=1e-12)
        # degree-zero homogeneity of partials and mrs
        cy2, cz2 = agg.partials(3.0 * y, 3.0 * z)
        assert cy2 == pytest.approx(cy, rel=1e-12)
        assert cz2 == pytest.approx(cz, rel=1e-12)
        assert mrs(agg, 2.0 * y, 2.0 * z) == pytest.approx(mrs(agg, y, z), rel=1e-12)


@pytest.mark.parametrize("beta,sigma", [(0.5, 1.0), (0.4, 1.7), (0.3, 0.5), (0.7, 4.0)])
def test_value_partials_is_value_and_partials(beta, sigma):
    agg = CesAggregator(beta=beta, sigma=sigma)
    for y, z in _random_grid():
        c, cy, cz, cyz = agg.value_partials(y, z)
        assert (c, cy, cz) == (agg.value(y, z), *agg.partials(y, z))
        assert agg.eis(y, z) == cy * cz / (c * cyz)


@pytest.mark.parametrize("beta,sigma", [(0.5, 1.0), (0.4, 1.7), (0.3, 0.5)])
def test_partials_match_finite_differences(beta, sigma):
    agg = CesAggregator(beta=beta, sigma=sigma)
    h = 1e-6
    for y, z in _random_grid(n=50, lo=0.5, hi=5.0):
        cy, cz = agg.partials(y, z)
        fd_cy = (agg.value(y + h, z) - agg.value(y - h, z)) / (2 * h)
        fd_cz = (agg.value(y, z + h) - agg.value(y, z - h)) / (2 * h)
        assert cy == pytest.approx(fd_cy, rel=1e-6)
        assert cz == pytest.approx(fd_cz, rel=1e-6)


@pytest.mark.parametrize("beta,sigma", [(0.5, 1.0), (0.4, 1.7), (0.3, 0.5)])
def test_second_partials_match_finite_differences(beta, sigma):
    agg = CesAggregator(beta=beta, sigma=sigma)
    h = 1e-6
    for y, z in _random_grid(n=50, lo=0.5, hi=5.0):
        cyy, cyz, czz = second_partials(agg, y, z)
        assert cyy < 0.0 and cyz > 0.0 and czz < 0.0
        fd_cyy = (agg.partials(y + h, z)[0] - agg.partials(y - h, z)[0]) / (2 * h)
        fd_cyz = (agg.partials(y, z + h)[0] - agg.partials(y, z - h)[0]) / (2 * h)
        fd_czz = (agg.partials(y, z + h)[1] - agg.partials(y, z - h)[1]) / (2 * h)
        assert cyy == pytest.approx(fd_cyy, rel=1e-6)
        assert cyz == pytest.approx(fd_cyz, rel=1e-6)
        assert czz == pytest.approx(fd_czz, rel=1e-6)


def test_second_partials_cross_symmetry():
    # d(c_z)/dy must equal d(c_y)/dz
    agg = CesAggregator(beta=0.4, sigma=1.7)
    h = 1e-6
    y, z = 1.3, 0.8
    fd_czy = (agg.partials(y + h, z)[1] - agg.partials(y - h, z)[1]) / (2 * h)
    assert agg.value_partials(y, z)[3] == pytest.approx(fd_czy, rel=1e-6)


def test_mrs_monotone():
    agg = CesAggregator(beta=0.4, sigma=1.7)
    z = 1.5
    ys = np.linspace(0.2, 5.0, 40)
    vals = [mrs(agg, y, z) for y in ys]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    y = 0.9
    zs = np.linspace(0.2, 5.0, 40)
    vals = [mrs(agg, y, zv) for zv in zs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0, 5.0])
def test_eis_is_inverse_sigma(sigma):
    agg = CesAggregator(beta=0.35, sigma=sigma)
    for y, z in _random_grid(n=30, lo=0.3, hi=4.0):
        assert agg.eis(y, z) == pytest.approx(1.0 / sigma, rel=1e-10)
        assert agg.eis(5.0 * y, 5.0 * z) == pytest.approx(agg.eis(y, z), rel=1e-12)


def test_extreme_scales_stay_finite():
    agg = CesAggregator(beta=0.5, sigma=8.0)
    big = agg.value(1.3e150, 0.8e150)
    assert math.isfinite(big)
    assert big == pytest.approx(1e150 * agg.value(1.3, 0.8), rel=1e-12)
    small = agg.value(1.3e-150, 0.8e-150)
    assert small == pytest.approx(1e-150 * agg.value(1.3, 0.8), rel=1e-12)


def test_domain_errors():
    agg = CesAggregator(beta=0.5, sigma=1.0)
    for bad in [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (2.0, -3.0), (float("nan"), 1.0), (float("inf"), 1.0)]:
        with pytest.raises(DomainError):
            agg.value(*bad)
        with pytest.raises(DomainError):
            agg.partials(*bad)
    for beta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            CesAggregator(beta=beta, sigma=1.0)
    for sigma in (0.0, -1.0, float("inf")):
        with pytest.raises(DomainError):
            CesAggregator(beta=0.5, sigma=sigma)


def test_housing_utility_validation():
    for gamma, m in [(0.0, 0.1), (-0.5, 0.1), (0.5, 0.0), (0.5, -1.0), (float("inf"), 0.1)]:
        with pytest.raises(DomainError):
            HousingUtility(gamma=gamma, m=m)
