"""Composite-consumption kernel: the CES aggregator and the housing utility.

The equilibrium machinery is written for the CES aggregator c(y, z) over
young- and old-age consumption, whose closed-form thresholds locate the
regimes; it only ever calls ``value``, ``partials``, ``value_partials``,
``second_partials``, ``mrs`` and ``eis``. The unit-elasticity member
(Cobb-Douglas) is an exact branch, never a numerical limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["CesAggregator", "HousingUtility"]


def _check_point(y: float, z: float) -> None:
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError(f"y must be positive and finite, got {y!r}")
    if not (z > 0.0 and math.isfinite(z)):
        raise DomainError(f"z must be positive and finite, got {z!r}")


@dataclass(frozen=True)
class CesAggregator:
    """CES aggregator c(y, z) = ((1-beta) y^(1-sigma) + beta z^(1-sigma))^(1/(1-sigma)).

    Parameters
    ----------
    beta : float
        Weight on old-age consumption, in (0, 1).
    sigma : float
        Inverse elasticity of intertemporal substitution, positive.
        ``sigma == 1`` selects the exact Cobb-Douglas branch
        c(y, z) = y^(1-beta) z^beta.

    ``value`` is linearly homogeneous, so the partials are homogeneous of
    degree zero; the solver relies on both.
    """

    beta: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma!r}")

    def value(self, y: float, z: float) -> float:
        """Composite consumption c(y, z)."""
        _check_point(y, z)
        if self.sigma == 1.0:
            return y ** (1.0 - self.beta) * z ** self.beta
        e = 1.0 - self.sigma
        # factor out the point whose power (y^e or z^e) is larger, so the
        # other enters through delta <= 0 and nothing overflows
        ratio = z / y
        lr = math.log(ratio) if 0.0 < ratio < math.inf else math.log(z) - math.log(y)
        if e * lr <= 0.0:
            top, weight, delta = y, self.beta, e * lr
        else:
            top, weight, delta = z, 1.0 - self.beta, -e * lr
        # log((1 - weight) + weight*e^delta): expm1 and log1p keep a small
        # delta's relative precision (summing the powers first loses a factor
        # 1/|1 - sigma| of it near sigma = 1); the plain sum avoids the
        # cancellation in 1 + weight*expm1(delta) once e^delta is small
        if delta > -1.0:
            log_inner = math.log1p(weight * math.expm1(delta))
        else:
            log_inner = math.log((1.0 - weight) + weight * math.exp(delta))
        return top * math.exp(log_inner / e)

    def partials(self, y: float, z: float) -> tuple[float, float]:
        """First partial derivatives (c_y, c_z), both positive."""
        return self.value_partials(y, z)[1:3]

    def value_partials(self, y: float, z: float) -> tuple[float, float, float, float]:
        """``(c, c_y, c_z, c_yz)`` at one point."""
        c = self.value(y, z)
        cy = (1.0 - self.beta) * (y / c) ** (-self.sigma)
        cz = self.beta * (z / c) ** (-self.sigma)
        # cross partial from the CES curvature identity c_yz = sigma c_y c_z / c
        return c, cy, cz, self.sigma * cy * cz / c

    def second_partials(self, y: float, z: float) -> tuple[float, float, float]:
        """Second partial derivatives (c_yy, c_yz, c_zz), signs (-, +, -)."""
        # the own partials follow from degree-zero homogeneity of the first partials
        cyz = self.value_partials(y, z)[3]
        cyy = -(z / y) * cyz
        czz = -(y / z) * cyz
        return cyy, cyz, czz

    def mrs(self, y: float, z: float) -> float:
        """Marginal rate of substitution c_y / c_z.

        Strictly decreasing in y and increasing in z; homogeneous of
        degree zero.
        """
        cy, cz = self.partials(y, z)
        return cy / cz

    def eis(self, y: float, z: float) -> float:
        """Elasticity of intertemporal substitution c_y c_z / (c c_yz)."""
        c, cy, cz, cyz = self.value_partials(y, z)
        return cy * cz / (c * cyz)


@dataclass(frozen=True)
class HousingUtility:
    """Curvature and level of the utility flow from the fixed housing stock.

    Parameters
    ----------
    gamma : float
        Inverse elasticity of substitution between composite consumption
        and housing, positive. ``gamma < 1``, ``== 1`` and ``> 1`` select
        qualitatively different long-run branches.
    m : float
        Marginal utility of one housing unit at the fixed unit stock,
        positive.
    """

    gamma: float
    m: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise DomainError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise DomainError(f"m must be positive and finite, got {self.m!r}")
