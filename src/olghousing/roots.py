"""Bracketed scalar root finding: Brent's method.

A line-for-line port of the classic C implementation used by
``scipy.optimize.brentq`` (``scipy/optimize/Zeros/brentq.c``): the same
operations in the same order, so it returns the same float after the same
number of function evaluations. Failures raise ``SolverError``.
"""
from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

__all__ = ["brentq"]


def _checked(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise SolverError(f"root finder: function value is NaN at x={x!r}")
    return fx


def brentq(f: Callable[[float], float], xa: float, xb: float,
           xtol: float, rtol: float, maxiter: int) -> float:
    """Root of ``f`` in ``[xa, xb]``, where ``f(xa)`` and ``f(xb)`` differ in sign.

    Converges once the bracket half-width falls below
    ``(xtol + rtol*|x|)/2``.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(f, xpre)
    fcur = _checked(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SolverError(
            f"root finder: f({xa!r}) = {fpre!r} and f({xb!r}) = {fcur!r} do not bracket a root"
        )
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C division gives inf or nan here, which fails the step test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(f, xcur)
    raise SolverError(f"root finder: no convergence after {maxiter} iterations, last x={xcur!r}")
