"""Safeguarded scalar root finding, the package's one root finder.

``newton`` takes Newton steps from a good start and keeps them inside the
sign bracket found so far. It solves each date's share equation in the
solver and the gamma = 1 steady-state condition in ``regimes``, both in
logarithmic coordinates. Failures raise ``SolverError``.
"""
from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

__all__ = ["newton"]

# a Newton step this long or longer is replaced: exp of the new point may
# overflow in the callers' logarithmic coordinates
_MAX_STEP = 700.0
# length of the expansion step toward a bracket end not yet found
_LOG_8 = math.log(8.0)
# |f| at or below this multiple of the largest term is as small as rounding allows
_RESIDUAL_RTOL = 4e-15
# a step in x at or below this ends the iteration: about 4 ulp relative in log coordinates
_XTOL = 9e-16


def newton(f: Callable[[float], tuple[float, float, float]], x: float,
           lo: float, hi: float, maxiter: int) -> tuple[float, float, int, int]:
    """Root of a strictly decreasing ``f`` in ``[lo, hi)``, by Newton steps from ``x``.

    ``f(x)`` returns ``(value, slope, scale)``: f, its derivative, and the
    size of the largest term f sums, against which the value is judged. The
    root is known to lie below ``hi``, which is never evaluated; ``lo`` is a
    floor, returned when the root lies at or below it.

    A Newton step is taken when it stays strictly inside the sign bracket
    found so far, is shorter than ``_MAX_STEP`` and, once both bracket ends
    are known, at most half the previous step. Otherwise the step bisects
    the bracket or, while no point below the root is known, moves down by
    ``ln 8`` (not past ``lo``). The iteration stops when ``|value| <=
    4e-15*scale`` (for a finite scale), or the Newton step is at most 9e-16
    or too short to move x, and then keeps that step as a final correction
    (when it stays inside the bracket), which costs no evaluation; or when
    the step actually taken is at most 9e-16 (zero once the iterate no
    longer moves).

    Returns ``(x, dx, evaluations, safeguard steps)``: the root is
    ``x + dx``, where x is the last point evaluated (or ``lo``). A caller
    that maps x to its own variable can apply dx there, without rounding
    the sum first.
    """
    below, above = -math.inf, hi  # the root lies strictly between these
    last = math.inf  # length of the previous step
    safeguards = 0
    for evaluations in range(1, maxiter + 1):
        value, slope, scale = f(x)
        if math.isnan(value):
            raise SolverError(f"root finder: function value is NaN at x={x!r}")
        if value == 0.0:
            return x, 0.0, evaluations, safeguards
        if value > 0.0:
            below = x
        else:
            if x <= lo:
                return lo, 0.0, evaluations, safeguards
            above = x
        # a decreasing f gives a step toward the root; a slope that is not
        # negative and finite (underflow, overflow, NaN) gives an infinite
        # one, which the guard replaces: a zero step would read as converged
        dx = value / -slope if -math.inf < slope < 0.0 else math.copysign(math.inf, value)
        step = x + dx
        # an overflowing term gives an infinite scale, against which no value is
        # small; a step below half an ulp of x is kept as the correction, unrounded
        if abs(value) <= _RESIDUAL_RTOL * scale < math.inf or abs(dx) <= _XTOL or step == x:
            return x, (dx if below - x < dx < above - x else 0.0), evaluations, safeguards
        if not (below < step < above and abs(dx) < _MAX_STEP
                and (below == -math.inf or abs(dx) <= 0.5 * last)):
            safeguards += 1
            step = 0.5 * (below + above) if below > -math.inf else x - _LOG_8
        step = max(step, lo)
        last = abs(step - x)
        if last <= _XTOL:
            return x, step - x, evaluations, safeguards
        x = step
    raise SolverError(f"root finder: no convergence after {maxiter} iterations, last x={x!r}")
