"""Path columns and analytics against numpy formulas, the references they must match.

The derived path columns are built with float arithmetic in date order, and
the tail means with numpy's pairwise summation, so both agree with the numpy
expressions bit for bit. The present value of rents is an exactly rounded
sum, within 2 ulp of numpy's dot product.
"""
import math

import numpy as np
import pytest

from olghousing.analytics import _sum, _tail_interest, detect_bubble, tail_growth
from olghousing.cli import RunConfig, cmd_credit, cmd_scenario, cmd_solve
from test_cli_golden import BASE, CONFIGS

COMMANDS = {"scenario": cmd_scenario, "four-beliefs": cmd_scenario, "credit": cmd_credit}
FOUR_BELIEFS = dict(BASE, e1=95.0, e2=105.0, T=160, announcements=[
    {"announce_date": 0, "effective_date": 0, "e1": 95.0, "e2": 105.0},
    {"announce_date": 30, "effective_date": 40, "e1": 105.0, "e2": 95.0},
    {"announce_date": 70, "effective_date": 80, "e1": 100.0, "e2": 98.0},
    {"announce_date": 110, "effective_date": 110, "e1": 95.0, "e2": 105.0},
], terminals=["Fundamental", "Bubbly", "Bubbly", "Fundamental"])
PATH_CONFIGS = {name: doc for name, doc in CONFIGS.items() if name != "sweep"}
PATH_CONFIGS["four-beliefs"] = FOUR_BELIEFS


@pytest.fixture(scope="module", params=sorted(PATH_CONFIGS))
def path(request):
    """The path each golden config's subcommand solves, and a 4-belief scenario."""
    name = request.param
    command = COMMANDS.get(name, cmd_solve)
    solved, _ = command(RunConfig.from_dict(PATH_CONFIGS[name]))
    return solved


def test_the_four_belief_scenario_is_stitched_from_four_beliefs():
    solved, _ = cmd_scenario(RunConfig.from_dict(FOUR_BELIEFS))
    assert sorted(set(solved.belief_index)) == [0, 1, 2, 3]


def test_derived_columns_are_the_numpy_expressions_bit_for_bit(path):
    s, e_y, e_o, P = (np.asarray(getattr(path, name)) for name in ("s", "e_y", "e_o", "P"))
    S = s * e_y
    R = np.append(S[1:], path.S_after) / P
    expected = {"S": S, "c_o": e_o + S, "R": R,
                "q": np.divide.accumulate(np.append(1.0, R[:-1]))}
    for name, want in expected.items():
        got = np.asarray(getattr(path, name))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_sum_over_length_is_numpy_mean_bit_for_bit():
    # lengths past 128 take numpy's split into halves
    rng = np.random.default_rng(23)
    for n in range(1, 301):
        for x in (rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n),
                  np.diff(np.log(rng.uniform(0.5, 2.0, n + 1)))):
            assert (_sum(x.tolist()) / n).hex() == float(np.mean(x)).hex(), n


def test_fundamental_value_is_within_2_ulp_of_the_numpy_dot(path):
    window = 20
    value = detect_bubble(path, window=window).fundamental_value_0
    T = path.T
    factor = tail_growth(path.r, window) / _tail_interest(path, window)
    assert factor < 1.0
    remainder = path.q[T] * path.r[T] * factor / (1.0 - factor)
    reference = float(np.dot(path.q[1:], path.r[1:]) + remainder)
    assert abs(value - reference) <= 2.0 * math.ulp(reference)
