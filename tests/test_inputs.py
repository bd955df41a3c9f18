"""The library's numeric input contract.

Every checked argument of the model objects and of ``backward_step``,
``credit_transform`` and ``BeliefSchedule`` is a number, not a bool,
finite and within its bound, or the call raises ``DomainError`` naming
the argument; accepted values are stored as floats. The CLI reads its
config keys through the same check, and its seven economy keys take their
bounds from the model fields they feed.
"""
import dataclasses

import numpy as np
import pytest

from olghousing import (BeliefSchedule, CesAggregator, ConfigError, DomainError, EconomyParams,
                        EndowmentPath, HorizonError, HousingUtility, RunConfig, Segment,
                        backward_step, credit_transform, solve_path)
from olghousing.cli import _FIELDS

AGG = CesAggregator(0.5, 1.0)
HOUSING = HousingUtility(0.5, 0.1)
PARAMS = EconomyParams(AGG, HOUSING, 1.1, 100.0, 120.0)
SEGMENTS = (Segment(0, 95.0, 105.0, 1.1),)
BELIEF = EndowmentPath(SEGMENTS, 100)
HUGE = 10 ** 400

# each call raised TypeError, ValueError or OverflowError, or was accepted,
# before the one check; (call, the argument its message names)
CALLS = {
    "beta-string": (lambda: CesAggregator(beta="half", sigma=1.0), "beta"),
    "gamma-none": (lambda: HousingUtility(gamma=None, m=0.1), "gamma"),
    "G-string": (lambda: EconomyParams(AGG, HOUSING, "1.1", 1.0, 1.0), "G"),
    "T_max-string": (lambda: EndowmentPath(SEGMENTS, "5"), "T_max"),
    "value-string": (lambda: AGG.value("a", 1.0), "y"),
    "date-string": (lambda: BeliefSchedule(((0, BELIEF), ("x", BELIEF))),
                    "announcements[1] date"),
    "m-huge-int": (lambda: HousingUtility(0.5, HUGE), "m"),
    "e2-huge-int": (lambda: EconomyParams(AGG, HOUSING, 1.1, 1.0, HUGE), "e2"),
    "segment-e1-huge-int": (lambda: Segment(0, HUGE, 1.0, 1.1), "e1"),
    "loan-huge-int": (lambda: credit_transform(PARAMS, HUGE), "loan_ratio"),
    "S_next-huge-int": (lambda: backward_step(HOUSING, AGG, HUGE, 1.0, 1.0), "S_next"),
    "value-huge-int": (lambda: AGG.value(HUGE, 1.0), "y"),
    # beyond sys.get_int_max_str_digits(), where repr itself raises ValueError
    "m-int-without-repr": (lambda: HousingUtility(0.5, 10 ** 5000), "m"),
    "start-int-without-repr": (lambda: Segment(-10 ** 5000, 1.0, 1.0, 1.1), "start"),
    "value-int-without-repr": (lambda: AGG.value(-10 ** 5000, 1.0), "y"),
    "sigma-bool": (lambda: CesAggregator(0.5, True), "sigma"),
    "date-fraction": (lambda: BeliefSchedule(((0, BELIEF), (2.5, BELIEF))),
                      "announcements[1] date"),
}


@pytest.mark.parametrize("call,name", CALLS.values(), ids=CALLS.keys())
def test_bad_input_is_a_domain_error_naming_the_argument(call, name):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value).startswith(name)


def test_accepted_numbers_are_stored_as_floats():
    params = EconomyParams(CesAggregator(0.5, 1), HousingUtility(1, 2), 2, 1, 3)
    segment = Segment(0, 1, 2, 3)
    stored = (params.agg.beta, params.agg.sigma, params.housing.gamma, params.housing.m,
              params.G, params.e1, params.e2, segment.e1, segment.e2, segment.G)
    assert stored == (0.5, 1.0, 1.0, 2.0, 2.0, 1.0, 3.0, 1.0, 2.0, 3.0)
    assert all(type(value) is float for value in stored)
    assert type(segment.start) is int


def test_numpy_integers_and_doubles_are_numbers():
    params = EconomyParams(AGG, HousingUtility(np.float64(0.5), np.int64(2)), np.int64(2),
                           np.float64(1.0), 3)
    stored = (params.housing.gamma, params.housing.m, params.G, params.e1)
    assert stored == (0.5, 2.0, 2.0, 1.0)
    assert all(type(value) is float for value in stored)
    assert type(Segment(np.int64(3), 1.0, 1.0, 1.1).start) is int
    with pytest.raises(DomainError, match="^sigma: expected a finite number, got "):
        CesAggregator(0.5, np.bool_(True))


def test_an_integer_growth_factor_fails_as_a_horizon_error():
    # an int G once built 2**t exactly in EndowmentPath.levels and overflowed
    # only on the conversion; stored as a float, G**t reaches inf and the
    # horizon error names the date
    params = EconomyParams(AGG, HOUSING, 2, 1, 2)
    with pytest.raises(HorizonError, match="not finite at date 1023 "):
        solve_path(params, None, "Fundamental", 1100)


@pytest.mark.parametrize("key,model", [
    ("beta", CesAggregator), ("sigma", CesAggregator), ("gamma", HousingUtility),
    ("m", HousingUtility), ("G", EconomyParams), ("e1", EconomyParams), ("e2", EconomyParams),
])
def test_economy_keys_take_their_bounds_from_the_model_fields(key, model):
    model_field = {spec.name: spec for spec in dataclasses.fields(model)}[key]
    # the one declaration, not a copy of it
    assert _FIELDS[key].metadata["check"] is model_field.metadata["check"]
    assert _FIELDS[key].default is None


def test_config_and_library_give_the_same_words():
    with pytest.raises(DomainError) as library:
        HousingUtility(0.5, -1.0)
    with pytest.raises(ConfigError) as config:
        RunConfig.from_dict({"m": -1.0})
    assert str(library.value) == str(config.value) == "m: must be above 0.0, got -1.0"
