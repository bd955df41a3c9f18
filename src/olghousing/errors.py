"""Exception types shared across the library, and its one numeric input check."""
import sys
from dataclasses import MISSING, field
from numbers import Integral

__all__ = ["ModelError", "DomainError", "BranchError", "RegimeError", "LoanError",
           "SolverError", "HorizonError", "ApplicabilityError", "ConfigError"]


class ModelError(Exception):
    """Base class for every domain or numerical error raised by this package."""


class DomainError(ModelError, ValueError):
    """Inputs outside the mathematical domain of an operation."""


class BranchError(ModelError, ValueError):
    """Operation undefined on this curvature branch of the housing utility."""


class RegimeError(ModelError, ValueError):
    """Requested equilibrium object does not exist in the economy's regime."""


class LoanError(ModelError, ValueError):
    """Infeasible loan-to-income ratio."""


class SolverError(ModelError, RuntimeError):
    """Root bracketing or convergence failure in the equilibrium solver."""


class HorizonError(ModelError, ValueError):
    """Horizon or terminal condition cannot produce a valid equilibrium path."""


class ApplicabilityError(ModelError, ValueError):
    """Diagnostic is not applicable to the given path or window."""


class ConfigError(ModelError, ValueError):
    """Invalid run configuration, carrying the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def check(value, kind: type = float, *, name: str | None = None, above: float | None = None,
          at_least: float | None = None, below: float | None = None):
    """``value`` as a ``kind`` (an int, or a float), if it is one within its bounds.

    An int is any ``numbers.Integral`` (a numpy integer too), and a float
    is a float or an int; a bool is neither. A float must be finite, so an
    int beyond the float range is not one. Otherwise raises ``DomainError``,
    its message prefixed by ``name: `` when a name is given.
    """
    number = kind is not int
    if (not isinstance(value, (float, Integral) if number else Integral) or isinstance(value, bool)
            or number and not abs(value) <= sys.float_info.max):
        reason = f"expected {'a finite number' if number else 'an integer'}"
    else:
        value = kind(value)
        if above is not None and value <= above:
            reason = f"must be above {above}"
        elif at_least is not None and value < at_least:
            reason = f"must be at least {at_least}"
        elif below is not None and value >= below:
            reason = f"must be below {below}"
        else:
            return value
    try:
        shown = repr(value)
    # an int of more than sys.get_int_max_str_digits() digits has no repr
    except ValueError:
        shown = f"an integer of {value.bit_length()} bits"
    raise DomainError(f"{'' if name is None else name + ': '}{reason}, got {shown}")


def bounded(kind: type = float, **bounds: float):
    """A dataclass field that ``check_fields`` checks: its kind and bounds, declared once."""
    return field(metadata={"check": {"kind": kind, **bounds}})


def bounded_as(cls: type, name: str, default=MISSING):
    """A dataclass field bounded as field ``name`` of the dataclass ``cls``."""
    return field(default=default, metadata=cls.__dataclass_fields__[name].metadata)


def check_fields(obj) -> None:
    """Run ``check`` on each ``bounded`` field of the frozen dataclass ``obj``,
    storing what it returns."""
    for spec in obj.__dataclass_fields__.values():
        if "check" in spec.metadata:
            object.__setattr__(obj, spec.name, check(getattr(obj, spec.name), name=spec.name,
                                                     **spec.metadata["check"]))
