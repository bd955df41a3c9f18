"""Numerical laboratory for housing-price equilibria in a two-period OLG economy.

Computes regime thresholds, steady states and their local stability,
backward-induction equilibrium paths under fundamental and bubbly terminal
conditions, belief-revision scenarios, bubble detection, and Pareto
efficiency diagnostics, with a configuration-driven command line on top.

The namespace is the join of the modules' ``__all__``: each public name is
listed once, by the module that defines it.
"""
from .errors import *
from .preferences import *
from .regimes import *
from .solver import *
from .analytics import *
from .cli import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + preferences.__all__ + regimes.__all__ + solver.__all__
           + analytics.__all__ + cli.__all__ + ["__version__"])
