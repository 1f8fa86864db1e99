"""Exact maxitive measures on finite topological spaces and the
countable discrete space: classification, outer regularization, upper
densities, regular/singular decomposition, and an exhaustive
verification harness over enumerated instances."""

from .countable import COUNTABLE, CountableDiscrete, FinCofinSet, TailDensity
from .decomposition import (Decomposition, decompose, minimality_brute_force,
                            regular_part, residual, singular_part)
from .errors import (BudgetError, CrossCheckError, InputError, MaxitiveError,
                     MissingInfimumError, MissingSupremumError,
                     PreconditionError, ValidationError)
from .harness import (Bounds, CaseResult, CASES, run_all, run_theorem,
                      search_counterexample, VerificationReport)
from .instances import load_instance, parse_instance, serialize_instance
from .measure import ClassificationRecord, DensityInfo, MaxitiveMeasure
from .order import (check_domain, EXT_REALS, Ext, ExtendedRationals,
                    FinitePoset, INFINITY, join_continuity, RationalFilter,
                    separating_map, separating_map_preserves, way_above,
                    ZERO)
from .topology import (analysis, borel_structure, enumerate_topologies,
                       FiniteSpace, hofmann_mislove_check, t0_reflection)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "Bounds", "CASES", "CaseResult", "ClassificationRecord",
    "COUNTABLE", "CountableDiscrete", "CrossCheckError", "Decomposition",
    "DensityInfo", "EXT_REALS", "Ext", "ExtendedRationals", "FinCofinSet",
    "FinitePoset", "FiniteSpace", "INFINITY", "InputError",
    "MaxitiveError", "MaxitiveMeasure", "MissingInfimumError",
    "MissingSupremumError", "PreconditionError", "RationalFilter",
    "TailDensity", "ValidationError", "VerificationReport", "ZERO",
    "analysis", "borel_structure", "check_domain", "decompose",
    "enumerate_topologies", "hofmann_mislove_check",
    "join_continuity", "load_instance", "minimality_brute_force",
    "parse_instance", "regular_part", "residual", "run_all", "run_theorem",
    "search_counterexample", "separating_map", "separating_map_preserves",
    "serialize_instance", "singular_part", "t0_reflection", "way_above",
]
