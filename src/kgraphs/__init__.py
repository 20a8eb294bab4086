"""Higher-rank graphs and their equilibrium-state theory.

Combinatorics of degree-graded path categories presented by colored
skeletons, exact Perron eigendata for the commuting adjacency family,
periodicity detection, the distinguished measure on the infinite-path
space, and the equilibrium states of the associated algebra.
"""

from .errors import (KGraphError, InputFormatError, GraphValidationError,
                     CompositionError, SegmentRangeError,
                     NotStronglyConnectedError, NotIrreducibleError,
                     ConvergenceError, NonConstantRatioError,
                     NotPeriodicError, PeriodicityUndecidedError,
                     EnumerationCapError, WitnessSearchError)
from .degrees import parse_degree
from .scalars import QQi, format_fraction
from .graphs import Edge, Square, Path, KGraph, ValidationReport, ENUM_CAP
from .builders import (one_graph, make_single_vertex, make_pullback,
                       make_product, FIXTURES, b2, c2, fib, pullback_b2,
                       product_b2_c2)
from .perron import (MatrixFamily, PerronData, perron_data, power_iteration,
                     find_positive_F, verify_subinvariance,
                     spectral_radius_power_check)
from .periodicity import (check_pair, theta, ThetaMap, PeriodicityGroup,
                          periodicity_group, hnf_basis, decide_periodic)
from .measure import (CylinderMeasure, consistency_check, ConsistencyReport,
                      periodicity_mass_profile, agreement_mass,
                      AgreementReport, DecayWitness, find_decay_witness,
                      decay_check, DecayReport)
from .kms import (SpanTerm, AlgebraElement, StateSpec, parse_state,
                  PhaseQuery, KMSStates, KMSCheckReport,
                  UnitaryIdentitiesReport, ToeplitzReport, PhaseReport)

__version__ = "0.1.0"

__all__ = [
    "KGraphError", "InputFormatError", "GraphValidationError",
    "CompositionError", "SegmentRangeError", "NotStronglyConnectedError",
    "NotIrreducibleError", "ConvergenceError", "NonConstantRatioError",
    "NotPeriodicError", "PeriodicityUndecidedError", "EnumerationCapError",
    "WitnessSearchError",
    "parse_degree", "QQi", "format_fraction",
    "Edge", "Square", "Path", "KGraph", "ValidationReport", "ENUM_CAP",
    "one_graph", "make_single_vertex", "make_pullback", "make_product",
    "FIXTURES", "b2", "c2", "fib", "pullback_b2", "product_b2_c2",
    "MatrixFamily", "PerronData", "perron_data", "power_iteration",
    "find_positive_F", "verify_subinvariance", "spectral_radius_power_check",
    "check_pair", "theta", "ThetaMap", "PeriodicityGroup",
    "periodicity_group", "hnf_basis", "decide_periodic",
    "CylinderMeasure", "consistency_check", "ConsistencyReport",
    "periodicity_mass_profile", "agreement_mass",
    "AgreementReport", "DecayWitness", "find_decay_witness", "decay_check",
    "DecayReport",
    "SpanTerm", "AlgebraElement", "StateSpec", "parse_state", "PhaseQuery",
    "KMSStates", "KMSCheckReport", "UnitaryIdentitiesReport",
    "ToeplitzReport", "PhaseReport",
]
