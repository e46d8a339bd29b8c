"""Exact differential-polynomial workbench.

Differential polynomials over a computable base field, rankings and Ritt
reduction with verifiable certificates, coherence and characteristic-set
certification, a Groebner-basis backend for the frozen derivative variables,
the prolongation operator, and checkers plus a witness search for geometric
axiom instances.
"""

from .algebra import (
    AlgIdeal,
    MacaulayResult,
    MembershipCertificate,
    PrimalityConfig,
    PrimalityVerdict,
    buchberger,
    eliminate,
    ideal_member,
    macaulay_member,
    primality_oracle,
    saturate,
)
from .axioms import (
    AxiomInstance,
    CharSetCertificate,
    DiscrepancyReport,
    InstanceValidation,
    OpenSetReport,
    ProjectionVerdict,
    WitnessReport,
    charset_certify,
    doubled_samples,
    instance_validate,
    naive_prolongation_gens,
    naive_vs_tau_demo,
    open_set_equality_check,
    projection_closure_check,
    sat_ideal_member,
    saturation_members,
    witness_search,
)
from .model import ModelPoint, eval_at_model_point, eval_poly, model_points, model_polys
from .parser import ParseError, parse_poly, parse_tpoly, poly_text, scalar_text
from .poly import DiffPoly
from .prolong import DCompatReport, TauPoly, d_compatibility_check, tau, tau_set
from .ranking import Ranking, compare_vars, leader, leader_initial_separant
from .reduction import (
    CoherenceReport,
    NotAutoreduced,
    RankedSystem,
    ReductionCertificate,
    autoreduced_check,
    coherence_check,
    full_reduce,
    is_reduced,
    partial_reduce,
)
from .ring import CONSTANTS, RATIONAL_T, DerivVar, RingContext, xvar
from .scalars import Scalar, TPoly, tpoly_gcd

__version__ = "0.1.0"

__all__ = [
    "AlgIdeal",
    "AxiomInstance",
    "CONSTANTS",
    "CharSetCertificate",
    "CoherenceReport",
    "DCompatReport",
    "DerivVar",
    "DiffPoly",
    "DiscrepancyReport",
    "InstanceValidation",
    "MacaulayResult",
    "MembershipCertificate",
    "ModelPoint",
    "NotAutoreduced",
    "OpenSetReport",
    "ParseError",
    "PrimalityConfig",
    "PrimalityVerdict",
    "ProjectionVerdict",
    "RATIONAL_T",
    "RankedSystem",
    "Ranking",
    "ReductionCertificate",
    "RingContext",
    "Scalar",
    "TPoly",
    "TauPoly",
    "WitnessReport",
    "autoreduced_check",
    "buchberger",
    "charset_certify",
    "coherence_check",
    "compare_vars",
    "d_compatibility_check",
    "doubled_samples",
    "eliminate",
    "eval_at_model_point",
    "eval_poly",
    "full_reduce",
    "ideal_member",
    "instance_validate",
    "is_reduced",
    "leader",
    "leader_initial_separant",
    "macaulay_member",
    "model_points",
    "model_polys",
    "naive_prolongation_gens",
    "naive_vs_tau_demo",
    "open_set_equality_check",
    "parse_poly",
    "parse_tpoly",
    "partial_reduce",
    "poly_text",
    "primality_oracle",
    "projection_closure_check",
    "sat_ideal_member",
    "saturate",
    "saturation_members",
    "scalar_text",
    "tau",
    "tau_set",
    "tpoly_gcd",
    "witness_search",
    "xvar",
]
