"""Thermodynamic-geometry toolkit for two-parameter potentials.

Builds the Hessian metrics of a potential M(S, X) and of its free energy
F(T, X) = M - T S, computes their curvature scalars in either chart, derives
the second-order response functions, and locates/characterizes the lines
where heat capacities diverge.
"""

from .catalog import CatalogEntry, entry_names, get_entry
from .davies import (ConjugacyScan, DaviesLocus, Divergence, conjugacy_scan,
                     divergence_orders, find_davies_points)
from .geometry import (CurvatureResult, LegendrePoint, LegendreSingularError,
                       MetricTensor2, StatePoint, curvature_from_f_jet,
                       curvature_from_m_jet, legendre_at, metric_f_sx,
                       metric_m)
from .jets import ConditioningWarning, DomainError, Jet3, jet_const, jet_var
from .potentials import (ParseError, PotentialSpec, eval_jet, eval_scalar,
                         format_expression, load_potential_file,
                         parse_potential, potential_from_json,
                         potential_to_json)
from .responses import (ResponseSet, cap_difference_residual,
                        kappa_difference_residual, metric_from_responses,
                        ratio_identity_residual, responses_at)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "ConditioningWarning", "ConjugacyScan", "CurvatureResult",
    "DaviesLocus", "Divergence", "DomainError", "Jet3", "LegendrePoint",
    "LegendreSingularError", "MetricTensor2", "ParseError", "PotentialSpec",
    "ResponseSet", "StatePoint", "cap_difference_residual", "conjugacy_scan",
    "curvature_from_f_jet", "curvature_from_m_jet", "divergence_orders", "entry_names",
    "eval_jet", "eval_scalar", "find_davies_points", "format_expression", "get_entry",
    "jet_const", "jet_var",
    "kappa_difference_residual", "legendre_at", "load_potential_file",
    "metric_f_sx", "metric_from_responses", "metric_m", "parse_potential",
    "potential_from_json", "potential_to_json", "ratio_identity_residual",
    "responses_at", "__version__",
]
