"""Exact tropical curve counts in R^3 and the generating functions they feed."""

from .exactnum import (LaurentSeries, QHalfLaurent, q_to_lambda,
                       quantum_integer_q, two_sin_half)
from .lattice import (INFINITE, integral_kernel, lattice_index, primitive_part,
                      quotient_projection, wedge_index)
from .tropcurve import (CurveType, automorphism_count, genus, is_general,
                        is_transverse, loop_multiplicity, vertex_star)
from .enumeration import (ConstraintCycle, Placement, SearchBounds, Stratum,
                          cycle_from_constraints, enumerate_curve_types,
                          place_curves)
from .weights import (curve_weight, resolve_with_shifts,
                      substitution_consistent, vertex_qpoly, vertex_series)
from .invariants import (CountRequest, ToricFan, absolute_invariant,
                         certified_count, cp3_fan, derive_line_factor,
                         is_convex, is_convex_relative, p1_cubed_fan,
                         reduced_dt, relative_invariant, weighted_count)

__all__ = [n for n in dir() if not n.startswith("_")]
