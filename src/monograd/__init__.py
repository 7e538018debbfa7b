"""Exact calculus of monomial ideals under the gradient operator.

The gradient of a monomial ideal is generated by all u/x_i for minimal
generators u and variables x_i dividing u.  This package computes it
exactly, together with graded Betti numbers, Castelnuovo-Mumford
regularity, structural classifications, and Kruskal-Katona style shadow
bounds, all over the integers with no floating point anywhere.
"""

from .caps import Caps, default_caps
from .errors import (CapsFormatError, DimensionMismatchError, DomainError,
                     ExponentOverflowError, MonogradError, ResourceCapError)
from .gradient import (gradient, gradient_chain, gradient_via_colon,
                       iterated_gradient)
from .graphs import (QuadraticDecomposition, RegGapFamily, SimpleGraph,
                     complementary_edge_ideal, edge_ideal, family_overlap_run,
                     family_reg_gap, gradient_power_closed_form,
                     gradient_power_closed_forms, is_connected, peel_order,
                     quadratic_decomposition, underlying_graph)
from .ioformats import (ideal_to_json, parse_generators, parse_graph,
                        parse_ideal, parse_monomial_string, serialize_graph,
                        serialize_ideal)
from .kruskal import (MacaulayRep, closed_form_count, closed_form_shadow,
                      colex_shadow_oracle, macaulay_rep,
                      many_generators_threshold, shadow_bound)
from .monomials import (GeneratorStats, MonomialIdeal, deg,
                        is_complete_intersection, minimalize, monomial_str,
                        supp, veronese_type)
from .complexes import (SimplicialComplex, stanley_reisner_complex,
                        stanley_reisner_ideal)
from .resolution import (BettiTable, DifferentialLinearReport, Polarization,
                         betti_table, has_differential_linear_resolution,
                         has_linear_resolution, hochster_betti, koszul_betti,
                         koszul_betti_table, polarize, regularity)
from .structure import (UNDECIDED, QuotientOrder, has_linear_quotients,
                        is_componentwise_polymatroidal, is_polymatroidal,
                        is_stable, is_strongly_stable, is_vertex_splittable,
                        linear_quotients_order, stable_closure,
                        strongly_stable_closure, vertex_split_tree)
from .verify import (CycleCertificate, Report, VERIFY_IDS, cycle_certificate,
                     random_ideal, verify_theorem)

__version__ = "1.0.0"
