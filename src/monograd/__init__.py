"""Exact calculus of monomial ideals under the gradient operator.

The gradient of a monomial ideal is generated by all u/x_i for minimal
generators u and variables x_i dividing u.  This package computes it
exactly, together with graded Betti numbers, Castelnuovo-Mumford
regularity, structural classifications, and Kruskal-Katona style shadow
bounds, all over the integers with no floating point anywhere.

Importing the package loads only the monomial core: `caps`, `errors`,
`monomials` and `gradient`.  Every other public name, and every other
submodule, is loaded on first access (PEP 562) and then kept as a package
attribute.  `gradient` stays eager because the exported function shares
its name with its submodule: the first import of `monograd.gradient` binds
the package attribute `gradient` to the module, so the submodule must load
before the function is bound over it, here.
"""

from importlib import import_module as _import_module

from .caps import Caps, default_caps
from .errors import (CapsFormatError, DimensionMismatchError, DomainError,
                     ExponentOverflowError, MonogradError, ResourceCapError)
from .gradient import (gradient, gradient_chain, gradient_via_colon,
                       iterated_gradient)
from .monomials import (GeneratorStats, MonomialIdeal,
                        is_complete_intersection, monomial_str, supp,
                        veronese_type)

# the public names each other submodule defines, loaded on first access
_ENGINES = {
    "complexes": ("SimplicialComplex", "stanley_reisner_complex"),
    "exact_rank": (),
    "graphs": ("QuadraticDecomposition", "RegGapFamily", "SimpleGraph",
               "complementary_edge_ideal", "edge_ideal", "family_overlap_run",
               "family_reg_gap", "gradient_power_closed_forms",
               "is_connected", "quadratic_decompositions", "underlying_graph"),
    "ioformats": ("ideal_to_json", "parse_generators", "parse_graph",
                  "parse_ideal", "parse_monomial_string", "serialize_ideal"),
    "kruskal": ("MacaulayRep", "closed_form_count", "closed_form_shadow",
                "colex_shadow_oracle", "macaulay_rep",
                "many_generators_threshold", "shadow_bound"),
    "resolution": ("BettiTable", "DifferentialLinearReport", "Polarization",
                   "betti_table", "has_differential_linear_resolution",
                   "has_linear_resolution", "hochster_betti", "koszul_betti",
                   "koszul_betti_table", "polarize", "regularity"),
    "structure": ("UNDECIDED", "QuotientOrder", "has_linear_quotients",
                  "is_componentwise_polymatroidal", "is_polymatroidal",
                  "is_stable", "is_strongly_stable", "is_vertex_splittable",
                  "linear_quotients_order", "stable_closure",
                  "strongly_stable_closure", "vertex_split_tree"),
    "verify": ("CycleCertificate", "Report", "VERIFY_IDS", "cycle_certificate",
               "random_ideal", "verify_theorem"),
}
# name -> the submodule that holds it; a submodule's own name maps to itself
_LAZY = {name: module for module, names in _ENGINES.items()
         for name in (module, *names)}

__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + list(_LAZY))
__version__ = "1.0.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
