"""Families of unitary representations of finitely presented groups,
their characteristic classes, and flat-detectability certificates.

Importing the package runs none of its submodules.  ``__getattr__`` imports
a submodule on the first read of its name, through the import system, whose
lock makes a concurrent first read wait for the import to finish; once
imported, the submodule is a plain attribute of the package.  The public
names are resolved by ``__getattr__`` too, which reads each from its
submodule on every access, so a patch of the submodule is seen here too.
"""

import importlib

_PUBLIC = {  # submodule -> the names re-exported from it
    "charforms": "GridConnection IntegralityError MultiForm SIGN_CONVENTIONS "
                 "UnderSampledLoopError chern_number numerical_curvature "
                 "poincare_connection wedge winding_number xgen zgen",
    "detect": "BasisClass DetectionError DetectionReport DirectProduct FiniteIndexSuper Free "
              "FreeAbelian FreeProduct GroupClass PresentationComplex SurfaceClosed "
              "betti_inequality_check bm_obstruction detection_matrix "
              "numeric_detection_report rational_homology slant_contract "
              "transfer_scaling_check",
    "families": "DisjointUnionSpace Family FinitePointSet KleinBottleCover ParameterSpace "
                "ProductSpace SublatticeCover TorusGrid character_family_Zn circle_cover "
                "direct_sum disjoint_union extend_free_product holonomy_loop induce_family "
                "numeric_c1_windings pullback_family tensor_families trivial_family "
                "verify_family",
    "presentation": "GroupPresentation PresentationError Word direct_product evaluate_word "
                    "format_presentation free_abelian free_group free_reduce klein_bottle "
                    "parse_presentation parse_word surface_group",
    "repvar": "RepPoint SolveConfig SolveResult relator_defect solve_representation",
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names.split()}


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = sorted([*_PUBLIC, *_EXPORTS])
__version__ = "0.1.0"
