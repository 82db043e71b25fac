"""Families of unitary representations of finitely presented groups,
their characteristic classes, and flat-detectability certificates.

Importing the package runs none of its submodules.  Each is registered with
``importlib.util.LazyLoader``, so its body runs on the first read of one of
its attributes, and once run it is a plain module.  The public names are
resolved on first use by ``__getattr__``, which reads each from its
submodule on every access, so a patch of the submodule is seen here too.
Before Python 3.12.3 the lazy loader takes no lock, so a program that first
reads a submodule from several threads at once imports it before starting
them.
"""

import importlib.util
import sys

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

for _module in _PUBLIC:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _lazy = sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_lazy)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = sorted([*_PUBLIC, *_EXPORTS])
__version__ = "0.1.0"
