"""weylkit: exact symbolic computation for Weyl algebras over prime fields.

PBW arithmetic with confluence checking, the reduced norm over the center,
Serre twists and the principal symbol, local-ring taxonomy, and exact Ext /
grade computations on finite-dimensional algebras.

The finite-dimensional names (from findim, homology, linalg_fp and
localring) are resolved on first use (PEP 562), so that importing weylkit
and the Weyl-algebra and norm path do not import numpy.
"""

import importlib

from .commpoly import CommPoly, exact_div
from .elements import format_element, parse_element
from .errors import (
    FiltrationError,
    IncompleteSearchError,
    InternalInconsistencyError,
    InvalidFormError,
    MalformedPresentationError,
    TooLargeError,
    UnsupportedError,
    WeylkitError,
)
from .norm import (
    GradedSymbol,
    check_norm_symbol_diagram,
    det_poly,
    global_twist_sections,
    left_mult_matrix,
    ord_at_H_dagger,
    principal_symbol,
    reduced_norm,
    twist_membership,
)
from .presentations import (
    ConfluenceReport,
    NCPoly,
    Presentation,
    WeightFiltration,
    associated_graded,
    check_confluence,
    commutator,
    hilbert_function,
    multiply,
    normal_form,
)
from .weylalg import (
    ChartAlgebra,
    ChartCheckReport,
    WeylAlgebra,
    boundary_chart_presentation,
    center_coordinates,
    center_membership,
    chart_embedding_check,
    darboux_basis,
    localized_weyl,
    standard_h,
    validate_symplectic,
    weyl_presentation,
)

__version__ = "0.1.0"

_LAZY = {
    "findim": (
        "FinDimAlgebra",
        "cyclic_group_algebra",
        "full_matrix_algebra",
        "product_algebra",
        "truncated_polynomial_algebra",
        "upper_triangular_algebra",
    ),
    "homology": (
        "AuslanderReport",
        "ExtResult",
        "FDModule",
        "GradeBound",
        "Resolution",
        "auslander_probe",
        "ext_groups",
        "grade",
        "hom_module_dimension",
        "minimal_projective_resolution",
    ),
    "linalg_fp": ("Subspace",),
    "localring": (
        "adic_comparison",
        "classify_local",
        "fiber_decomposability",
        "idempotent_ideal_check",
        "ideals_over",
        "jacobson_radical",
        "maximal_two_sided_ideals",
        "radical_cross_check",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
