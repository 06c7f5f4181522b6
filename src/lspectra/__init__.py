"""Exact verification engine for the homotopy-level structure of the
integral L-theory spectra: Smith normal form and Hom/Ext of finitely
generated abelian groups, graded tables with Anderson duals, bounded
integral chain complexes with quadratic/symmetric structures, linking
forms and their Gauss-sum invariant."""

from .abelian import (
    FgAbGroup,
    IntMatrix,
    SnfResult,
    cokernel,
    ext_group,
    extension_candidates,
    hom_group,
    smith_normal_form,
)
from .chain import IntComplex, dual, tensor
from .forms import (
    CycEight,
    F2QuadForm,
    LinkingForm,
    SymForm,
    arf,
    brown_kervaire,
    nondegenerate,
    signature,
)
from .graded import (
    GradedGroup,
    GradedMap,
    SesDatum,
    anderson_dual,
    check_exact,
    cofibre_of_mult,
    compare_graded,
    double_dual_check,
    torsor_count,
)
from .ltables import boundary_map, mult_by, table, verify_presentation, verify_classical, verify_genuine
from .poincare import (
    StructuredComplex,
    certify_ef,
    linking_form,
    poincare_check,
    representative,
    tensor_structured,
)

__version__ = "0.1.0"
