"""Conjugate-linear perturbations of twisted spin-c Dirac operators.

Exact fiber calculus (exterior algebra, conjugate-linear Hodge star,
Clifford action), the symbol-level cancellation check for conjugate-linear
perturbations, and a flat-torus spectral simulator demonstrating eigenmode
concentration near the singular set of the perturbation.
"""

from .fiber import (
    ChiralityError,
    ContextMismatchError,
    Covector,
    DegreeError,
    FiberContext,
    Form,
    basis_forms,
    contract,
    inner,
    monomial,
    random_covector,
    random_form,
    random_unit_scalar,
    scalar_form,
    wedge,
    zero_form,
)
from .hodge import (
    bar_star,
    epsilon,
    epsilon_shift_identity,
    tau,
    tau_adjoint_defect,
    tau_graded,
    volume_form,
)
from .clifford import (
    EVEN,
    MIXED,
    ODD,
    Spinor,
    SymbolOperator,
    clifford,
    random_spinor,
    spinor_basis,
    symbol,
)
from .perturbation import (
    ANTISYMMETRIC,
    GENERAL,
    SYMMETRIC,
    PhiMap,
    SingularVerdict,
    apply_A,
    apply_A_adjoint,
    concentrating_defect,
    defect_vanishes,
    matched_class,
    opposite_class,
    random_phi,
    singular_verdict,
)
from .scalars import ExactComplex

__version__ = "0.1.0"

# layout version of every JSON report (verify, condition, simulate)
SCHEMA_VERSION = 5

__all__ = [
    "ANTISYMMETRIC",
    "ChiralityError",
    "ContextMismatchError",
    "Covector",
    "DegreeError",
    "EVEN",
    "ExactComplex",
    "FiberContext",
    "Form",
    "GENERAL",
    "MIXED",
    "ODD",
    "PhiMap",
    "SingularVerdict",
    "Spinor",
    "SymbolOperator",
    "SYMMETRIC",
    "apply_A",
    "apply_A_adjoint",
    "bar_star",
    "basis_forms",
    "clifford",
    "concentrating_defect",
    "contract",
    "defect_vanishes",
    "epsilon",
    "epsilon_shift_identity",
    "inner",
    "matched_class",
    "monomial",
    "opposite_class",
    "random_covector",
    "random_form",
    "random_phi",
    "random_spinor",
    "random_unit_scalar",
    "scalar_form",
    "singular_verdict",
    "spinor_basis",
    "symbol",
    "tau",
    "tau_adjoint_defect",
    "tau_graded",
    "volume_form",
    "wedge",
    "zero_form",
    "__version__",
]
