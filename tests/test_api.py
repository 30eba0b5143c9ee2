"""The stated public API of cldirac: each operation has one name.

Symbols are checked maps that compose by calling; a quotient of scalars is
``x * y.inverse()``; a form is scaled by ``Form.scale``; eps_k is
``hodge.epsilon_exponent``.  ``random_spinor`` and the structural
``conjugate`` of a form are test constructions in ``tests/_reference.py``.
"""

import pytest

import cldirac
from cldirac import (
    ChiralityError,
    Covector,
    ExactComplex,
    FiberContext,
    Form,
    Spinor,
    clifford,
    hodge,
    perturbation,
    scalar_form,
    symbol,
)

STATED_API = (
    "ANTISYMMETRIC", "ChiralityError", "ContextMismatchError", "Covector",
    "DegreeError", "EVEN", "ExactComplex", "FiberContext", "Form", "GENERAL",
    "MIXED", "ODD", "PhiMap", "SYMMETRIC", "SingularVerdict", "Spinor",
    "__version__", "apply_A", "apply_A_adjoint", "bar_star", "basis_forms",
    "clifford", "concentrating_defect", "contract", "defect_vanishes",
    "epsilon_shift_identity", "inner", "matched_class", "monomial",
    "opposite_class", "random_covector", "random_form", "random_phi",
    "random_unit_scalar", "scalar_form", "singular_verdict", "spinor_basis",
    "symbol", "tau", "tau_adjoint_defect", "tau_graded", "volume_form",
    "wedge", "zero_form",
)


def test_all_is_the_stated_api():
    assert sorted(cldirac.__all__) == sorted(STATED_API)
    assert len(set(cldirac.__all__)) == len(cldirac.__all__)
    assert all(hasattr(cldirac, name) for name in cldirac.__all__)


def test_second_spellings_are_gone():
    for name in ("SymbolOperator", "epsilon", "random_spinor"):
        assert not hasattr(cldirac, name)
    assert not hasattr(clifford, "SymbolOperator")
    assert not hasattr(clifford, "random_spinor")
    assert not hasattr(hodge, "epsilon")
    assert not hasattr(perturbation, "_defect_norms_sq")
    assert not hasattr(ExactComplex, "__truediv__")
    assert not hasattr(ExactComplex, "__rtruediv__")
    assert not hasattr(Form, "__rmul__")
    assert not hasattr(Form, "conjugate")


def test_symbols_compose_by_calling_and_refuse_a_wrong_chain():
    ctx = FiberContext(1)
    g = Covector(ctx, (1,))
    z = Spinor(ctx, [scalar_form(ctx, 1)])
    with pytest.raises(ChiralityError):
        symbol(g, 1, "D")(symbol(g, 1, "D")(z))
    # the chain that matches is c(gamma)^2 = -|gamma|^2
    assert symbol(g, 1, "D_star")(symbol(g, 1, "D")(z)) == z.scale(-g.norm_sq())
