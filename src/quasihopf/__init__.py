"""Exact-arithmetic engine for finite-dimensional quasi-Hopf algebras.

Algebras are presented by structure constants over Q or Q(i); the package
computes their canonical elements, integrals, cointegrals, modular data,
Frobenius systems and quantum double, and machine-verifies every identity
those objects satisfy, with exact residuals (no tolerances anywhere).
"""

from .exactnum import (DivisionByZero, ParseError, Scalar, arith, invert,
                       parse_scalar, render_scalar)
from .multilinear import (DimMismatch, Functional, LegOutOfRange,
                          LinearOperator, RankMismatch, TensorElement,
                          apply_on_leg, contract, mult_pointwise,
                          solve_constraints, tensor_product)
from .qha import (AxiomViolation, BadCounitNormalization, BadPlan,
                  NonInvertiblePhi, QhaPresentation, SingularAntipode,
                  antipode_inverse, dual_action, generating_set, iterated_coproduct,
                  load_and_validate, variant, verify_axioms)
from .canonical import (CanonicalElements, IdentityRegistry, UnknownIdentity,
                        canonical_elements, check_identity, identity_suite)
from .context import AlgebraContext, get_context
from .intcoint import (CointegralData, DimensionNotOne, FrobeniusSystem,
                       IntegralData, cointegral_space, integral_space)
from .double import (DoublePresentation, build_double, double_antipode_inverse,
                     double_integral, double_modular, double_report,
                     semisimplicity_check)
from .report import CheckRow, VerificationReport
from .workbench import (CATALOG_NAMES, SchemaError, UnknownCatalogName,
                        catalog_build, export_document, import_document)

__all__ = [name for name in dir() if not name.startswith("_")]
