"""su(2) from twin deformed oscillators at a root of unity, with the full
coupling calculus carried into the joint eigenbasis of the Casimir and the
unitary cyclic shift.

The package is organized bottom-up: scalar arithmetic at roots of unity
(qarith), the finite Fock space and deformed mode operators (fock), the
polar construction of the angular momentum algebra and the shift eigenbasis
(su2), standard magnetic-basis coupling symbols (wigner), the transformed
coupling calculus with its orthogonality, permutation, substitution, and
factorization laws (urcoupling), and a realization of the shift families as
functions on the sphere (sphere).  Every layer ships verification routines
that return structured reports; the command line (cli) wires them together.
"""

from .errors import (
    DegenerateFactorialError,
    InvalidArgumentError,
    InvalidOrderError,
    SpaceMismatchError,
    SubspaceLeakageError,
    TableConflictError,
    UndeterminedReducedElementError,
    UnsupportedLimitError,
    WracahError,
)
from .fock import FockSpace, Operator, QuonOps, commutator, quon_operators, verify_quon_relations
from .qarith import (
    HalfInt,
    ToleranceRule,
    alpha_phase,
    alpha_value,
    halfint_range,
    q_bracket,
    q_factorial,
    q_factorial_is_degenerate,
    q_power,
)
from .report import Check, VerificationReport
from .sphere import (
    QuadratureGrid,
    SphericalPoint,
    spherical_harmonic,
    verify_sphere,
    y_r_eigenfunction,
)
from .su2 import (
    AngularSpace,
    ShiftEigenbasis,
    ShiftParams,
    Su2Ops,
    angular_momentum_ops,
    basis_transform_matrix,
    clock_shift_monomial,
    modulus_op,
    shift_eigenbasis,
    shift_op,
    verify_shift_eigenbasis,
    verify_sine_algebra,
    verify_su2,
)
from .urcoupling import (
    NinejSubstitution,
    TensorComponents,
    WignerEckartResult,
    angular_momentum_tensor,
    cg_ur,
    cg_ur_table,
    f_table,
    fbar_table,
    identity_tensor,
    ninej_from_fbar,
    tensor_transform,
    tensor_transform_inverse,
    verify_fbar_orthogonality,
    verify_fbar_permutation,
    verify_wigner_eckart,
    wigner_eckart_check,
)
from .wigner import CouplingTable, cg, ninej, threejm, triangle

__version__ = "0.1.0"

__all__ = [
    "AngularSpace",
    "Check",
    "CouplingTable",
    "DegenerateFactorialError",
    "FockSpace",
    "HalfInt",
    "InvalidArgumentError",
    "InvalidOrderError",
    "NinejSubstitution",
    "Operator",
    "QuadratureGrid",
    "QuonOps",
    "ShiftEigenbasis",
    "ShiftParams",
    "SpaceMismatchError",
    "SphericalPoint",
    "Su2Ops",
    "SubspaceLeakageError",
    "TableConflictError",
    "TensorComponents",
    "ToleranceRule",
    "UndeterminedReducedElementError",
    "UnsupportedLimitError",
    "VerificationReport",
    "WignerEckartResult",
    "WracahError",
    "alpha_phase",
    "alpha_value",
    "angular_momentum_ops",
    "angular_momentum_tensor",
    "basis_transform_matrix",
    "cg",
    "cg_ur",
    "cg_ur_table",
    "clock_shift_monomial",
    "commutator",
    "f_table",
    "fbar_table",
    "halfint_range",
    "identity_tensor",
    "modulus_op",
    "ninej",
    "ninej_from_fbar",
    "q_bracket",
    "q_factorial",
    "q_factorial_is_degenerate",
    "q_power",
    "quon_operators",
    "shift_eigenbasis",
    "shift_op",
    "spherical_harmonic",
    "tensor_transform",
    "tensor_transform_inverse",
    "threejm",
    "triangle",
    "verify_fbar_orthogonality",
    "verify_fbar_permutation",
    "verify_quon_relations",
    "verify_shift_eigenbasis",
    "verify_sine_algebra",
    "verify_sphere",
    "verify_su2",
    "verify_wigner_eckart",
    "wigner_eckart_check",
    "y_r_eigenfunction",
]
