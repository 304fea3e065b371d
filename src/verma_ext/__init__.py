"""Subspace tables in the reflection representation of finite Weyl groups,
cross-checked against first-order coefficients of R-polynomials."""

from .coxeter import (
    CoxeterSystem,
    GroupElement,
    TypeDescriptor,
    bruhat_leq,
    bruhat_leq_oracle,
    build_system,
    element_from_word,
    enumerate_elements,
    fingerprint,
    format_word,
    identity,
    inverse,
    longest_element,
    min_coset_reps,
    multiply,
    parse_word,
    reduced_word,
    right_descents,
    right_multiply,
    simple_reflection,
)
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InvalidType,
    InvariantViolation,
    IoError,
    LiftingViolation,
    NotComparable,
    ParseError,
    RankMismatch,
    RankOverflow,
    VermaExtError,
)
from .reflection import (
    RationalSubspace,
    apply_element,
    basis_vector,
    coroot_pairing,
    reflect,
)
from .rpoly import IntPolynomial, RTable, gj_coefficient, r_coeff_direct
from .verify import PRESETS, RunConfig, VerifyReport, run_report, run_verify
from .vtable import (
    SingularSpec,
    VTable,
    compute_all,
    membership_report,
    singular_v,
)

__version__ = "0.1.0"
