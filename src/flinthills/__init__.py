"""Arbitrary-precision toolkit: continued fractions of pi, empirical
irrationality measures, Dirichlet/Fejer summation kernels with the 2-adic
shift sequence, reciprocal-sine and gamma-reflection tables, and partial sums
of the Flint Hills series family."""

from .contfrac import (
    Convergent,
    PartialQuotients,
    VerificationReport,
    constant_convergents,
    constant_value,
    convergents,
    digits_for_terms,
    expand,
    expand_constant,
    reconstruct,
    verify_fixture,
)
from .diophantine import (
    AuditReport,
    MeasurePoint,
    approximation_error,
    empirical_measure,
    inequality_audit,
    load_table_annotations,
    measure_table,
)
from .errors import (
    CacheError,
    CrossCheckError,
    DomainError,
    FixtureFormatError,
    FlintHillsError,
    InsufficientTermsError,
    PrecisionError,
    PrecisionInsufficientError,
    SingularArgumentError,
    UndefinedMeasureError,
)
from .kernels import (
    SUM_FORM_MAX_ORDER,
    KernelEval,
    ShiftSequenceTerm,
    cf_technique_check,
    dirichlet_kernel,
    fejer_kernel,
    recip_sin_bound_integer_technique,
    recip_sin_bound_real_technique,
    shift_term,
    v2,
)
from .mpreal import (
    RealContext,
    cos_int,
    make_context,
    pi_const,
    sin_int,
)
from .series import (
    ConvergenceDiagnostics,
    PartialSumResult,
    SeriesSpec,
    convergence_report,
    gamma_reflection_table,
    partial_sum,
    recip_sin_table,
)
from .stats import (
    QuotientStats,
    gauss_kuzmin_p,
    gauss_kuzmin_partial_sum,
    quotient_histogram,
    running_geometric_mean,
)

__version__ = "0.1.0"
