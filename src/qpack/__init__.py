"""qpack: triangle-free line packings of F_q^3, exhaustive verification of
their structural properties, and the polynomial Ramsey-degree bounds they
imply."""

__version__ = "0.1.0"

from .gf import (
    FieldElement,
    FieldSpec,
    NotPrimePowerError,
    is_prime,
    make_field,
    next_prime_geq,
)
from .construction import (
    CountOutOfRangeError,
    GeometryFamily,
    Line,
    LineClass,
    RepeatedScaleError,
    ZeroScaleError,
    ZeroSlopeError,
    build_class,
    build_family,
    canonical_line,
    canonical_slope,
    moment_curve,
)
from .verifier import (
    CountingReport,
    GenericIncidence,
    MalformedStructureError,
    NotPartialLinearSpaceError,
    NotTriangleFreeError,
    NotUniformError,
    OrderParams,
    Witness,
    check_disjoint_classes,
    check_order,
    check_pls,
    check_triangle_free,
    check_union_pls,
    certify_class,
    class_incidence,
    counting_bound,
    counting_report,
    dependent_slopes,
    revalidate,
    union_incidence,
)
from .bounds import (
    AlphaOutOfRangeError,
    BoundReport,
    ConditionsFailedError,
    ExponentReport,
    OutOfRangeError,
    bound_bbl,
    bound_fglps,
    bound_hrs,
    bound_main,
    compare,
    eq1_range,
    exponent_analysis,
    find_q,
    lemma_conditions,
    min_total_degree,
    threshold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
