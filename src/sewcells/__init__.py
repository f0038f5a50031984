"""Chart-based tensor calculus for almost contact metric cells and sewn products."""

__version__ = "0.2.0"

from .catalog import (
    CATALOG,
    flat_cosymplectic_cell,
    halfspace_kenmotsu_cell,
    kenmotsu_warped_cell,
    model_cosymplectic_cell,
    standard_cells,
)
from .charts import (
    CellDefinition,
    Chart,
    CheckResult,
    Constraint,
    ContactStructure,
    PointSample,
    Residual,
    TensorField,
    ValidationReport,
    nullity_samples,
    sample_points,
    sample_points_grouped,
    validate_structure,
)
from .expressions import (
    EvaluationDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    Jet2,
    UnknownIdentifierError,
    evaluate,
    evaluate_jet2,
    parse_expression,
    to_source,
)
from .geometry import (
    Classification,
    affinor_derivatives,
    christoffel,
    classify,
    covariant_derivative_affinor,
    exterior_derivative,
    h_tensor,
    normality_tensor,
    riemann,
)
from .manifold_io import load_manifold, save_manifold
from .nullity import (
    RAW,
    Convention,
    NullityFit,
    check_generalized,
    fit_nullity,
    kenmotsu_convention,
)
from .sewing import (
    ProductDefinition,
    SewnManifold,
    build_product,
    extrinsic_report,
    sew,
    verify_f_structure,
    verify_lift_laws,
    verify_sewing_theorems,
)

__all__ = [name for name in dir() if not name.startswith("_")]
