"""Chart-based tensor calculus for almost contact metric cells and sewn products."""

__version__ = "0.26.0"

from .catalog import (
    CATALOG,
    flat_cosymplectic_cell,
    halfspace_kenmotsu_cell,
    kenmotsu_warped_cell,
    model_cosymplectic_cell,
    standard_cells,
)
from .charts import (
    Chart,
    CheckResult,
    Constraint,
    ContactStructure,
    Residual,
    Samples,
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
    christoffel,
    classify,
    covariant_derivative_affinor,
    exterior_derivative,
    h_tensor,
    normality_tensor,
    riemann,
)
from .manifold_io import load_manifold, save_manifold
from .nullity import NullityFits, check_generalized, fit_nullity, normalized
from .sewing import (
    ProductDefinition,
    SewnManifold,
    block_structure,
    build_product,
    extrinsic_report,
    sew,
    verify_f_structure,
    verify_lift_laws,
    verify_sewing_theorems,
)

__all__ = [name for name in dir() if not name.startswith("_")]
