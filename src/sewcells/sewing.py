"""Products of cells, the induced diagonal submanifold, and its verification.

``build_product`` lifts k adapted 3-dimensional cells onto one 3k-dimensional
chart: block-diagonal metric and affinor, one lifted Reeb field and one
pulled-back structure form per factor.  ``sew`` constructs the
(2k+1)-dimensional diagonal submanifold (all distinguished coordinates equal
to a single coordinate ``s``) together with its induced structure tensors,
built symbolically by the substitution ``t_i := s``:

* metric: restriction of the block metric through the linear embedding;
* affinor: block pass-through (the distinguished row of each cell affinor
  vanishes on an adapted chart, so images of embedded fields pull back
  exactly);
* Reeb field: the median ``(xi_1 + ... + xi_k)/sqrt(k)`` expressed in the
  diagonal chart;
* structure form: ``sqrt(k) ds``.

The verifiers sweep seeded sample points and report max residuals:
``verify_f_structure`` (the product affinor axioms), ``verify_lift_laws``
(covariant derivatives and curvature respect the block splitting, and the
distribution spanned by the affinor image and the median is involutive),
``extrinsic_report`` (flat normal connection, Weingarten operators kill the
Reeb field, ambient curvature of the Reeb field restricts to the intrinsic
one), and ``verify_sewing_theorems`` (classification and nullity transfer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .charts import (
    CheckResult,
    Chart,
    Constraint,
    ContactStructure,
    PointSample,
    Residual,
    TensorField,
    ValidationReport,
    column_field,
    sample_points,
)
from .expressions import BinOp, ExpressionNode, Num, rename_variables
from .geometry import (
    ALMOST_ALPHA_KENMOTSU,
    ALMOST_COSYMPLECTIC,
    Classification,
    affinor_derivatives,
    christoffel,
    classify,
    exterior_derivative,
    lie_bracket,
    numeric_rank,
    riemann,
)
from .nullity import (
    RAW,
    GeneralizedNullityReport,
    NullityFit,
    check_generalized,
    fit_nullity,
    kenmotsu_convention,
)

_ADAPTED_PROBE_TOL = 1e-12
_TANGENCY_TOL = 1e-10


class SewingError(ValueError):
    """Cells that cannot be lifted or sewn (non-adapted, wrong dimension, ...)."""


# ---------------------------------------------------------------------------
# Expression plumbing
# ---------------------------------------------------------------------------

def _scaled(node: ExpressionNode, factor: float) -> ExpressionNode:
    if node == Num(0.0) or factor == 1.0:
        return node
    return BinOp("*", Num(factor), node)


def _sum_nodes(nodes: Sequence[ExpressionNode]) -> ExpressionNode:
    return reduce(lambda a, b: BinOp("+", a, b), nodes)


def _suffix_map(cell: ContactStructure, i: int) -> dict[str, str]:
    return {name: f"{name}{i + 1}" for name in cell.chart.coords}


def _diagonal_map(cell: ContactStructure, i: int) -> dict[str, str]:
    mapping = _suffix_map(cell, i)
    mapping[cell.chart.coords[cell.chart.adapted_index]] = "s"
    return mapping


def _require_sewable(cells: Sequence[ContactStructure]) -> None:
    if len(cells) < 2:
        raise SewingError(f"need at least 2 cells, got {len(cells)}")
    for cell in cells:
        if cell.dim != 3:
            raise SewingError(f"cell {cell.name!r} has dimension {cell.dim}, expected 3")
        if cell.chart.adapted_index is None:
            raise SewingError(f"cell {cell.name!r} has no adapted coordinate")
        _probe_adapted_unit(cell)


def _probe_points(chart: Chart, count: int = 3):
    return [s.array() for s in sample_points(chart, count, seed=0)]


def _probe_adapted_unit(cell: ContactStructure) -> None:
    """The structure form must be exactly d(t) for the adapted coordinate."""
    t_axis = cell.chart.adapted_index
    expected = np.zeros(cell.dim)
    expected[t_axis] = 1.0
    for point in _probe_points(cell.chart):
        eta = cell.eta.evaluate(point)
        if not Residual("eta", _ADAPTED_PROBE_TOL).add(eta - expected).passed:
            raise SewingError(
                f"cell {cell.name!r} is not adapted: eta != d{cell.chart.coords[t_axis]}"
            )


# ---------------------------------------------------------------------------
# The cell product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductDefinition:
    """k lifted cells on one 3k-dimensional chart."""

    cells: tuple[ContactStructure, ...]
    chart: Chart
    metric: TensorField               # block diagonal of the lifted cell metrics
    f: TensorField                    # block diagonal of the lifted cell affinors
    framing: tuple[TensorField, ...]  # lifted Reeb fields, one per cell
    coframing: tuple[TensorField, ...]
    blocks: tuple[tuple[int, ...], ...]       # product coordinate indices per cell
    adapted_positions: tuple[int, ...]        # product index of each cell's t

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def median(self) -> TensorField:
        """The unit field ``(xi_1 + ... + xi_k)/sqrt(k)``."""
        k = self.cell_count
        scale = 1.0 / math.sqrt(k)
        comps = [Num(0.0)] * self.chart.dim
        for framing in self.framing:
            for pos, node in enumerate(framing.components):
                if node != Num(0.0):
                    comps[pos] = _scaled(node, scale)
        return TensorField(self.chart, 1, 0, tuple(comps))

    def normal_frame(self) -> tuple[TensorField, ...]:
        """Unit fields spanning the complement of the diagonal inside Ker(f).

        The l-th field is proportional to
        ``xi_1 + ... + xi_{l-1} - (l-1) xi_l`` (pairwise orthogonal to each
        other and to the median); each is normalized by the exact constant
        ``1/sqrt(l(l-1))`` per leading term.
        """
        k = self.cell_count
        fields = []
        for l in range(2, k + 1):
            lead = 1.0 / math.sqrt(l * (l - 1))
            coeffs = [lead] * (l - 1) + [-(l - 1) * lead] + [0.0] * (k - l)
            comps = [Num(0.0)] * self.chart.dim
            for j, coeff in enumerate(coeffs):
                if coeff == 0.0:
                    continue
                for pos, node in enumerate(self.framing[j].components):
                    if node != Num(0.0):
                        comps[pos] = _scaled(node, coeff)
            fields.append(TensorField(self.chart, 1, 0, tuple(comps)))
        return tuple(fields)

    def project_point(self, point, cell_index: int) -> np.ndarray:
        return np.asarray(point)[list(self.blocks[cell_index])]


def build_product(cells: Sequence[ContactStructure]) -> ProductDefinition:
    """Lift the cells onto the product chart with block tensors."""
    _require_sewable(cells)
    k = len(cells)
    names: list[str] = []
    for i, cell in enumerate(cells):
        names.extend(_suffix_map(cell, i)[name] for name in cell.chart.coords)
    if len(set(names)) != len(names):
        raise SewingError(f"coordinate name collision after renaming: {names}")
    constraints = _collect_constraints(cells, _suffix_map)
    chart = Chart(tuple(names), constraints, adapted_index=None)

    dim = 3 * k
    metric_grid = [[Num(0.0)] * dim for _ in range(dim)]
    f_grid = [[Num(0.0)] * dim for _ in range(dim)]
    framing: list[TensorField] = []
    coframing: list[TensorField] = []
    blocks: list[tuple[int, ...]] = []
    adapted_positions: list[int] = []
    for i, cell in enumerate(cells):
        base = 3 * i
        blocks.append(tuple(range(base, base + 3)))
        adapted_positions.append(base + cell.chart.adapted_index)
        mapping = _suffix_map(cell, i)
        renamed_metric = cell.metric.renamed_grid(mapping)
        renamed_phi = cell.phi.renamed_grid(mapping)
        for a in range(3):
            for b in range(3):
                metric_grid[base + a][base + b] = renamed_metric[a][b]
                f_grid[base + a][base + b] = renamed_phi[a][b]
        xi_comps = [Num(0.0)] * dim
        eta_comps = [Num(0.0)] * dim
        renamed_xi = cell.xi.renamed_grid(mapping)
        renamed_eta = cell.eta.renamed_grid(mapping)
        for a in range(3):
            xi_comps[base + a] = renamed_xi[a]
            eta_comps[base + a] = renamed_eta[a]
        framing.append(TensorField(chart, 1, 0, tuple(xi_comps)))
        coframing.append(TensorField(chart, 0, 1, tuple(eta_comps)))

    return ProductDefinition(
        cells=tuple(cells),
        chart=chart,
        metric=TensorField(chart, 0, 2, tuple(tuple(row) for row in metric_grid)),
        f=TensorField(chart, 1, 1, tuple(tuple(row) for row in f_grid)),
        framing=tuple(framing),
        coframing=tuple(coframing),
        blocks=tuple(blocks),
        adapted_positions=tuple(adapted_positions),
    )


def _collect_constraints(cells, mapper) -> tuple[Constraint, ...]:
    collected: list[Constraint] = []
    seen: set[str] = set()
    for i, cell in enumerate(cells):
        mapping = mapper(cell, i)
        for constraint in cell.chart.constraints:
            renamed = Constraint(rename_variables(constraint.positive, mapping))
            if renamed.source() not in seen:
                seen.add(renamed.source())
                collected.append(renamed)
    return tuple(collected)


# ---------------------------------------------------------------------------
# Product verification
# ---------------------------------------------------------------------------

def verify_f_structure(product: ProductDefinition, samples: Sequence[PointSample], tol: float) -> ValidationReport:
    """Axioms of the product affinor: f^3 + f = 0, skewness, kernel = framing."""
    k = product.cell_count
    median = product.median()
    cubed = Residual("f_cubed_plus_f", tol)
    skew = Residual("f_metric_skew", tol)
    kernel_span = Residual("f_kills_framing", tol)
    framing = Residual("framing_orthonormal", tol)
    dual = Residual("coframing_duality", tol)
    closed = Residual("coframing_closed", tol)
    unit_median = Residual("median_unit_length", tol)
    rank_ok = True
    worst_rank = 2 * k
    for sample in samples:
        point = sample.array()
        g = product.metric.evaluate(point)
        f = product.f.evaluate(point)
        cubed.add(f @ f @ f + f)
        skew.add(f.T @ g + g @ f)
        xi_vals = [tf.evaluate(point) for tf in product.framing]
        eta_vals = [tf.evaluate(point) for tf in product.coframing]
        for xi in xi_vals:
            kernel_span.add(f @ xi)
        framing.add(np.array([[xi_a @ g @ xi_b for xi_b in xi_vals] for xi_a in xi_vals]) - np.eye(k))
        dual.add(np.array([[eta_a @ xi_b for xi_b in xi_vals] for eta_a in eta_vals]) - np.eye(k))
        med = median.evaluate(point)
        unit_median.add(float(med @ g @ med) - 1.0)
        for coframe in product.coframing:
            closed.add(exterior_derivative(coframe, point))
        rank = numeric_rank(f)
        worst_rank = rank if rank != 2 * k else worst_rank
        rank_ok = rank_ok and rank == 2 * k
    checks = (
        cubed.result(),
        skew.result(),
        kernel_span.result(),
        CheckResult("kernel_rank", float(abs(worst_rank - 2 * k)), 0.0, rank_ok,
                    note=f"rank {worst_rank}, expected {2 * k} (kernel dimension {k})"),
        framing.result(),
        dual.result(),
        closed.result(),
        unit_median.result(),
    )
    return ValidationReport(f"f-structure of {len(product.cells)}-cell product", len(samples), checks)


def verify_lift_laws(
    product: ProductDefinition,
    samples: Sequence[PointSample],
    tol: float,
) -> ValidationReport:
    """Covariant derivative and curvature respect the block splitting.

    Within a block the product connection coefficients coincide with the
    lifted cell connection; across blocks both the connection and the
    curvature operator vanish; brackets of the affinor-image fields and the
    median stay inside their span.  The cross-block terms vanish exactly, so
    they are held to a tenth of ``tol``.
    """
    dim = product.chart.dim
    median = product.median()
    normals = product.normal_frame()
    columns = [column_field(product.f, j) for j in range(dim)]
    lift = Residual("lifted_covariant_derivative", tol)
    cross_conn = Residual("cross_block_connection", tol * 0.1)
    cross_curv = Residual("cross_block_curvature", tol * 0.1)
    invol = Residual("image_median_involutive", tol)
    for sample in samples:
        point = sample.array()
        curvature = riemann(product.metric, point)
        gamma_bar, riem_bar = curvature.gamma, curvature.riem
        for i, cell in enumerate(product.cells):
            block = list(product.blocks[i])
            cell_gamma = christoffel(cell.metric, product.project_point(point, i)).gamma
            expected = np.zeros((dim, 3, 3))
            expected[block] = cell_gamma
            lift.add(gamma_bar[:, block, :][:, :, block] - expected)
            for j in range(len(product.cells)):
                if j == i:
                    continue
                other = list(product.blocks[j])
                cross_conn.add(gamma_bar[:, block, :][:, :, other])
                cross_curv.add(riem_bar[:, block, :, :][:, :, other, :])
        g = product.metric.evaluate(point)
        normal_vals = [tf.evaluate(point) for tf in normals]

        def add_normal_part(bracket: np.ndarray) -> None:
            for u in normal_vals:
                invol.add(float(bracket @ g @ u))

        for a in range(dim):
            for b in range(a + 1, dim):
                add_normal_part(lie_bracket(columns[a], columns[b], point))
            add_normal_part(lie_bracket(columns[a], median, point))
    checks = (lift.result(), cross_conn.result(), cross_curv.result(), invol.result())
    return ValidationReport(f"lift laws of {len(product.cells)}-cell product", len(samples), checks)


# ---------------------------------------------------------------------------
# Sewing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SewnManifold(ContactStructure):
    """The diagonal submanifold with its induced structure; eta = sqrt(k) ds."""

    cell_count: int = 0
    sources: tuple[str, ...] = ()

    @property
    def eta_scale(self) -> float:
        return math.sqrt(self.cell_count)


def sew(cells: Sequence[ContactStructure]) -> SewnManifold:
    """Construct the sewn manifold of the given cells symbolically."""
    _require_sewable(cells)
    k = len(cells)
    u_names: list[list[str]] = []
    for i, cell in enumerate(cells):
        mapping = _suffix_map(cell, i)
        u_names.append(
            [mapping[name] for a, name in enumerate(cell.chart.coords) if a != cell.chart.adapted_index]
        )
    names = ("s",) + tuple(name for block in u_names for name in block)
    if len(set(names)) != len(names):
        raise SewingError(f"coordinate name collision after renaming: {names}")
    constraints = _collect_constraints(cells, _diagonal_map)
    chart = Chart(names, constraints, adapted_index=0)
    dim = 2 * k + 1

    _probe_diagonal_consistency(cells)

    # Position of each cell's non-adapted coordinates in the diagonal chart.
    positions: list[dict[int, int]] = []
    cursor = 1
    for i, cell in enumerate(cells):
        local = {}
        for a in range(3):
            if a == cell.chart.adapted_index:
                continue
            local[a] = cursor
            cursor += 1
        positions.append(local)

    metric_grid = [[Num(0.0)] * dim for _ in range(dim)]
    phi_grid = [[Num(0.0)] * dim for _ in range(dim)]
    xi_comps = [Num(0.0)] * dim
    scale = 1.0 / math.sqrt(k)
    ss_terms = []
    for i, cell in enumerate(cells):
        t = cell.chart.adapted_index
        mapping = _diagonal_map(cell, i)
        g = cell.metric.renamed_grid(mapping)
        p = cell.phi.renamed_grid(mapping)
        xi = cell.xi.renamed_grid(mapping)
        ss_terms.append(g[t][t])
        for a, pos_a in positions[i].items():
            metric_grid[0][pos_a] = g[t][a]
            metric_grid[pos_a][0] = g[a][t]
            phi_grid[pos_a][0] = p[a][t]
            xi_comps[pos_a] = _scaled(xi[a], scale)
            for b, pos_b in positions[i].items():
                metric_grid[pos_a][pos_b] = g[a][b]
                phi_grid[pos_a][pos_b] = p[a][b]
    metric_grid[0][0] = _sum_nodes(ss_terms)
    xi_comps[0] = Num(scale)
    eta_comps = [Num(0.0)] * dim
    eta_comps[0] = Num(math.sqrt(k))

    return SewnManifold(
        name="-".join(cell.name for cell in cells),
        chart=chart,
        metric=TensorField(chart, 0, 2, tuple(tuple(row) for row in metric_grid)),
        phi=TensorField(chart, 1, 1, tuple(tuple(row) for row in phi_grid)),
        xi=TensorField(chart, 1, 0, tuple(xi_comps)),
        eta=TensorField(chart, 0, 1, tuple(eta_comps)),
        cell_count=k,
        sources=tuple(cell.name for cell in cells),
    )


def _probe_diagonal_consistency(cells: Sequence[ContactStructure]) -> None:
    """The median must be tangent to the diagonal and the affinor block-exact.

    On an adapted chart this means the distinguished component of the Reeb
    field is 1 and the distinguished row of the affinor vanishes.
    """
    for cell in cells:
        t = cell.chart.adapted_index
        for point in _probe_points(cell.chart):
            xi = cell.xi.evaluate(point)
            if not Residual("xi", _TANGENCY_TOL).add(float(xi[t]) - 1.0).passed:
                raise SewingError(
                    f"cell {cell.name!r}: median tangency fails (xi^t = {xi[t]!r})"
                )
            phi = cell.phi.evaluate(point)
            if not Residual("phi", _TANGENCY_TOL).add(phi[t]).passed:
                raise SewingError(
                    f"cell {cell.name!r}: affinor maps into the distinguished direction"
                )


def embedding_matrix(product: ProductDefinition, sewn: SewnManifold) -> np.ndarray:
    """Constant pushforward matrix of the diagonal chart into the product."""
    e = np.zeros((product.chart.dim, sewn.chart.dim))
    for pos in product.adapted_positions:
        e[pos, 0] = 1.0
    for a, name in enumerate(sewn.chart.coords[1:], start=1):
        e[product.chart.index_of(name), a] = 1.0
    return e


def embed_point(product: ProductDefinition, sewn: SewnManifold, point) -> np.ndarray:
    return embedding_matrix(product, sewn) @ np.asarray(point, dtype=float)


# ---------------------------------------------------------------------------
# Extrinsic geometry of the sewn submanifold
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExtrinsicSample:
    point: PointSample
    second_fundamental: np.ndarray      # [a, b, alpha]: normal components of nabla_a e_b


@dataclass(frozen=True)
class ExtrinsicReport(ValidationReport):
    samples: tuple[ExtrinsicSample, ...]


def extrinsic_report(
    product: ProductDefinition,
    sewn: SewnManifold,
    samples: Sequence[PointSample],
    tol: float,
) -> ExtrinsicReport:
    """Second fundamental form, normal connection and curvature restriction
    of ``sewn`` (the diagonal of ``product``) at samples of its chart."""
    k = product.cell_count
    dim_n = sewn.chart.dim
    e_mat = embedding_matrix(product, sewn)
    median = product.median()
    normals = product.normal_frame()

    out_samples: list[ExtrinsicSample] = []
    frame = Residual("normal_frame_orthonormal", tol)
    perp = Residual("normal_frame_perpendicular", tol)
    dperp = Residual("normal_connection_flat", tol)
    weinxi = Residual("weingarten_kills_xi", tol)
    tangency = Residual("curvature_xi_tangent", tol)
    match = Residual("curvature_restriction_match", tol)
    for sample in samples:
        p = sample.array()
        q = e_mat @ p
        curvature = riemann(product.metric, q)
        gamma_bar, riem_bar = curvature.gamma, curvature.riem
        g = product.metric.evaluate(q)
        xi_bar = median.evaluate(q)
        normal_data = [tf.evaluate_with_grads(q) for tf in normals]
        normal_vals = [vals for vals, _ in normal_data]

        for a, (u_a, _) in enumerate(normal_data):
            perp.add(e_mat.T @ (g @ u_a))
            for b, (u_b, _) in enumerate(normal_data):
                frame.add(float(u_a @ g @ u_b) - (1.0 if a == b else 0.0))

        def nabla_along(v: np.ndarray, w_vals: np.ndarray, w_grads: np.ndarray) -> np.ndarray:
            return np.einsum("a,ja->j", v, w_grads) + np.einsum("a,jam,m->j", v, gamma_bar, w_vals)

        def split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            coeffs = np.array([float(v @ g @ u) for u in normal_vals])
            normal = sum((c * u for c, u in zip(coeffs, normal_vals)), np.zeros_like(v))
            return v - normal, normal

        second = np.zeros((dim_n, dim_n, k - 1))
        for a in range(dim_n):
            for b in range(dim_n):
                deriv = np.einsum("i,m,jim->j", e_mat[:, a], e_mat[:, b], gamma_bar)
                second[a, b] = [float(deriv @ g @ u) for u in normal_vals]
        for u_vals, u_grads in normal_data:
            for b in range(dim_n):
                deriv = nabla_along(e_mat[:, b], u_vals, u_grads)
                for u_other in normal_vals:
                    dperp.add(float(deriv @ g @ u_other))
            tangential, _ = split(nabla_along(xi_bar, u_vals, u_grads))
            weinxi.add(tangential)

        riem_n = riemann(sewn.metric, p).riem
        xi_n = sewn.xi.evaluate(p)
        intrinsic = np.einsum("labm,m->lab", riem_n, xi_n)
        for a in range(dim_n):
            for b in range(a + 1, dim_n):
                ambient = np.einsum("lijm,i,j,m->l", riem_bar, e_mat[:, a], e_mat[:, b], xi_bar)
                tangential, normal = split(ambient)
                tangency.add(normal)
                match.add(tangential - e_mat @ intrinsic[:, a, b])

        out_samples.append(ExtrinsicSample(point=sample, second_fundamental=second))

    checks = tuple(r.result() for r in (frame, perp, dperp, weinxi, tangency, match))
    return ExtrinsicReport(sewn.name, len(samples), checks, samples=tuple(out_samples))


# ---------------------------------------------------------------------------
# Classification and nullity transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullityTransferRow:
    """The raw fits at one sewn sample and at its projection into the first cell."""

    point: PointSample
    sewn: NullityFit
    cell: NullityFit


@dataclass(frozen=True)
class ConventionComparison:
    """Which h' normalization makes mu' scale by 1/k under sewing."""

    cell_count: int
    alpha_cell: float
    alpha_sewn: float
    cell_raw: tuple[float, float, float]
    cell_normalized: tuple[float, float, float]
    sewn_raw: tuple[float, float, float]
    sewn_normalized: tuple[float, float, float]
    muprime_ratio_raw: float
    muprime_ratio_normalized: float
    reproduces_inverse_k: str  # "kenmotsu", "raw" or "neither"


@dataclass(frozen=True)
class TheoremReport(ValidationReport):
    cells_are_copies: bool
    cell_classification: Classification
    sewn_classification: Classification
    nullity_rows: tuple[NullityTransferRow, ...]
    generalized: GeneralizedNullityReport | None
    convention_comparison: ConventionComparison | None


def _mean_fit(fits: Sequence[NullityFit]) -> tuple[float, float, float]:
    return (
        float(np.mean([f.kappa for f in fits])),
        float(np.mean([f.mu for f in fits])),
        float(np.mean([f.muprime for f in fits])),
    )


def verify_sewing_theorems(
    product: ProductDefinition,
    sewn: SewnManifold,
    samples: Sequence[PointSample],
    tol: float,
) -> TheoremReport:
    """Check classification transfer, nullity transfer and the commutation laws.

    ``sewn`` is the diagonal of ``product`` and ``samples`` lie on its chart,
    grouped by the diagonal value as ``check_generalized`` needs.
    Classification: sewn almost cosymplectic cells stay almost cosymplectic,
    and equal-weight alpha-Kenmotsu cells sew to weight ``alpha/sqrt(k)``.
    Nullity (identical cell copies): at every sample with diagonal value s,
    the sewn fit must match the cell fit at the projected point via
    ``kappa -> kappa/k`` and ``mu, mu' -> mu/sqrt(k), mu'/sqrt(k)`` in the raw
    convention, and the fitted functions must be aligned with the structure
    form.  Finally the operators ``P = -kappa phi^2``, ``H1 = mu h``,
    ``H2 = mu' h'`` built from the fitted data must be g-symmetric, commute or
    anticommute with phi as required, commute with each other and kill xi.
    """
    cells = product.cells
    k = product.cell_count
    e_mat = embedding_matrix(product, sewn)
    copies = all(_same_definition(cell, cells[0]) for cell in cells[1:])

    cell_points = [
        [product.project_point(e_mat @ s.array(), i) for s in samples] for i in range(k)
    ]
    cell_samples = [
        [PointSample(tuple(float(v) for v in p), s.seed, s.draw) for p, s in zip(pts, samples)]
        for pts in cell_points
    ]

    def classified(struct: ContactStructure, points: Sequence[PointSample]) -> Classification:
        return classify(struct, points, affinor_derivatives(struct, points), tol)

    cell_class = classified(cells[0], cell_samples[0])
    sewn_class = classified(sewn, samples)

    checks: list[CheckResult] = []
    agree = all(
        classified(cell, points).kind == cell_class.kind
        for cell, points in zip(cells[1:], cell_samples[1:])
    )
    checks.append(CheckResult("cell_classifications_agree", 0.0 if agree else 1.0, 0.0, agree,
                              note=cell_class.describe()))
    if cell_class.kind == ALMOST_COSYMPLECTIC:
        ok = sewn_class.kind == ALMOST_COSYMPLECTIC
        checks.append(CheckResult("classification_transfer", 0.0 if ok else 1.0, 0.0, ok,
                                  note=sewn_class.describe()))
    elif cell_class.kind == ALMOST_ALPHA_KENMOTSU:
        # sewn_class.alpha is None unless the sewn structure is almost alpha-Kenmotsu
        expected = cell_class.alpha / math.sqrt(k)
        checks.append(Residual("classification_transfer", tol,
                               note=f"expected alpha {expected!r}, {sewn_class.describe()}")
                      .add((sewn_class.alpha or math.inf) - expected).result())
    else:
        checks.append(Residual("classification_transfer", tol,
                               note=f"weight-function cells; {sewn_class.describe()}")
                      .add(sewn_class.fit_residual_max).result())
    checks.append(Residual("sewn_weight_fit_residual", tol).add(sewn_class.fit_residual_max).result())

    nullity_rows: list[NullityTransferRow] = []
    generalized: GeneralizedNullityReport | None = None
    comparison: ConventionComparison | None = None
    if copies:
        sqrt_k = math.sqrt(k)
        fit_residuals = Residual("nullity_fit_residuals", tol)
        kappa = Residual("kappa_transfer", tol, note=f"kappa -> kappa/{k}")
        mu = Residual("mu_transfer", tol, note=f"mu -> mu/sqrt({k}), raw convention")
        muprime = Residual("muprime_transfer", tol, note=f"mu' -> mu'/sqrt({k}), raw convention")
        laws = tuple(Residual(name, tol) for name in _OPERATOR_LAWS)
        for j, s in enumerate(samples):
            p = s.array()
            sewn_fit = fit_nullity(sewn, p, RAW)
            fit_residuals.add(sewn_fit.residual)
            cell_fits = [fit_nullity(cells[i], cell_points[i][j], RAW) for i in range(k)]
            for cf in cell_fits:
                fit_residuals.add(cf.residual)
                kappa.add(sewn_fit.kappa - cf.kappa / k)
                if cf.determinate_mu and sewn_fit.determinate_mu:
                    mu.add(sewn_fit.mu - cf.mu / sqrt_k)
                    muprime.add(sewn_fit.muprime - cf.muprime / sqrt_k)
            nullity_rows.append(NullityTransferRow(s, sewn_fit, cell_fits[0]))
            _add_operator_laws(laws, sewn, p, sewn_fit)
        generalized = check_generalized(sewn, samples, [row.sewn for row in nullity_rows], tol)
        checks.extend(r.result() for r in (fit_residuals, kappa, mu, muprime))
        checks.append(Residual("eta_aligned", tol).add(generalized.group_spread_max).result())
        checks.extend(r.result() for r in laws)
        if cell_class.kind == ALMOST_ALPHA_KENMOTSU and sewn_class.kind == ALMOST_ALPHA_KENMOTSU:
            comparison = _compare_conventions(
                cells[0], sewn, cell_points[0], nullity_rows, cell_class.alpha, sewn_class.alpha, k, tol,
            )
    return TheoremReport(
        subject=sewn.name,
        sample_count=len(samples),
        checks=tuple(checks),
        cells_are_copies=copies,
        cell_classification=cell_class,
        sewn_classification=sewn_class,
        nullity_rows=tuple(nullity_rows),
        generalized=generalized,
        convention_comparison=comparison,
    )


_OPERATOR_LAWS = (
    "operators_g_symmetric",
    "P_commutes_with_phi",
    "H_anticommutes_with_phi",
    "P_commutes_with_H",
    "operators_kill_xi",
)


def _add_operator_laws(laws, struct: ContactStructure, point, fit: NullityFit) -> None:
    """Fold one sample into the residuals named by ``_OPERATOR_LAWS``.

    The operators are ``P = -kappa phi^2``, ``H1 = mu h`` and ``H2 = mu' h'``.
    """
    symmetric, p_phi, h_phi, p_h, kills_xi = laws
    g, phi, xi, _ = struct.values_at(point)
    p_op = -fit.kappa * (phi @ phi)
    h_ops = (fit.mu * fit.h, fit.muprime * fit.hprime)
    for op in (p_op,) + h_ops:
        symmetric.add(g @ op - (g @ op).T)
        kills_xi.add(op @ xi)
    p_phi.add(p_op @ phi - phi @ p_op)
    for h_op in h_ops:
        h_phi.add(h_op @ phi + phi @ h_op)
        p_h.add(p_op @ h_op - h_op @ p_op)


def _same_definition(a: ContactStructure, b: ContactStructure) -> bool:
    return (
        a.chart == b.chart
        and a.metric.components == b.metric.components
        and a.phi.components == b.phi.components
        and a.xi.components == b.xi.components
        and a.eta.components == b.eta.components
    )


def _compare_conventions(cell, sewn, cell_points, rows, alpha_cell, alpha_sewn, k, tol):
    """Means of the raw fits in ``rows`` against new fits in the normalized convention."""
    cell_raw = _mean_fit([row.cell for row in rows])
    cell_norm = _mean_fit([fit_nullity(cell, p, kenmotsu_convention(alpha_cell)) for p in cell_points])
    sewn_raw = _mean_fit([row.sewn for row in rows])
    sewn_norm = _mean_fit([fit_nullity(sewn, row.point.array(), kenmotsu_convention(alpha_sewn)) for row in rows])
    # the ratio is meaningless when the cells have mu' = 0 in the first place
    if abs(cell_raw[2]) <= 1e-8 or abs(cell_norm[2]) <= 1e-8:
        ratio_raw = ratio_norm = math.nan
        verdict = "indeterminate (mu' vanishes on the cells)"
    else:
        ratio_raw = sewn_raw[2] / cell_raw[2]
        ratio_norm = sewn_norm[2] / cell_norm[2]
        target = 1.0 / k
        if Residual("normalized", max(tol, 1e-6)).add(ratio_norm - target).passed:
            verdict = "kenmotsu"
        elif Residual("raw", max(tol, 1e-6)).add(ratio_raw - target).passed:
            verdict = "raw"
        else:
            verdict = "neither"
    return ConventionComparison(
        cell_count=k,
        alpha_cell=alpha_cell,
        alpha_sewn=alpha_sewn,
        cell_raw=cell_raw,
        cell_normalized=cell_norm,
        sewn_raw=sewn_raw,
        sewn_normalized=sewn_norm,
        muprime_ratio_raw=ratio_raw,
        muprime_ratio_normalized=ratio_norm,
        reproduces_inverse_k=verdict,
    )
