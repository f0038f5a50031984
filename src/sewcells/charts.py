"""Charts, tensor fields as expression grids, and structure-axiom validation.

A chart is a single coordinate patch: ordered coordinate names, optional
strict-inequality domain constraints, and optionally a distinguished
coordinate ``t`` for which the structure form is ``scale * dt``.  Tensor
fields store one expression per component.  A field folds its constant
components once, on first evaluation, and evaluates each other component with
one call per point or per stack of points, its jet taken over the coordinates
that component depends on and scattered into the full gradient and Hessian.

Sweeps over samples go through ``evaluate_batches``, which hands consumers
stacks of samples.  The batch size is derived from the chart dimension n:
a batch holds as many samples as keep one (n, n, n) float array with a sample
axis (a metric gradient, the Christoffel symbols, nabla phi) within
``BATCH_BYTES``.  Nothing with a sample axis grows beyond that, whatever the
sample count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .expressions import (
    FUNCTIONS,
    BinOp,
    EvaluationDomainError,
    ExpressionNode,
    Num,
    Var,
    evaluate,
    evaluate_jet2,
    free_variables,
    parse_expression,
    rename_variables,
    to_source,
)

SPD_EIGENVALUE_FLOOR = 1e-10


class ChartError(ValueError):
    """Inconsistent chart or tensor declaration."""


class SamplingError(RuntimeError):
    """Rejection sampling failed to hit the declared domain."""


class SampleEvaluationError(RuntimeError):
    """Evaluation failed at a specific sample; carries the sample."""

    def __init__(self, sample: "PointSample", cause: Exception):
        super().__init__(f"evaluation failed at sample {sample.coords}: {cause}")
        self.sample = sample
        self.cause = cause


# ---------------------------------------------------------------------------
# Charts and domain constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """A strict inequality on the chart, stored as ``positive > 0``."""

    positive: ExpressionNode

    @classmethod
    def from_source(cls, src: str, coords: Sequence[str]) -> "Constraint":
        """Parse ``"a > b"``, ``"a < b"`` or a bare positive expression."""
        if ">" in src:
            lhs, rhs = src.split(">", 1)
            return cls(_difference(lhs, rhs, coords))
        if "<" in src:
            lhs, rhs = src.split("<", 1)
            return cls(_difference(rhs, lhs, coords))
        return cls(parse_expression(src, coords))

    def source(self) -> str:
        return f"{to_source(self.positive)} > 0"

    def holds(self, point, index) -> bool:
        try:
            return evaluate(self.positive, point, index) > 0.0
        except EvaluationDomainError:
            return False


def _difference(lhs: str, rhs: str, coords: Sequence[str]) -> ExpressionNode:
    left = parse_expression(lhs, coords)
    right = parse_expression(rhs, coords)
    if right == Num(0.0):
        return left
    return BinOp("-", left, right)


@dataclass(frozen=True)
class Chart:
    coords: tuple[str, ...]
    constraints: tuple[Constraint, ...] = ()
    adapted_index: int | None = None

    def __post_init__(self) -> None:
        if len(set(self.coords)) != len(self.coords):
            raise ChartError(f"duplicate coordinate names in {self.coords}")
        for name in self.coords:
            if name in FUNCTIONS:
                raise ChartError(f"coordinate name {name!r} shadows a function")
        if self.adapted_index is not None and not 0 <= self.adapted_index < len(self.coords):
            raise ChartError(f"adapted index {self.adapted_index} out of range")
        for c in self.constraints:
            unknown = free_variables(c.positive) - set(self.coords)
            if unknown:
                raise ChartError(f"constraint uses unknown coordinates {sorted(unknown)}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def coord_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.coords)}

    @property
    def adapted_name(self) -> str | None:
        return None if self.adapted_index is None else self.coords[self.adapted_index]

    def index_of(self, name: str) -> int:
        try:
            return self.coord_index[name]
        except KeyError as exc:
            raise ChartError(f"no coordinate {name!r} in chart {self.coords}") from exc

    def satisfies(self, point) -> bool:
        return all(c.holds(point, self.coord_index) for c in self.constraints)


# ---------------------------------------------------------------------------
# Tensor fields
# ---------------------------------------------------------------------------

def _freeze_grid(grid, rank: int):
    if rank == 0:
        return grid
    return tuple(_freeze_grid(entry, rank - 1) for entry in grid)


@dataclass(frozen=True)
class TensorField:
    """A tensor field given componentwise by expressions over one chart.

    Component axes are ordered contravariant slots first, covariant slots
    last; e.g. an affinor ``A`` is stored as ``A[i][j] = A^i_j``.
    """

    chart: Chart
    upper: int
    lower: int
    components: tuple

    @property
    def rank(self) -> int:
        return self.upper + self.lower

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.chart.dim,) * self.rank

    @classmethod
    def build(cls, chart: Chart, upper: int, lower: int, grid) -> "TensorField":
        """Build from a nested sequence of expression trees or source strings."""
        rank = upper + lower
        parsed = _parse_grid(grid, rank, chart)
        tf = cls(chart, upper, lower, _freeze_grid(parsed, rank))
        tf._check_shape()
        return tf

    def _check_shape(self) -> None:
        n = self.chart.dim

        def walk(grid, depth):
            if depth == 0:
                for name in free_variables(grid):
                    if name not in self.chart.coord_index:
                        raise ChartError(f"component references unknown coordinate {name!r}")
                return
            if len(grid) != n:
                raise ChartError(f"component grid has length {len(grid)}, expected {n}")
            for entry in grid:
                walk(entry, depth - 1)

        walk(self.components, self.rank)

    def component(self, idx: tuple[int, ...]) -> ExpressionNode:
        node = self.components
        for i in idx:
            node = node[i]
        return node

    @cached_property
    def _plan(self) -> "_FieldPlan":
        return _FieldPlan.build(self)

    def evaluate(self, point) -> np.ndarray:
        """Component values at a point (n,), or at each point of a stack (P, n)
        with a leading P axis."""
        point = np.asarray(point, dtype=float)
        plan = self._plan
        lead = point.shape[:-1]
        vals = np.empty(lead + plan.constant.shape)
        vals[...] = plan.constant
        if plan.terms:
            index = self.chart.coord_index
            vals[..., plan.positions] = np.array([evaluate(node, point, index) for node, _, _ in plan.terms]).T
        return vals.reshape(lead + self.shape)

    def evaluate_with_grads(self, point):
        """``evaluate_with_jets`` without the Hessians."""
        return self.evaluate_with_jets(point, hessians=False)

    def evaluate_with_jets(self, point, hessians: bool = True):
        """Values, ``grads[..., l] = d_l`` of each component and, unless
        ``hessians`` is false, ``hesses[..., l, m] = d_l d_m``; at a stack
        (P, n) each has a leading P axis."""
        point = np.asarray(point, dtype=float)
        plan = self._plan
        n = self.chart.dim
        lead = point.shape[:-1]
        size = plan.constant.size
        vals = np.empty(lead + (size,))
        vals[...] = plan.constant
        grads = np.zeros(lead + (size * n,))
        hesses = np.zeros(lead + (size * n * n,)) if hessians else None
        if plan.terms:
            # each component's jet is taken over its own coordinates only, then scattered
            jets = [evaluate_jet2(node, point[..., columns], local) for node, columns, local in plan.terms]
            vals[..., plan.positions] = np.array([jet.value for jet in jets]).T
            grads[..., plan.grad_slots] = np.concatenate([jet.grad for jet in jets], axis=-1)
            if hesses is not None:
                hesses[..., plan.hess_slots] = np.concatenate(
                    [jet.hess.reshape(lead + (-1,)) for jet in jets], axis=-1
                )
        shape = lead + self.shape
        if hesses is None:
            return vals.reshape(shape), grads.reshape(shape + (n,))
        return vals.reshape(shape), grads.reshape(shape + (n,)), hesses.reshape(shape + (n, n))

    def renamed_grid(self, mapping: dict[str, str]):
        """The component grid with variables renamed (for lifting into blocks)."""

        def walk(grid, depth):
            if depth == 0:
                return rename_variables(grid, mapping)
            return tuple(walk(entry, depth - 1) for entry in grid)

        return walk(self.components, self.rank)


class _FieldPlan(NamedTuple):
    """How a field evaluates: its constant components folded once, and each
    other component with the coordinates it depends on.

    Components are numbered in row-major order.  ``terms`` holds (expression,
    its coordinates' chart indices, their local index) for each component at
    ``positions``; ``grad_slots`` and ``hess_slots`` are the flat slots of
    the full gradient and Hessian that the terms' own jets fill, in order.
    """

    constant: np.ndarray
    positions: np.ndarray
    terms: tuple[tuple[ExpressionNode, np.ndarray, dict[str, int]], ...]
    grad_slots: np.ndarray
    hess_slots: np.ndarray

    @classmethod
    def build(cls, field: TensorField) -> "_FieldPlan":
        chart = field.chart
        n = chart.dim
        constant = np.zeros(int(np.prod(field.shape, dtype=int)))
        positions: list[int] = []
        terms = []
        grad_slots: list[int] = []
        hess_slots: list[int] = []
        for pos, idx in enumerate(np.ndindex(*field.shape)):
            node = field.component(idx)
            columns = sorted(chart.coord_index[name] for name in free_variables(node))
            if not columns:
                try:
                    constant[pos] = evaluate(node, (), {})
                    continue
                except EvaluationDomainError:
                    pass  # kept as a term, so that every evaluation raises as before
            positions.append(pos)
            terms.append((node, np.array(columns, dtype=np.intp), {chart.coords[c]: j for j, c in enumerate(columns)}))
            grad_slots.extend(pos * n + c for c in columns)
            hess_slots.extend((pos * n + a) * n + b for a in columns for b in columns)
        return cls(constant, np.array(positions, dtype=np.intp), tuple(terms),
                   np.array(grad_slots, dtype=np.intp), np.array(hess_slots, dtype=np.intp))


def _parse_grid(grid, rank: int, chart: Chart):
    if rank == 0:
        if isinstance(grid, str):
            return parse_expression(grid, chart.coords)
        if isinstance(grid, (int, float)):
            return Num(float(grid))
        return grid
    return [_parse_grid(entry, rank - 1, chart) for entry in grid]


def column_field(affinor: TensorField, j: int) -> TensorField:
    """The vector field ``affinor(e_j)`` (the j-th column) as a (1,0) field."""
    if (affinor.upper, affinor.lower) != (1, 1):
        raise ChartError("column_field takes a (1,1) affinor")
    return TensorField(affinor.chart, 1, 0, tuple(row[j] for row in affinor.components))


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactStructure:
    """A chart together with the four structure tensors (g, phi, xi, eta)."""

    name: str
    chart: Chart
    metric: TensorField
    phi: TensorField
    xi: TensorField
    eta: TensorField

    def __post_init__(self) -> None:
        expected = {
            "metric": (0, 2),
            "phi": (1, 1),
            "xi": (1, 0),
            "eta": (0, 1),
        }
        for attr, (up, low) in expected.items():
            tf: TensorField = getattr(self, attr)
            if (tf.upper, tf.lower) != (up, low):
                raise ChartError(f"{attr} must have valence {(up, low)}")
            if tf.chart != self.chart:
                raise ChartError(f"{attr} is defined over a different chart")

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def eta_scale(self) -> float:
        """Expected constant in ``eta = scale * dt`` on an adapted chart."""
        return 1.0

    def values_at(self, point):
        """Evaluate (g, phi, xi, eta) at a point."""
        return (
            self.metric.evaluate(point),
            self.phi.evaluate(point),
            self.xi.evaluate(point),
            self.eta.evaluate(point),
        )


@dataclass(frozen=True)
class CellDefinition(ContactStructure):
    """A 3-dimensional almost contact metric chart: the sewing building block."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.chart.dim != 3:
            raise ChartError(f"a cell is 3-dimensional, got dimension {self.chart.dim}")


# ---------------------------------------------------------------------------
# Seeded point sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSample:
    coords: tuple[float, ...]
    seed: int
    draw: int

    def array(self) -> np.ndarray:
        return np.asarray(self.coords)


DEFAULT_BOX = (-1.0, 1.0)
POSITIVE_BOX = (0.1, 2.1)
_MAX_REJECTIONS = 10_000


def sampling_box(chart: Chart, overrides: dict[str, tuple[float, float]] | None = None) -> list[tuple[float, float]]:
    """Per-coordinate sampling intervals.

    Defaults to [-1, 1]; a coordinate constrained by a bare ``name > 0``
    constraint is shifted to (0.1, 2.1).  ``overrides`` wins for its keys.
    """
    box = {name: DEFAULT_BOX for name in chart.coords}
    for c in chart.constraints:
        if isinstance(c.positive, Var):
            box[c.positive.name] = POSITIVE_BOX
    if overrides:
        for name, interval in overrides.items():
            if name not in box:
                raise ChartError(f"box override for unknown coordinate {name!r}")
            box[name] = interval
    return [box[name] for name in chart.coords]


def sample_points(
    chart: Chart,
    count: int,
    seed: int,
    box: dict[str, tuple[float, float]] | None = None,
) -> list[PointSample]:
    """Draw ``count`` in-domain points, deterministically for a fixed seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    intervals = sampling_box(chart, box)
    rng = np.random.default_rng(seed)
    samples: list[PointSample] = []
    draw = 0
    for _ in range(count):
        for _ in range(_MAX_REJECTIONS):
            point = tuple(float(rng.uniform(lo, hi)) for lo, hi in intervals)
            draw += 1
            if chart.satisfies(point):
                samples.append(PointSample(point, seed, draw - 1))
                break
        else:
            raise SamplingError(
                f"no in-domain point after {_MAX_REJECTIONS} draws; tighten the sampling box"
            )
    return samples


def sample_points_grouped(
    chart: Chart,
    groups: int,
    per_group: int,
    seed: int,
    box: dict[str, tuple[float, float]] | None = None,
) -> list[PointSample]:
    """Samples organised into groups sharing the adapted-coordinate value.

    Members of a group differ only in the non-adapted coordinates, which is
    what alignment checks along the structure form need.
    """
    if chart.adapted_index is None:
        raise ChartError("grouped sampling needs an adapted chart")
    if groups < 1 or per_group < 1:
        raise ValueError("groups and per_group must be >= 1")
    t_axis = chart.adapted_index
    intervals = sampling_box(chart, box)
    rng = np.random.default_rng(seed)
    samples: list[PointSample] = []
    draw = 0
    for _ in range(groups):
        t_value: float | None = None
        for _ in range(per_group):
            for _ in range(_MAX_REJECTIONS):
                point = [float(rng.uniform(lo, hi)) for lo, hi in intervals]
                draw += 1
                if t_value is not None:
                    point[t_axis] = t_value
                if chart.satisfies(point):
                    if t_value is None:
                        t_value = point[t_axis]
                    samples.append(PointSample(tuple(point), seed, draw - 1))
                    break
            else:
                raise SamplingError(
                    f"no in-domain point after {_MAX_REJECTIONS} draws; tighten the sampling box"
                )
    return samples


def nullity_samples(chart: Chart, count: int, seed: int) -> list[PointSample]:
    """The samples the nullity checks read from ``count`` and ``seed``.

    On an adapted chart these are 5 groups of ``max(2, count // 5)`` samples
    sharing the adapted value, the structure ``check_generalized`` needs;
    otherwise ``count`` plain draws.
    """
    if chart.adapted_index is None:
        return sample_points(chart, count, seed)
    return sample_points_grouped(chart, 5, max(2, count // 5), seed)


BATCH_BYTES = 128 * 1024


def batch_size(dim: int) -> int:
    """Samples per batch on a chart of dimension ``dim`` (see the module docstring)."""
    return max(1, BATCH_BYTES // (8 * dim**3))


def evaluate_batches(samples: Sequence[PointSample], dim: int, evaluate_stack: Callable):
    """Yield ``(batch, evaluate_stack(points))`` over ``samples`` in order, where
    ``points`` stacks the batch's coordinates as a (B, dim) array.

    When a batch leaves the domain of an expression, its samples are evaluated
    again one at a time, and the ``SampleEvaluationError`` names the first
    sample, in draw order, that fails.
    """
    size = batch_size(dim)
    for start in range(0, len(samples), size):
        batch = samples[start:start + size]
        points = np.array([s.coords for s in batch], dtype=float)
        try:
            result = evaluate_stack(points)
        except EvaluationDomainError:
            for row, sample in enumerate(batch):
                try:
                    evaluate_stack(points[row:row + 1])
                except EvaluationDomainError as exc:
                    raise SampleEvaluationError(sample, exc) from exc
            raise
        yield batch, result


# ---------------------------------------------------------------------------
# Checks and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"{status}  {self.name:<36} residual {self.residual:11.3e}  tol {self.tolerance:8.1e}{note}"


class Residual:
    """The largest magnitude of one residual over a sweep, and its verdict.

    This is the only place that holds the pass rule: a check passes when every
    value added was finite and the largest of them is within the tolerance.
    A NaN sticks once added, because under IEEE 754 every comparison with NaN
    is false and a plain running ``max`` would silently drop it.
    """

    __slots__ = ("name", "tolerance", "note", "value")

    def __init__(self, name: str, tolerance: float, note: str = ""):
        self.name = name
        self.tolerance = tolerance
        self.note = note
        self.value = 0.0

    def add(self, value) -> "Residual":
        """Fold in a scalar or an array (its largest absolute entry)."""
        if isinstance(value, np.ndarray):
            if not value.size:
                return self
            value = np.abs(value).max()
        value = abs(float(value))
        if not math.isnan(self.value) and (value > self.value or math.isnan(value)):
            self.value = value
        return self

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.tolerance

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.value, self.tolerance, self.passed, self.note)


@dataclass(frozen=True)
class ValidationReport:
    """Named checks over a sample sweep; richer reports add payload fields."""

    subject: str
    sample_count: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def format_table(self, header: str | None = None) -> str:
        """The header line (subject and sample count by default), then one indented line per check."""
        if header is None:
            header = f"{self.subject}  ({self.sample_count} samples)"
        return "\n".join([header] + ["  " + c.line() for c in self.checks])

    def check_dicts(self) -> list[dict]:
        """The checks as JSON-ready dictionaries."""
        return [asdict(c) for c in self.checks]


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------

def validate_structure(struct: ContactStructure, samples: Sequence[PointSample], tol: float) -> ValidationReport:
    """Check the structure axioms at every sample.

    Residuals reported (max over samples): ``phi^2 + Id - xi (x) eta``,
    ``|eta(xi) - 1|``, the metric compatibility defect
    ``phi^T g phi - g + eta (x) eta``, positive definiteness of g, and
    ``d eta``.  On an adapted chart, eta is additionally required to equal
    ``scale * dt`` componentwise.
    """
    if not samples:
        raise ValueError("samples must be non-empty")
    n = struct.dim
    phi2 = Residual("phi_square_identity", tol)
    eta_xi = Residual("eta_of_xi", tol)
    compat = Residual("metric_compatibility", tol)
    deta = Residual("eta_closed", tol)
    min_eig = math.inf
    cholesky_ok = True
    scale = struct.eta_scale
    t_axis = struct.chart.adapted_index
    if t_axis is not None:
        adapted = Residual("eta_adapted_component", tol, note=f"eta = {scale:g} * d{struct.chart.coords[t_axis]}")
        expected = np.zeros(n)
        expected[t_axis] = scale
    identity = np.eye(n)

    def fields(points):
        eta_vals, eta_grads = struct.eta.evaluate_with_grads(points)
        return struct.metric.evaluate(points), struct.phi.evaluate(points), struct.xi.evaluate(points), eta_vals, eta_grads

    for _, (g, p, xi, eta_vals, eta_grads) in evaluate_batches(samples, n, fields):
        phi2.add(p @ p + identity - xi[:, :, None] * eta_vals[:, None, :])
        eta_xi.add(np.einsum("pi,pi->p", eta_vals, xi) - 1.0)
        compat.add(np.swapaxes(p, 1, 2) @ g @ p - g + eta_vals[:, :, None] * eta_vals[:, None, :])
        deta.add(np.swapaxes(eta_grads, 1, 2) - eta_grads)  # (d eta)_{ij} = d_i eta_j - d_j eta_i
        # fmin skips a NaN eigenvalue as the running min did; Cholesky catches the NaN metric
        min_eig = min(min_eig, float(np.fmin.reduce(np.linalg.eigvalsh(g)[:, 0])))
        try:
            # LAPACK returns NaN factors for a NaN metric instead of failing
            cholesky_ok = cholesky_ok and bool(np.isfinite(np.linalg.cholesky(g)).all())
        except np.linalg.LinAlgError:
            cholesky_ok = False
        if t_axis is not None:
            adapted.add(eta_vals - expected)

    spd_ok = cholesky_ok and min_eig >= SPD_EIGENVALUE_FLOOR
    checks = [
        CheckResult("metric_positive_definite", max(0.0, SPD_EIGENVALUE_FLOOR - min_eig), 0.0, spd_ok,
                    note=f"min eigenvalue {min_eig:.3e}"),
        phi2.result(),
        eta_xi.result(),
        compat.result(),
        deta.result(),
    ]
    if t_axis is not None:
        checks.append(adapted.result())
    return ValidationReport(struct.name, len(samples), tuple(checks))
