"""Charts, tensor fields as expression grids, and structure-axiom validation.

A chart is a single coordinate patch: ordered coordinate names, optional
strict-inequality domain constraints, and optionally a distinguished
coordinate ``t`` for which the structure form is ``scale * dt``.  Tensor
fields store one expression per component.  A field folds its constant
components once, on first evaluation, and compiles the others into one
program (``expressions.Program``), hash-consed per column set: a component's
jet is taken over the coordinates it depends on, and a subtree that several
components over one column set share is one instruction.  The program runs
once per point or stack of points and order, in the row-major order of the
components, so the first component to leave its domain raises.  The
gradients are scattered into the full grid, and the Hessians stay the sparse
entries of the components' own jets.  Outside a sweep a field is a pure
function: every call runs its program and returns read-only arrays.

A sample set is one ``Samples``: the coordinates (P, n) of its points and
their draw indices (P,), read-only; the samplers return one.  Sweeps over
samples go through ``evaluate_batches``, which hands consumers row slices of
the coordinates, and takes two sizes from one budget, ``BATCH_BYTES``.  A
layer batch holds as many samples as keep one (n, n, n) float array with a
sample axis (a metric gradient, the Christoffel symbols, nabla phi, the
brackets of an affinor's columns, the curvature along one vector) within the
budget, on a chart of dimension n, and one sample where even one such array
exceeds it; a sweep whose layers work in a star layout (below) counts the
layout's largest array of a sample instead, K (w, w, w) arrays.  No sweep
builds an (n, n, n, n) array: the curvature reads the sparse Hessians only
through their contractions with a vector
(``TensorField.fold_hessians``), whose arrays hold two entries per Hessian
entry, and the batches of a sweep that folds a field's Hessians count those
entries too (they outgrow n^3 where components read most coordinates).
Every sweep names the fields it reads, each with its jet order (a field read
at order 2 is one whose Hessians it folds) and the columns of the samples it
is read at, or several sets of columns: the field is then read at all of
them, stacked sample by sample (``stack_columns``), and a batch counts those
stacked rows against the budget.  A program chunk holds as many
whole batches as keep the compact jets of those fields, the values, gradient
entries and at order 2 Hessian entries of their non-constant components,
within the budget.  Each field's program runs once per chunk, since a run
costs about as much on a few rows as on a hundred.  From before the
consumer runs on a batch until the sweep moves on, each read of the sweep
binds its field to the batch's rows of that run, as a compact jet: a call
at an equal stack (its shape and bytes) for no higher order reads it
without a run, laid out in the full grid or in the layout the call names,
once per layout, so the layers of one batch share one run and one layout.
A field read at several column sets has a binding for each.  The sweep is
the only code that binds a field, and no binding outlives the sweep,
however it ends.
Each batch of a chunk whose run leaves a domain is left to the consumer, so
a domain error names the same sample and expression as batch by batch.
Nothing with a sample axis grows beyond the budget, whatever the sample
count.

A structure's ``layout`` (``layouts.star_layout``) gives the coordinate
sets its first-order geometry runs on, proved from the field plans
(``TensorField.nonzero_entries``): on the sewn chart of copies of a cell,
s and one block per copy, every block of one size.  In a star layout a
field's values and gradients are laid out per set "hub plus one block",
(P, K, w, ...), once per batch for the axioms, the layers, the curvature
and the fits alike, a metric's Hessians fold per set
(``TensorField.fold_hessians``), and no (n, n, n) array is built; every
other chart is one set, the full grid.

``validate_structure`` sweeps a sample set for the structure axioms: it
takes the order-1 jets of the four structure fields on each batch, in the
layout of the sweep, folds the axiom residuals from them
(``StructureAxioms``), and hands the batch to the derivative layers of its
caller (``geometry.verify_layers`` or ``geometry.reeb_layer``, both in
the structure's layout), which read the same laid-out jets.  The ``nullity``
sweep (``nullity.classify_and_fit``) folds the same ``StructureAxioms``
next to its curvature layers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .expressions import (
    FUNCTIONS,
    BinOp,
    EvaluationDomainError,
    ExpressionNode,
    Num,
    Program,
    Var,
    evaluate,
    evaluate_jet2,
    free_variables,
    parse_expression,
    rename_variables,
    to_source,
)
from .layouts import Layout, star_layout

SPD_EIGENVALUE_FLOOR = 1e-10


class ChartError(ValueError):
    """Inconsistent chart or tensor declaration."""


class SamplingError(RuntimeError):
    """Rejection sampling failed to hit the declared domain."""


class SampleEvaluationError(RuntimeError):
    """Evaluation failed at a specific sample; carries its coordinates, a
    tuple of floats, and its draw index."""

    def __init__(self, coords: tuple[float, ...], draw: int, cause: Exception):
        super().__init__(f"evaluation failed at sample {coords}: {cause}")
        self.coords = coords
        self.draw = draw
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

    @cached_property
    def _constraint_programs(self) -> tuple[Program, ...]:
        """Each constraint as a program of one root over every coordinate,
        compiled on first use: the samplers test many stacks."""
        return tuple(Program([(c.positive, 0)], [(range(self.dim), self.coord_index)]) for c in self.constraints)

    def inside(self, points: np.ndarray) -> np.ndarray:
        """Whether each row of a stack (P, n) meets every constraint, as a
        (P,) mask.  A constraint is tested on the whole stack at once, and row
        by row where the stack leaves its domain."""
        mask = np.ones(len(points), dtype=bool)
        for c, program in zip(self.constraints, self._constraint_programs):
            try:
                mask &= evaluate(program, points)[:, 0] > 0.0
            except EvaluationDomainError:
                mask &= np.array([c.holds(row, self.coord_index) for row in points], dtype=bool)
        return mask


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

    @cached_property
    def _scatters(self) -> dict:
        """The ``Layout.scatter`` of each star layout the field was laid out in."""
        return {}

    @cached_property
    def _folds(self) -> dict:
        """The ``Layout.fold`` of each layout the field's Hessians were folded in."""
        return {}

    @cached_property
    def nonzero_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries that are not structurally zero, read off the field
        plan: the multi-indices (E, rank) of the components that are not the
        literal zero (a constant component that folds to 0.0), and the
        (G, rank + 1) indices of the gradient entries of the components that
        are not constant, the coordinate of the derivative last.  Every other
        value and gradient entry is 0.0 at every point."""
        plan = self._plan
        nonzero = plan.constant != 0.0
        nonzero[plan.positions] = True
        return (np.array(np.unravel_index(np.flatnonzero(nonzero), self.shape), dtype=np.intp).T,
                np.array(np.unravel_index(plan.grad_slots, self.shape + (self.chart.dim,)), dtype=np.intp).T)

    def evaluate(self, point, layout: "Layout | None" = None) -> np.ndarray:
        """Component values at a point (n,), or at each point of a stack (P, n)
        with a leading P axis; in the sets of ``layout`` when given (see
        ``evaluate_with_jets``)."""
        return self._jet(point, 0, layout)[0]

    def evaluate_with_grads(self, point, layout: "Layout | None" = None):
        """``evaluate_with_jets`` without the Hessians."""
        return self.evaluate_with_jets(point, False, layout)

    def evaluate_with_jets(self, point, hessians: bool = True, layout: "Layout | None" = None):
        """Values, ``grads[..., l] = d_l`` of each component and, unless
        ``hessians`` is false, the Hessian entries that the components' own
        jets give: ``hess[..., :]`` lays end to end, component after component,
        the (m, m) Hessian over the m coordinates that component reads.  The
        field's plan keeps their slots in the grid ``shape + (n, n)``, which
        is zero at every other slot.  At a stack (P, n) each has a leading P
        axis.

        In a star ``layout`` (``layouts.Layout``, K sets of w coordinates), the
        values and gradients come in its sets instead of the full grid:
        ``vals[..., b, a1, .., ar]`` is the component at the coordinates
        ``layout.sets[b, a1], ..`` and ``grads[..., b, a1, .., ar, c]`` its
        derivative along ``sets[b, c]``.  A whole-chart layout is the full
        grid.  The Hessian entries are the same in every layout."""
        return self._jet(point, 2 if hessians else 1, layout)

    _memo: tuple = ()  # the bindings of a sweep, one per stack it reads the field at

    def _jet(self, point, order: int, layout: "Layout | None" = None) -> tuple:
        """The values, the gradients from order 1 on and the Hessian entries at
        order 2, read-only and in ``layout``: laid out from the compact jet
        that a sweep bound for this stack where it serves, else from one run
        of the program (see the module docstring)."""
        if layout is not None and not layout.hub:
            # a whole-chart layout is the full grid, laid out without a ``Layout.scatter`` plan, whose
            # build costs about 0.4 ms per command on a 3-dim cell (ROADMAP item 6)
            layout = None
        point = np.asarray(point, dtype=float)
        binding = self._bound(point, order) if self._memo else None
        if binding is None:
            return self._lay_out(layout, point.shape[:-1], order, self._run(point, order))
        jet = binding.jets.get(layout)
        if jet is None:  # laid out whole, once per layout
            jet = binding.jets[layout] = self._lay_out(layout, point.shape[:-1], binding.order, binding.compact)
        return jet if len(jet) == order + 1 else jet[:order + 1]

    def _bound(self, point: np.ndarray, order: int) -> "_Binding | None":
        """The binding of a sweep for the stack ``point`` up to at least
        ``order``, if there is one."""
        data = None
        for binding in self._memo:
            if binding.order >= order and binding.shape == point.shape:
                data = point.tobytes() if data is None else data
                if binding.data == data:
                    return binding
        return None

    def _run(self, point, order: int) -> tuple:
        """The compact jet at a point or a stack: the program's values, and
        from order 1 on its gradient entries (``_FieldPlan.grad_slots``) and
        at order 2 its Hessian entries, each with the stack's leading axis;
        empty when every component is constant."""
        program = self._plan.program
        if not program.roots:
            return ()
        if not order:
            return (evaluate(program, point),)
        jet = evaluate_jet2(program, point, order=order)
        return (jet.value, jet.grad) + ((jet.hess,) if order == 2 else ())

    def _lay_out(self, layout: "Layout | None", lead: tuple, order: int, compact: tuple) -> tuple:
        """The read-only values, gradients and Hessian entries up to ``order``
        at a stack with the leading axes ``lead``, from its compact jet: in
        the full grid when ``layout`` is None, else in the sets of a star
        layout; the Hessian entries are the same in every layout."""
        if layout is None:
            plan = self._plan
            constant, shape, width = plan.constant, self.shape, self.chart.dim
            sources, slots = (None, None), (plan.positions, plan.grad_slots)
        else:
            scatter = self._scatters.get(layout)
            if scatter is None:
                scatter = self._scatters[layout] = layout.scatter(self)
            constant, shape, width, sources, slots = scatter
        vals = np.empty(lead + constant.shape)
        vals[...] = constant
        if compact:
            vals[..., slots[0]] = compact[0] if sources[0] is None else compact[0][..., sources[0]]
        result = (vals.reshape(lead + shape),)
        if order:
            grads = np.zeros(lead + (constant.size * width,))
            if compact:
                grads[..., slots[1]] = compact[1] if sources[1] is None else compact[1][..., sources[1]]
            result += (grads.reshape(lead + shape + (width,)),)
        if order == 2:
            result += (compact[2] if compact else np.zeros(lead + (0,)),)
        for array in result:
            array.flags.writeable = False
        return result

    def fold_hessians(self, hess: np.ndarray, v, layout: "Layout | None" = None):
        """The Hessian entries ``hess`` of ``evaluate_with_jets`` contracted with
        a vector ``v`` per point, for a rank-2 field: ``first[..., b, c, d] =
        v^a d_c d_d F_ab`` and ``along[..., a, b, d] = v^c d_c d_d F_ab``; in
        a star ``layout``, with ``v`` laid out in it (..., K, w), per set:
        ``first[..., s, b, c, d]`` over the coordinates of set s, and so
        ``along``.  One scatter-add over slots fixed by the field and the
        layout sums each entry's terms in the same order at a point and at a
        stack."""
        sources, weights, targets, shape = self._fold_plan(layout)
        lead = hess.shape[:-1]
        rows = math.prod(lead)
        size = math.prod(shape)
        weighted = np.asarray(v, dtype=float).reshape(rows, -1)[:, weights].reshape(rows, 2, -1)
        weighted *= (hess if sources is None else hess[..., sources]).reshape(rows, 1, -1)
        slots = (np.arange(rows)[:, None] * (2 * size) + targets).ravel()
        # float also when there is no entry, where bincount gives integer zeros
        folded = np.bincount(slots, weighted.ravel(), minlength=rows * 2 * size).astype(float, copy=False)
        first, along = folded.reshape((rows, 2) + shape).swapaxes(0, 1)
        return first.reshape(*lead, *shape), along.reshape(*lead, *shape)

    def _fold_plan(self, layout: "Layout | None") -> tuple:
        """(sources, weights, targets, shape) of ``fold_hessians`` in
        ``layout`` (the full grid when None): ``Layout.fold``, built once
        per layout."""
        layout = layout or Layout.whole(self.chart.dim)
        fold = self._folds.get(layout)
        if fold is None:
            fold = self._folds[layout] = (*layout.fold(self), layout.shape(3))
        return fold

    def renamed_grid(self, mapping: dict[str, str]):
        """The component grid with variables renamed (for lifting into blocks)."""

        def walk(grid, depth):
            if depth == 0:
                return rename_variables(grid, mapping)
            return tuple(walk(entry, depth - 1) for entry in grid)

        return walk(self.components, self.rank)


class _FieldPlan(NamedTuple):
    """How a field evaluates: its constant components folded once, and the
    other components, at ``positions`` in row-major order, as the roots of one
    program (``expressions.Program``).

    The roots are grouped by the set of chart coordinates they read, and a
    root's jet is taken over its group's coordinates only.  ``grad_slots`` and
    ``hess_slots`` are the flat slots of the full gradient and Hessian that
    the roots' own jets fill, in order.
    """

    constant: np.ndarray
    positions: np.ndarray
    program: Program
    grad_slots: np.ndarray
    hess_slots: np.ndarray

    def compact_width(self, order: int) -> int:
        """Floats per sample of the program's jet up to ``order``: the values,
        the gradient entries and the Hessian entries of its roots."""
        return sum(slots.size for slots in (self.positions, self.grad_slots, self.hess_slots)[:order + 1])

    @classmethod
    def build(cls, field: TensorField) -> "_FieldPlan":
        chart = field.chart
        n = chart.dim
        nodes = _flatten(field.components, field.rank)  # row-major
        constant = np.zeros(len(nodes))
        positions: list[int] = []
        groups: dict[tuple[int, ...], int] = {}
        roots = []
        grad_slots: list[int] = []
        hess_slots: list[int] = []
        walked: dict[int, tuple] = {}  # id of a distinct tree -> (its columns, its value when it is constant)
        for pos, node in enumerate(nodes):
            seen = walked.get(id(node))
            if seen is None:
                seen = walked[id(node)] = _walk(node, chart)
            columns, value = seen
            if value is not None:
                constant[pos] = value
                continue
            positions.append(pos)
            roots.append((node, groups.setdefault(columns, len(groups))))
            grad_slots.extend(pos * n + c for c in columns)
            hess_slots.extend((pos * n + a) * n + b for a in columns for b in columns)
        program = Program(roots, [(columns, {chart.coords[c]: j for j, c in enumerate(columns)})
                                  for columns in groups])
        return cls(constant, np.array(positions, dtype=np.intp), program,
                   np.array(grad_slots, dtype=np.intp), np.array(hess_slots, dtype=np.intp))


class _Binding:
    """A field's compact jet at the stack of shape ``shape`` and bytes
    ``data`` (see ``TensorField._run``), up to ``order``, and ``jets``, the
    jet laid out in each layout that a call read (see ``TensorField._jet``)."""

    __slots__ = ("shape", "data", "order", "compact", "jets")

    def __init__(self, shape: tuple, data: bytes, order: int, compact: tuple):
        self.shape, self.data, self.order, self.compact = shape, data, order, compact
        self.jets: dict = {}


def _flatten(grid, rank: int) -> list:
    """The trees of a component grid in row-major order."""
    for _ in range(rank - 1):
        grid = [entry for row in grid for entry in row]
    return list(grid) if rank else [grid]


def _walk(node: ExpressionNode, chart: Chart) -> tuple[tuple[int, ...], float | None]:
    """The sorted chart columns that ``node`` reads and, when it reads none
    and evaluates, its value; a constant that leaves its domain is None, so
    that it stays a root and every evaluation raises as before."""
    if isinstance(node, Num):
        return (), node.value
    columns = tuple(sorted(chart.coord_index[name] for name in free_variables(node)))
    if columns:
        return columns, None
    try:
        return (), evaluate(node, (), {})
    except EvaluationDomainError:
        return (), None


def _parse_grid(grid, rank: int, chart: Chart):
    if rank == 0:
        if isinstance(grid, str):
            return parse_expression(grid, chart.coords)
        if isinstance(grid, (int, float)):
            return Num(float(grid))
        return grid
    return [_parse_grid(entry, rank - 1, chart) for entry in grid]


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

    @cached_property
    def layout(self) -> "Layout":
        """The sets that the first-order geometry of the structure runs on
        (``layouts.star_layout``)."""
        return star_layout(self)


# ---------------------------------------------------------------------------
# Seeded point sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Samples:
    """A sample set: the coordinates ``coords`` (P, n) of its points and the
    draw index ``draws`` (P,) of each, both read-only.  ``len`` counts the
    samples, and indexing by a slice or an index array gives the samples at
    those rows."""

    coords: np.ndarray
    draws: np.ndarray
    __iter__ = None  # read by its columns, not sample by sample

    def __post_init__(self) -> None:
        self.coords.flags.writeable = self.draws.flags.writeable = False

    def __len__(self) -> int:
        return len(self.draws)

    def __getitem__(self, rows) -> "Samples":
        return Samples(self.coords[rows], self.draws[rows])


DEFAULT_BOX = (-1.0, 1.0)
POSITIVE_BOX = (0.1, 2.1)
_MAX_REJECTIONS = 10_000


def sampling_box(chart: Chart) -> list[tuple[float, float]]:
    """Per-coordinate sampling intervals.

    Defaults to [-1, 1]; a coordinate constrained by a bare ``name > 0``
    constraint is shifted to (0.1, 2.1).
    """
    box = {name: DEFAULT_BOX for name in chart.coords}
    for c in chart.constraints:
        if isinstance(c.positive, Var):
            box[c.positive.name] = POSITIVE_BOX
    return [box[name] for name in chart.coords]


def sample_points(chart: Chart, count: int, seed: int) -> Samples:
    """Draw ``count`` in-domain points, deterministically for a fixed seed.

    Candidates are drawn coordinate by coordinate, point after point, and
    the first ``count`` in the domain are kept with their draw index; the
    sampler gives up after ``_MAX_REJECTIONS`` misses in a row.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _draw_samples(chart, 1, count, seed, None)


def sample_points_grouped(chart: Chart, groups: int, per_group: int, seed: int) -> Samples:
    """Samples organised into groups sharing the adapted-coordinate value.

    Members of a group differ only in the non-adapted coordinates, which is
    what alignment checks along the structure form need.  Candidates are
    drawn as in ``sample_points``.  The first member of a group is the next
    candidate in the domain, and it fixes the group's adapted value; every
    later member is the next candidate in the domain once its adapted
    coordinate is replaced by that value.
    """
    if chart.adapted_index is None:
        raise ChartError("grouped sampling needs an adapted chart")
    if groups < 1 or per_group < 1:
        raise ValueError("groups and per_group must be >= 1")
    return _draw_samples(chart, groups, per_group, seed, chart.adapted_index)


def _draw_samples(chart: Chart, groups: int, per_group: int, seed: int, t_axis: int | None) -> Samples:
    """The samplers' one loop: ``groups`` groups of ``per_group`` members, the
    members of a group sharing the coordinate ``t_axis`` unless it is None.

    Candidates are drawn and tested in blocks sized from the hit rate so far,
    and what a block leaves over feeds the next member.  A block takes from
    the generator what as many single draws would, so the samples do not
    depend on the block sizes.  A member gives up after ``_MAX_REJECTIONS``
    misses in a row.
    """
    lo, hi = np.array(sampling_box(chart), dtype=float).T
    rng = np.random.default_rng(seed)
    count = groups * per_group
    points: list[list[float]] = []
    draws: list[int] = []
    block = np.empty((0, len(lo)))
    base = 0  # draw index of block[0]
    pos = 0   # the next unread row of block

    def hits(t_value: float | None) -> deque[int]:
        """The rows of the block from ``pos`` on that are in the domain once
        their coordinate ``t_axis`` is ``t_value`` (as drawn when it is None)."""
        candidates = block[pos:]
        if t_value is not None:
            candidates = candidates.copy()
            candidates[:, t_axis] = t_value
        return deque((pos + np.flatnonzero(chart.inside(candidates))).tolist())

    for _ in range(groups):
        t_value = None
        found = hits(t_value)
        for _ in range(per_group):
            run_start = base + pos
            while not found:
                drawn = base + len(block)
                if drawn - run_start >= _MAX_REJECTIONS:
                    break
                remaining = count - len(points)
                # the expected draws at the hit rate so far
                size = -(-remaining * drawn // len(points)) if points else (2 * drawn or remaining)
                block = rng.uniform(lo, hi, size=(min(size, _MAX_REJECTIONS), len(lo)))
                base, pos = drawn, 0
                found = hits(t_value)
            if not found or base + found[0] - run_start >= _MAX_REJECTIONS:
                raise SamplingError(
                    f"no in-domain point after {_MAX_REJECTIONS} draws in the sampling box"
                )
            row = found.popleft()
            point = block[row].tolist()
            pos = row + 1
            if t_value is not None:
                point[t_axis] = t_value
            elif t_axis is not None:
                t_value = point[t_axis]
                found = hits(t_value)  # the later members share the first one's value
            points.append(point)
            draws.append(base + row)
    return Samples(np.array(points, dtype=float), np.array(draws, dtype=np.intp))


def nullity_samples(chart: Chart, count: int, seed: int) -> Samples:
    """The samples the nullity checks read from ``count`` and ``seed``.

    On an adapted chart these are 5 groups of ``max(2, count // 5)`` samples
    sharing the adapted value, the structure ``check_generalized`` needs;
    otherwise ``count`` plain draws.
    """
    if chart.adapted_index is None:
        return sample_points(chart, count, seed)
    return sample_points_grouped(chart, 5, max(2, count // 5), seed)


BATCH_BYTES = 128 * 1024


def batch_size(dim: int, folds: Sequence[TensorField] = (), layout: Layout | None = None) -> int:
    """Samples per batch on a chart of dimension ``dim``, for a sweep that
    folds the Hessians of the fields ``folds`` and whose axioms and layers
    work in ``layout``: an (n, n, n) array per sample in the full grid (when
    None), ``layout.width`` floats in a star layout, or the fold of a field's
    Hessians in that layout where it is larger, two floats per entry and set
    that holds it (see the module docstring)."""
    layout = layout or Layout.whole(dim)
    width = max([layout.width] + [field._fold_plan(layout)[2].size for field in folds])
    return max(1, BATCH_BYTES // (8 * width))


def _column_sets(columns=None) -> int:
    """The rows per sample of a read at ``columns``: one for a slice or a
    list of columns, one per column set for an (s, m) array of them."""
    return len(columns) if np.ndim(columns) == 2 else 1


def stack_columns(points: np.ndarray, columns) -> np.ndarray:
    """The stack that a read at ``columns`` (see ``evaluate_batches``) takes
    from ``points`` (P, n): (P, m) for a slice or a list of m columns, and
    (P s, m) for an (s, m) array of column sets, the s rows of each sample
    after one another."""
    local = points[:, columns]
    return local.reshape(-1, local.shape[-1])


def chunk_size(size: int, fields: Sequence[tuple]) -> int:
    """Samples per program chunk of a sweep in batches of ``size`` that reads
    ``fields`` (see ``evaluate_batches``): as many whole batches as keep the
    compact jets of those fields, at every column set they read, within
    ``BATCH_BYTES``, and at least one."""
    width = sum(field._plan.compact_width(order) * _column_sets(*columns) for field, order, *columns in fields)
    return size * max(1, BATCH_BYTES // (8 * size * width)) if width else size


def evaluate_batches(samples: Samples, dim: int, evaluate_stack: Callable, fields: Sequence[tuple] = (),
                     layout: Layout | None = None):
    """Yield ``(batch, evaluate_stack(points))`` over ``samples`` in order, where
    ``batch`` is the batch's ``Samples`` and ``points`` its coordinates.

    ``fields`` names what the sweep reads: ``(field, order)`` for a field at
    the points, ``(field, order, columns)`` for one at their columns
    ``columns``, with the jet order read (0 values, 1 gradients, 2 Hessians).
    ``columns`` may also be an (s, m) array of s column sets, and the field is
    then read at all of them, stacked sample by sample (``stack_columns``).
    A batch has as many rows of dimension ``dim`` as ``batch_size(dim,
    folds, layout)`` allows for the fields ``folds`` read at order 2 and the
    layout the layers work in, counting s rows per sample for a read at s
    column sets.  The programs run once per chunk of ``chunk_size``
    samples, and from before ``evaluate_stack`` runs on a batch until the
    sweep moves on, each read is bound to the batch's rows of its run, as a
    compact jet that is laid out once per layout the consumer reads it in; a
    field read at several column sets has a binding for each.  When the
    sweep ends, however it ends, no field it read is bound.  When a chunk's
    run leaves the domain of an expression, each of its batches is left to
    the consumer, and when a batch leaves it, its samples are evaluated
    again one at a time, and the ``SampleEvaluationError`` names the first
    sample, in draw order, that fails.
    """
    reads = [(field, order, columns[0] if columns else slice(None)) for field, order, *columns in fields]
    sets = [_column_sets(columns) for _, _, columns in reads]
    size = max(1, batch_size(dim, [field for field, order, _ in reads if order == 2], layout) // max(sets, default=1))
    chunk = chunk_size(size, reads)
    for start in range(0, len(samples), chunk):
        points = samples.coords[start:start + chunk]
        try:
            jets = [field._run(stack_columns(points, columns), order) for field, order, columns in reads]
        except EvaluationDomainError:
            jets = []  # each batch is left to the consumer
        for offset in range(0, len(points), size):
            rows = slice(offset, offset + size)
            bound: dict[int, list] = {}  # id of a field -> [the field, its bindings]
            try:
                for (field, order, columns), count, compact in zip(reads, sets, jets):
                    local = stack_columns(points[rows], columns)
                    bound.setdefault(id(field), [field]).append(_Binding(
                        local.shape, local.tobytes(), order,
                        tuple(a[offset * count:(offset + size) * count] for a in compact)))
                for field, *bindings in bound.values():
                    object.__setattr__(field, "_memo", tuple(bindings))
                try:
                    result = evaluate_stack(points[rows])
                except EvaluationDomainError:
                    for row in range(offset, min(offset + size, len(points))):
                        try:
                            evaluate_stack(points[row:row + 1])
                        except EvaluationDomainError as exc:
                            raise SampleEvaluationError(tuple(points[row].tolist()), int(samples.draws[start + row]),
                                                        exc) from exc
                    raise
                yield samples[start + offset:start + offset + size], result
            finally:
                for field, *_ in bound.values():
                    object.__setattr__(field, "_memo", TensorField._memo)
        del jets  # before the next chunk runs


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
        return [dict(vars(c)) for c in self.checks]


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------

class StructureAxioms:
    """The residuals of the structure axioms over a sweep, folded in batch by
    batch (``add``) from the order-1 jets of ``reads``; ``report`` gives
    their checks (see ``validate_structure``).  The axioms read the jets in
    the structure's layout, as the layers do: (n, n) matrices per sample
    on the full grid, and (K, w, w) in a star layout, whose entries outside
    the sets are zero (``layouts.star_layout``), so that a batch lays each
    field out once."""

    def __init__(self, struct: ContactStructure, tol: float):
        self.struct, self.layout = struct, struct.layout
        # eta first, then g, phi and xi: the first field to leave its domain raises
        self.reads = [(field, 1) for field in (struct.eta, struct.metric, struct.phi, struct.xi)]
        self.residuals = tuple(Residual(name, tol) for name in
                               ("phi_square_identity", "eta_of_xi", "metric_compatibility", "eta_closed"))
        t_axis = struct.chart.adapted_index
        self.adapted = None
        if t_axis is not None:
            scale = struct.eta_scale
            note = f"eta = {scale:g} * d{struct.chart.coords[t_axis]}"
            self.adapted = Residual("eta_adapted_component", tol, note=note)
            self.expected = np.where(self.layout.sets == t_axis, scale, 0.0)
        self.min_eig = math.inf
        self.spd_ok = True

    def add(self, points: np.ndarray) -> bool:
        """Fold in the batch at ``points`` (P, n); whether the metric has been
        positive definite on every batch so far, which a Levi-Civita
        connection needs.  A batch with a non-finite metric entry fails that
        before any eigenvalue is taken."""
        struct = self.struct
        eta_vals, eta_grads = struct.eta._jet(points, 1, self.layout)
        g, p, xi = (field._jet(points, 1, self.layout)[0] for field in (struct.metric, struct.phi, struct.xi))
        phi2, eta_xi, compat, deta = self.residuals
        # a non-finite entry makes NaN residuals, which fail their checks without a warning
        with np.errstate(all="ignore"):
            # in place, so that a batch holds few matrices of the layout at once
            square = p @ p
            square += np.eye(p.shape[-1])
            square -= xi[..., :, None] * eta_vals[..., None, :]
            phi2.add(square)
            del square
            eta_xi.add(np.einsum("...i,...i->...", eta_vals, xi) - 1.0)
            defect = np.swapaxes(p, -1, -2) @ g @ p
            defect -= g
            defect += eta_vals[..., :, None] * eta_vals[..., None, :]
            compat.add(defect)
            del defect
            deta.add(np.swapaxes(eta_grads, -1, -2) - eta_grads)  # (d eta)_{ij} = d_i eta_j - d_j eta_i
            if self.adapted is not None:
                self.adapted.add(eta_vals - self.expected)
            if not np.isfinite(g).all():
                # no eigenvalue, which LAPACK may fail to find; the NaN sticks in min
                self.min_eig, self.spd_ok = math.nan, False
                return False
            self.min_eig = min(self.min_eig, float(np.linalg.eigvalsh(g)[..., 0].min()))
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                self.spd_ok = False
            self.spd_ok = self.spd_ok and self.min_eig >= SPD_EIGENVALUE_FLOOR
        return self.spd_ok

    def report(self, count: int) -> ValidationReport:
        """The checks over the ``count`` samples folded in."""
        checks = [CheckResult("metric_positive_definite", float(np.maximum(0.0, SPD_EIGENVALUE_FLOOR - self.min_eig)),
                              0.0, self.spd_ok, note=f"min eigenvalue {self.min_eig:.3e}")]
        checks += [r.result() for r in self.residuals]
        if self.adapted is not None:
            checks.append(self.adapted.result())
        return ValidationReport(self.struct.name, count, tuple(checks))


def validate_structure(struct: ContactStructure, samples: Samples, tol: float,
                       layers: Callable | None = None) -> ValidationReport:
    """Check the structure axioms at every sample.

    Residuals reported (max over samples): ``phi^2 + Id - xi (x) eta``,
    ``|eta(xi) - 1|``, the metric compatibility defect
    ``phi^T g phi - g + eta (x) eta``, positive definiteness of g, and
    ``d eta``.  On an adapted chart, eta is additionally required to equal
    ``scale * dt`` componentwise.

    This is a sweep over the samples that reads first derivatives: on each
    batch it takes the order-1 jets of g, phi, xi and eta, folds them into
    ``StructureAxioms`` and then calls ``layers``, if given, with the
    batch's stack, so that the derivative layers read the jets the sweep
    bound and each field's program runs once per chunk (see
    ``evaluate_batches``); the structure's layout, which the layers work
    in, sizes the batches, and the axioms read the jets in it too.
    ``layers`` runs only while every batch so far
    has had a positive definite metric: without one there is no
    Levi-Civita connection, and a caller drops what ``layers`` gathered when
    ``metric_positive_definite`` fails.  ``nullity.classify_and_fit`` folds
    the same axioms into its own sweep.
    """
    if not samples:
        raise ValueError("samples must be non-empty")
    axioms = StructureAxioms(struct, tol)
    with np.errstate(all="ignore"):
        for batch, metric_ok in evaluate_batches(samples, struct.dim, axioms.add, axioms.reads, struct.layout):
            if metric_ok and layers is not None:
                layers(batch.coords)
    return axioms.report(len(samples))
