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
(the product splits block by block, each block carries the lifted cell
connection, and the distribution spanned by the affinor image and the median
is involutive), ``extrinsic_report`` (flat normal connection, Weingarten
operators kill the Reeb field, ambient curvature of the Reeb field restricts
to the intrinsic one), and ``verify_sewing_theorems`` (classification and
nullity transfer).

The product is a Riemannian product, and its f-structure is the direct sum of
the cells' structures.  ``block_structure`` proves the splitting exactly on
the expression trees: every off-block component of the metric and the
affinor, and every component of a framing or coframing field outside its own
block, is the literal zero, and every block component names only its block's
coordinates.  Each affinor axiom is then one per block, and cross-block
Christoffel symbols, curvature and brackets of fields with disjoint supports
vanish identically.  So none of ``verify_f_structure``, ``verify_lift_laws``
and ``extrinsic_report`` evaluates anything on the 3k-dimensional chart: a
product builds its diagonal blocks once, each block of its trees a field over
the block's three coordinates, and the stages evaluate those at the block
projections of their samples.  Only the sewn metric's own curvature, which
the curvature restriction is compared with, is (2k+1)-dimensional.

The frame of the diagonal is one constant matrix over the blocks' Reeb
fields: the median and the normal frame inside Ker f are the rows of
``frame_coefficients(k)`` applied to ``(xi_1, ..., xi_k)``.  Since ``xi_b``
vanishes outside block b, each of them is ``c[alpha, b] xi_b`` on block b,
and the stages read the frame from the block's own ``xi``.

Every stage runs over stacks of samples (``charts.evaluate_batches``), in
batches of its own chart's dimension: the block geometry and the Lie
brackets of a 3-dimensional block, the curvature along the Reeb field and
the nullity fits of the sewn chart, per set of its layout where it splits
(``layouts.star_layout``).  The four stages group the blocks by
definition with one rule (``ProductDefinition._groups``): two blocks are one
definition when their cells share a definition and their trees are equal
once each coordinate of the second is renamed to the first block's
coordinate at its position (``_same_block``), an exact check on the trees
like ``block_structure``.  Each stage sweeps its samples once and evaluates
the fields of each group's first block, or its cell, once per batch, at the
projections of all its blocks: a sweep read may name several column sets,
and the field is bound to the rows of all of them, stacked sample by
sample.  So ``sew --copies k`` builds and runs the plans of one block's
fields for any k, and a block whose trees differ from the others is a group
of its own.  The per-block terms of a sample (rank f and |xi_b|^2) are
summed in block order.  Each sweep names the fields it reads, with their jet
orders and column sets, so that each field's program runs once per chunk of
batches and the curvature sweeps' batches fit the Hessian fold too.  The
brackets of all pairs of a block's affinor-image fields come from one
``lie_bracket`` call on the block of the affinor.  The extrinsic stage
takes each product contraction as a product of two arrays, in a fixed
order, over the 3k rows of the blocks.  The extrinsic and the theorem stage
read the blocks at the sewn samples, whose columns ``sewn_columns`` gives
for each block.  The theorem stage classifies and fits the sewn chart in
one sweep, then each group's cell in one sweep over the same samples at the
sewn columns of all its blocks (``nullity.classify_and_fit``), so that the
cells' fits line up row by row with the sewn ones.  It keeps the fits as
columns (``nullity.NullityFits``) and reduces the transfer residuals and
the operator laws from them with array expressions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .charts import (
    CheckResult,
    Chart,
    Constraint,
    ContactStructure,
    Residual,
    Samples,
    TensorField,
    ValidationReport,
    evaluate_batches,
    sample_points,
    stack_columns,
)
from .expressions import BinOp, Call, ExpressionNode, Neg, Num, Var, free_variables, rename_variables
from .geometry import (
    ALMOST_ALPHA_KENMOTSU,
    ALMOST_COSYMPLECTIC,
    Classification,
    christoffel,
    exterior_derivative,
    lie_bracket,
    numeric_rank,
    riemann,
)
from .nullity import OPERATOR_LAWS, GeneralizedNullityReport, NullityFits, check_generalized, classify_and_fit

_ADAPTED_PROBE_TOL = 1e-12
_TANGENCY_TOL = 1e-10
_ZERO = Num(0.0)


class SewingError(ValueError):
    """Cells that cannot be lifted or sewn (non-adapted, wrong dimension, ...)."""


# ---------------------------------------------------------------------------
# Expression plumbing
# ---------------------------------------------------------------------------

def _scaled(node: ExpressionNode, factor: float) -> ExpressionNode:
    if node == _ZERO or factor == 1.0:
        return node
    return BinOp("*", Num(factor), node)


def _sum_nodes(nodes: Sequence[ExpressionNode]) -> ExpressionNode:
    return reduce(lambda a, b: BinOp("+", a, b), nodes)


def _product_names(cells: Sequence[ContactStructure]) -> list[dict[str, str]]:
    """Each cell's coordinate names on the product chart, one injective
    renaming: cell i's coordinate x becomes ``x{i}`` (x1, x2, ...), unless
    that name is another coordinate's too (x of cell 11 and x1 of cell 1
    both give x11).  Then each of those becomes ``x_{i}``, with another
    underscore while the name is taken.  So a name that no other coordinate
    would get keeps its bytes."""
    suffixed = [[f"{name}{i + 1}" for name in cell.chart.coords] for i, cell in enumerate(cells)]
    counts = Counter(name for names in suffixed for name in names)
    taken = set(counts)
    maps = []
    for i, (cell, names) in enumerate(zip(cells, suffixed)):
        mapping = dict(zip(cell.chart.coords, names))
        for name, renamed in mapping.items():
            if counts[renamed] > 1:
                separator = "_"
                while f"{name}{separator}{i + 1}" in taken:
                    separator += "_"
                mapping[name] = f"{name}{separator}{i + 1}"
                taken.add(mapping[name])
        maps.append(mapping)
    return maps


def _diagonal_names(cells: Sequence[ContactStructure]) -> list[dict[str, str]]:
    """The product names (``_product_names``) with every adapted coordinate
    renamed to s, which no product name is: each of those ends in a digit."""
    maps = _product_names(cells)
    for cell, mapping in zip(cells, maps):
        mapping[cell.chart.adapted_name] = "s"
    return maps


def _require_sewable(cells: Sequence[ContactStructure]) -> list[tuple[ContactStructure, np.ndarray]]:
    """Refuse cells that cannot be sewn, in order: each distinct cell is
    probed once, and the first failure names its cell.  Returns each
    distinct cell in order with its probe stack, three seeded samples, for
    the later probes."""
    if len(cells) < 2:
        raise SewingError(f"need at least 2 cells, got {len(cells)}")
    probes: dict[int, tuple[ContactStructure, np.ndarray]] = {}
    for cell in cells:
        if id(cell) in probes:
            continue
        if cell.dim != 3:
            raise SewingError(f"cell {cell.name!r} has dimension {cell.dim}, expected 3")
        if cell.chart.adapted_index is None:
            raise SewingError(f"cell {cell.name!r} has no adapted coordinate")
        probes[id(cell)] = cell, sample_points(cell.chart, 3, seed=0).coords
        _probe_adapted_unit(*probes[id(cell)])
    return list(probes.values())


def _probe_adapted_unit(cell: ContactStructure, points: np.ndarray) -> None:
    """The structure form must be exactly d(t) for the adapted coordinate,
    at the probe stack ``points``."""
    t_axis = cell.chart.adapted_index
    expected = np.zeros(cell.dim)
    expected[t_axis] = 1.0
    eta = cell.eta.evaluate(points)
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

    @cached_property
    def _split(self) -> tuple[CheckResult, list[_Block]]:
        """``block_structure``, and the diagonal blocks when it holds: built once,
        so that the product's stages share the blocks and their field plans."""
        structure = block_structure(self)
        if not structure.passed:
            return structure, []
        blocks = []
        for i, rows in enumerate(map(list, self.blocks)):
            chart = Chart(tuple(self.chart.coords[pos] for pos in rows))

            def restricted(field: TensorField) -> TensorField:
                def walk(grid, depth):
                    return grid if depth == 0 else tuple(walk(grid[pos], depth - 1) for pos in rows)
                return TensorField(chart, field.upper, field.lower, walk(field.components, field.rank))

            blocks.append(_Block(rows, *map(restricted, (self.metric, self.f, self.framing[i], self.coframing[i]))))
        return structure, blocks

    @cached_property
    def _groups(self) -> dict[int, list[int]]:
        """The blocks grouped by definition, in order, under the first block
        of each group (``SewingError`` when ``block_structure`` fails): a
        block joins the first group whose first block's cell shares its
        cell's definition (``_same_definition``) and whose trees agree with
        its own (``_same_block``).  Every stage of ``sew`` groups the blocks
        this way and evaluates the first block's fields, or its cell's, for
        the whole group."""
        blocks = _blocks(self)
        groups: dict[int, list[int]] = {}
        for b in range(len(blocks)):
            same = (a for a in groups if _same_definition(self.cells[a], self.cells[b])
                    and _same_block(blocks[a], blocks[b]))
            groups.setdefault(next(same, b), []).append(b)
        return groups


def build_product(cells: Sequence[ContactStructure]) -> ProductDefinition:
    """Lift the cells onto the product chart with block tensors."""
    _require_sewable(cells)
    k = len(cells)
    maps = _product_names(cells)
    names = [mapping[name] for cell, mapping in zip(cells, maps) for name in cell.chart.coords]
    chart = Chart(tuple(names), _collect_constraints(cells, maps), adapted_index=None)

    dim = 3 * k
    metric_grid = [[_ZERO] * dim for _ in range(dim)]
    f_grid = [[_ZERO] * dim for _ in range(dim)]
    framing: list[TensorField] = []
    coframing: list[TensorField] = []
    blocks: list[tuple[int, ...]] = []
    adapted_positions: list[int] = []
    for i, cell in enumerate(cells):
        base = 3 * i
        blocks.append(tuple(range(base, base + 3)))
        adapted_positions.append(base + cell.chart.adapted_index)
        mapping = maps[i]
        renamed_metric = cell.metric.renamed_grid(mapping)
        renamed_phi = cell.phi.renamed_grid(mapping)
        for a in range(3):
            for b in range(3):
                metric_grid[base + a][base + b] = renamed_metric[a][b]
                f_grid[base + a][base + b] = renamed_phi[a][b]
        xi_comps = [_ZERO] * dim
        eta_comps = [_ZERO] * dim
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


def _collect_constraints(cells, maps) -> tuple[Constraint, ...]:
    collected: list[Constraint] = []
    seen: set[str] = set()
    for cell, mapping in zip(cells, maps):
        for constraint in cell.chart.constraints:
            renamed = Constraint(rename_variables(constraint.positive, mapping))
            if renamed.source() not in seen:
                seen.add(renamed.source())
                collected.append(renamed)
    return tuple(collected)


# ---------------------------------------------------------------------------
# The block structure
# ---------------------------------------------------------------------------

def block_structure(product: ProductDefinition) -> CheckResult:
    """Exact check, on the expression trees, that the product splits into its blocks.

    Every component of the metric or the affinor that couples two blocks, and
    every component of a framing or coframing field outside its own block,
    must be the literal ``Num(0.0)``; every other component may name only the
    coordinates of its block.  The residual counts the components that break
    this, and the note names the first of them.
    """
    coords = product.chart.coords
    block_of = {pos: i for i, block in enumerate(product.blocks) for pos in block}
    names = [{coords[pos] for pos in block} for block in product.blocks]
    # (label, the two indices, tree, the block the component belongs to or None)
    entries = [(label, a, b, node, block_of[a] if block_of[a] == block_of[b] else None)
               for label, field in (("metric", product.metric), ("f", product.f))
               for a, row in enumerate(field.components) for b, node in enumerate(row)]
    entries += [(label, i, a, node, i if block_of[a] == i else None)
                for label, fields in (("framing", product.framing), ("coframing", product.coframing))
                for i, field in enumerate(fields) for a, node in enumerate(field.components)]
    broken = []
    for label, a, b, node, block in entries:
        if block is None:
            if node is not _ZERO and node != _ZERO:  # build_product shares one literal 0
                broken.append(f"{label}[{a}][{b}] couples blocks but is not the literal 0")
        elif outside := sorted(free_variables(node) - names[block]):
            broken.append(f"{label}[{a}][{b}] names {', '.join(outside)} outside block {block + 1}")
    note = f"{len(broken)} components: {broken[0]}" if broken else "exact, on the expression trees"
    return CheckResult("block_structure", float(len(broken)), 0.0, not broken, note=note)


class _Block(NamedTuple):
    """One diagonal block of the product: its product indices, and the
    product's own trees there as fields over the block's three coordinates
    (``xi`` and ``eta`` are the block's framing and coframing field).  The
    median and the normal frame are ``frame_coefficients`` times the blocks'
    ``xi``, so a block carries no field of its own for them."""

    rows: list[int]
    metric: TensorField
    f: TensorField
    xi: TensorField
    eta: TensorField


def _same_block(a: _Block, b: _Block) -> bool:
    """Whether block b has block a's definition: its trees are a's once each
    of its coordinates is renamed to a's coordinate at the same position,
    compared while both are walked, without a renamed copy."""
    mapping = dict(zip(b.metric.chart.coords, a.metric.chart.coords))

    def same(ours, theirs, depth: int) -> bool:
        if depth:
            return all(same(x, y, depth - 1) for x, y in zip(ours, theirs))
        return _same_tree(ours, theirs, mapping)

    return all(same(ours.components, theirs.components, ours.rank) for ours, theirs in zip(a[1:], b[1:]))


def _same_tree(ours: ExpressionNode, theirs: ExpressionNode, mapping: dict[str, str]) -> bool:
    """Whether ``theirs`` is ``ours`` once its variables are renamed by
    ``mapping`` (names absent from it stay, as in ``rename_variables``)."""
    if type(ours) is not type(theirs):
        return False
    if isinstance(theirs, Var):
        return mapping.get(theirs.name, theirs.name) == ours.name
    if isinstance(theirs, Num):
        return ours == theirs
    if isinstance(theirs, Neg):
        return _same_tree(ours.operand, theirs.operand, mapping)
    if isinstance(theirs, Call):
        return ours.func == theirs.func and _same_tree(ours.arg, theirs.arg, mapping)
    return (ours.op == theirs.op and _same_tree(ours.left, theirs.left, mapping)
            and _same_tree(ours.right, theirs.right, mapping))


def _stacked_rows(members: Sequence[int], coefficients: np.ndarray, samples: int) -> np.ndarray:
    """``coefficients[:, b]`` of the member block b of each row of a stack
    at the column sets of ``members`` (``charts.stack_columns``), as the rows
    of a (samples * len(members), len(coefficients)) array."""
    return np.tile(coefficients.T[list(members)], (samples, 1))


def _by_block(members: Sequence[Sequence[int]], stacks: Sequence[np.ndarray], k: int) -> np.ndarray:
    """[p, b, ...]: the rows of each group's stack, (samples * m, ...) for the
    m blocks of its ``members``, placed at their blocks b."""
    shape = stacks[0].shape[1:]
    samples = len(stacks[0]) // len(members[0])
    out = np.empty((samples, k) + shape)
    for blocks, stacked in zip(members, stacks):
        out[:, blocks] = stacked.reshape((samples, len(blocks)) + shape)
    return out


def frame_coefficients(k: int) -> np.ndarray:
    """The constant frame of the diagonal over the framing fields (the Helmert
    matrix): ``u_alpha = sum_b c[alpha, b] xi_b`` for ``c = frame_coefficients(k)``.

    Row 0 is the median ``(xi_1 + ... + xi_k)/sqrt(k)``; row l >= 1 is the
    l-th normal ``(xi_1 + ... + xi_l - l xi_{l+1})/sqrt(l(l+1))``.  The rows
    are orthonormal, and so is the frame, because the framing fields are.
    """
    c = np.zeros((k, k))
    c[0] = 1.0 / math.sqrt(k)
    for l in range(1, k):
        lead = 1.0 / math.sqrt(l * (l + 1))
        c[l, :l] = lead
        c[l, l] = -l * lead
    return c


def _blocks(product: ProductDefinition) -> list[_Block]:
    """The blocks of the product (``SewingError`` when ``block_structure`` fails)."""
    structure, blocks = product._split
    if not structure.passed:
        raise SewingError(f"the product does not split into its blocks: {structure.note}")
    return blocks


# ---------------------------------------------------------------------------
# Product verification
# ---------------------------------------------------------------------------

def verify_f_structure(product: ProductDefinition, samples: Samples, tol: float) -> ValidationReport:
    """Axioms of the product affinor: f^3 + f = 0, skewness, kernel = framing.

    The product is the direct sum of its blocks (``SewingError`` when
    ``block_structure`` fails), and framing and coframing fields of different
    blocks pair to zero identically.  So each axiom is checked on each block's
    trees at the block projections of the samples, the trees of one
    definition at the projections of all its blocks at once; per sample,
    rank f sums the block ranks, and |xi-bar|^2 = sum_b g_b(xi_b, xi_b)/k,
    since the median is ``xi_b/sqrt(k)`` on block b, both in block order.
    """
    k = product.cell_count
    blocks = _blocks(product)
    cubed = Residual("f_cubed_plus_f", tol)
    skew = Residual("f_metric_skew", tol)
    kernel_span = Residual("f_kills_framing", tol)
    framing = Residual("framing_orthonormal", tol)
    dual = Residual("coframing_duality", tol)
    closed = Residual("coframing_closed", tol)
    unit_median = Residual("median_unit_length", tol)
    ranks: list[int] = []
    groups = [(members, blocks[first], np.array([blocks[b].rows for b in members]))
              for first, members in product._groups.items()]

    def fields(points):
        parts = []
        for members, block, columns in groups:
            local = stack_columns(points, columns)
            parts.append((members, block.metric.evaluate(local), block.f.evaluate(local), block.xi.evaluate(local),
                          block.eta.evaluate(local), exterior_derivative(block.eta, local)))
        return parts

    reads = [(field, order, columns) for _, block, columns in groups
             for field, order in ((block.metric, 0), (block.f, 0), (block.xi, 0), (block.eta, 1))]
    for _, parts in evaluate_batches(samples, 3, fields, reads):
        block_ranks, lengths = [None] * k, [None] * k
        for members, g, f, xi, eta, d_eta in parts:
            cubed.add(f @ f @ f + f)
            skew.add(np.swapaxes(f, 1, 2) @ g + g @ f)
            kernel_span.add(f @ xi[:, :, None])
            length = np.einsum("pi,pij,pj->p", xi, g, xi)
            framing.add(length - 1.0)
            dual.add(np.einsum("pi,pi->p", eta, xi) - 1.0)
            closed.add(d_eta)
            # row p m + j of the stack is member j at sample p
            for b, rank, row in zip(members, numeric_rank(f).reshape(-1, len(members)).T,
                                    length.reshape(-1, len(members)).T):
                block_ranks[b], lengths[b] = rank, row
        unit_median.add(sum(lengths) / k - 1.0)
        ranks.extend(sum(block_ranks).tolist())
    rank_gaps = np.array(ranks) - 2 * k
    worst_rank = ranks[int(np.argmax(np.abs(rank_gaps)))]
    checks = (
        cubed.result(),
        skew.result(),
        kernel_span.result(),
        Residual("kernel_rank", 0.0, note=f"rank {worst_rank}, expected {2 * k} (kernel dimension {k})")
        .add(rank_gaps).result(),
        framing.result(),
        dual.result(),
        closed.result(),
        unit_median.result(),
    )
    return ValidationReport(f"f-structure of {len(product.cells)}-cell product", len(samples), checks)


def verify_lift_laws(
    product: ProductDefinition,
    samples: Samples,
    tol: float,
) -> ValidationReport:
    """The connection respects the block splitting, and the affinor image plus
    the median is involutive.

    The product must split into its blocks (``SewingError`` when
    ``block_structure`` fails), and that check comes first in the report.
    So the cross-block connection and curvature vanish identically, and
    each block's Christoffel symbols, computed from the product's trees,
    must equal the cell's own.  A bracket of two
    affinor-image fields, or of one with the median, is zero across blocks,
    so only the in-block pairs are taken; their components along the normal
    frame must vanish.  On block b the frame is the constant
    ``frame_coefficients`` column b times the block's ``xi``: the median is
    ``c[0, b] xi_b`` and ``g(., u_alpha) = c[alpha, b] g_b(., xi_b)``.  The
    blocks of one definition (``ProductDefinition._groups``) are evaluated
    together, with their cell, at the projections of all of them, with the
    column of each.
    """
    blocks = _blocks(product)
    cells = product.cells
    c = frame_coefficients(len(blocks))
    groups = [(members, blocks[first], cells[first], np.array([blocks[b].rows for b in members]))
              for first, members in product._groups.items()]
    upper = np.triu_indices(3, 1)  # the column pairs a < b of a block
    lift = Residual("lifted_covariant_derivative", tol)
    invol = Residual("image_median_involutive", tol)

    def parts(points):
        """Per group, the gap between the blocks' and the cell's connection,
        and ``g([X, Y], u)`` for every normal field u over the brackets of
        the blocks' affinor-image fields and of those with the median."""
        out = []
        for members, block, cell, columns in groups:
            local = stack_columns(points, columns)
            column = _stacked_rows(members, c, len(points))  # [row, alpha]: the frame column of its block
            gap = christoffel(block.metric, local) - christoffel(cell.metric, local)
            g_normal = (block.metric.evaluate(local) @ block.xi.evaluate(local)[:, :, None]) * column[:, None, 1:]
            images = lie_bracket(block.f, block.f, local)[:, :, upper[0], upper[1]]
            with_median = column[:, 0, None, None] * lie_bracket(block.f, block.xi, local)
            out.append((gap, [np.swapaxes(brackets, 1, 2) @ g_normal for brackets in (images, with_median)]))
        return out

    reads = [(field, 1, columns) for _, block, cell, columns in groups
             for field in (block.metric, cell.metric, block.f, block.xi)]
    for _, out in evaluate_batches(samples, 3, parts, reads):
        for gap, brackets in out:
            lift.add(gap)
            for part in brackets:
                invol.add(part)
    return ValidationReport(f"lift laws of {len(cells)}-cell product", len(samples),
                            (product._split[0], lift.result(), invol.result()))


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
    probes = _require_sewable(cells)
    k = len(cells)
    # each cell's non-adapted axes, at the positions 2i + 1 and 2i + 2 of the diagonal chart
    axes = [[a for a in range(3) if a != cell.chart.adapted_index] for cell in cells]
    positions = [dict(zip(free, (2 * i + 1, 2 * i + 2))) for i, free in enumerate(axes)]
    maps = _diagonal_names(cells)
    names = ("s",) + tuple(maps[i][cell.chart.coords[a]] for i, cell in enumerate(cells) for a in axes[i])
    chart = Chart(names, _collect_constraints(cells, maps), adapted_index=0)
    dim = 2 * k + 1

    _probe_diagonal_consistency(probes)

    metric_grid = [[_ZERO] * dim for _ in range(dim)]
    phi_grid = [[_ZERO] * dim for _ in range(dim)]
    xi_comps = [_ZERO] * dim
    scale = 1.0 / math.sqrt(k)
    ss_terms = []
    for i, cell in enumerate(cells):
        t = cell.chart.adapted_index
        mapping = maps[i]
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
    eta_comps = [_ZERO] * dim
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


def _probe_diagonal_consistency(probes: Sequence[tuple[ContactStructure, np.ndarray]]) -> None:
    """The median must be tangent to the diagonal and the affinor block-exact.

    On an adapted chart this means the distinguished component of the Reeb
    field is 1 and the distinguished row of the affinor vanishes.  Each
    distinct cell is probed in order at its stack (``_require_sewable``).
    """
    for cell, points in probes:
        t = cell.chart.adapted_index
        xi_t = cell.xi.evaluate(points)[:, t]
        if not Residual("xi", _TANGENCY_TOL).add(xi_t - 1.0).passed:
            raise SewingError(
                f"cell {cell.name!r}: median tangency fails (xi^t = {xi_t.tolist()!r} at the probes)"
            )
        if not Residual("phi", _TANGENCY_TOL).add(cell.phi.evaluate(points)[:, t]).passed:
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


def sewn_columns(product: ProductDefinition, sewn: SewnManifold) -> np.ndarray:
    """[b, j]: the sewn coordinate that coordinate j of block b equals on the
    diagonal, the column of the one 1 in its row of ``embedding_matrix``.
    A stage reads the fields of block b at the sewn samples' columns
    ``sewn_columns(product, sewn)[b]``, which is the block's projection."""
    return embedding_matrix(product, sewn)[np.array(product.blocks)].argmax(axis=-1)


# ---------------------------------------------------------------------------
# Extrinsic geometry of the sewn submanifold
# ---------------------------------------------------------------------------

class _BlockGeometry(NamedTuple):
    """The product at a stack of embedded samples, block by block: each array
    leads with the sample axis p and the block axis b, and holds the block's
    rows j of a product quantity, over the block's own columns a, m."""

    normal: np.ndarray        # [p, b, j, alpha]: the alpha-th normal field u_alpha
    g_normal: np.ndarray      # [p, b, j, alpha] = g(e_j, u_alpha)
    normal_grads: np.ndarray  # [p, b, alpha, j, a] = d_a u_alpha^j
    xi_bar: np.ndarray        # [p, b, j]: the median
    gamma: np.ndarray         # [p, b, j, a, m] = Gamma^j_am
    curvature_xi: np.ndarray  # [p, b, l, a, m] = (R-bar(e_a, e_m) xi-bar)^l

    def rows(self, rows: slice) -> "_BlockGeometry":
        return _BlockGeometry(*(array[rows] for array in self))


def extrinsic_report(
    product: ProductDefinition,
    sewn: SewnManifold,
    samples: Samples,
    tol: float,
) -> ValidationReport:
    """Normal frame, normal connection, Weingarten operators along the Reeb
    field and curvature restriction of ``sewn`` (the diagonal of ``product``)
    at samples of its chart.

    The product geometry is evaluated block by block, in batches of a
    3-dimensional chart, which needs ``block_structure`` to hold
    (``SewingError`` otherwise), and the blocks of one definition together,
    at the sewn columns of all of them (``sewn_columns``).  The median and
    the normal frame are the constant ``frame_coefficients`` c over the
    blocks' Reeb fields, so each block evaluates its ``xi`` with gradients
    once per batch: on block b, ``xi-bar = c[0, b] xi_b``,
    ``u_alpha = c[alpha, b] xi_b`` and ``d u_alpha = c[alpha, b] d xi_b``.  Inside each batch the sewn
    curvature along the Reeb field runs in batches of the sewn chart's full
    grid, per set of its layout (``geometry.riemann``), which vanishes off the sets
    (``layouts.star_layout``), and is scattered to the components of the
    pairs a < b; the product contractions compared with it are assembled
    there, an independent computation from the blocks of the product: a
    sum over the product index is a sum over the blocks b of their three
    rows j, one matrix axis of 3k rows.  Every contraction is a product of
    two arrays, taken in a fixed order.
    """
    blocks = _blocks(product)
    k = product.cell_count
    columns = sewn_columns(product, sewn)
    frame_rows = np.eye(sewn.chart.dim)[columns]  # [b, j, a]: the rows of E_a in block b
    e = frame_rows.reshape(3 * k, -1)  # [(b, j), a]
    e_block = frame_rows[:, None]  # broadcast over the rows l of the block
    upper = np.triu_indices(sewn.chart.dim, 1)  # the pairs a < b
    identity = np.eye(k - 1)
    c = frame_coefficients(k)
    groups = [(members, blocks[first]) for first, members in product._groups.items()]
    group_members = [members for members, _ in groups]

    frame = Residual("normal_frame_orthonormal", tol)
    perp = Residual("normal_frame_perpendicular", tol)
    dperp = Residual("normal_connection_flat", tol)
    weinxi = Residual("weingarten_kills_xi", tol)
    tangency = Residual("curvature_xi_tangent", tol)
    match = Residual("curvature_restriction_match", tol)

    def block_geometry(points):
        parts = []
        for members, block in groups:
            local = stack_columns(points, columns[members])
            column = _stacked_rows(members, c, len(points))  # [row, alpha]: the frame column of its block
            xi, xi_grads = block.xi.evaluate_with_grads(local)
            xi_bar = column[:, :1] * xi
            gamma, curvature_xi = riemann(block.metric, local, xi_bar)
            normal = xi[:, :, None] * column[:, None, 1:]
            parts.append(_BlockGeometry(
                normal=normal,
                g_normal=block.metric.evaluate(local) @ normal,
                normal_grads=column[:, 1:, None, None] * xi_grads[:, None],
                xi_bar=xi_bar,
                gamma=gamma,
                curvature_xi=curvature_xi,
            ))
        return _BlockGeometry(*(_by_block(group_members, stacks, k) for stacks in zip(*parts)))

    layout = sewn.layout
    sources, targets = _pair_slots(layout)

    def sewn_curvature(points):
        """(R(e_a, e_b) xi)^l of the sewn metric for the pairs a < b, from
        its sets: 0 where no set holds a, b and l."""
        curvature = riemann(sewn.metric, points, sewn.xi.evaluate(points, layout), layout=layout)[1]
        intrinsic = np.zeros((len(points), sewn.chart.dim, len(upper[0])))
        intrinsic.reshape(len(points), -1)[:, targets] = curvature.reshape(len(points), -1)[:, sources]
        return intrinsic

    block_reads = [(field, order, columns[members]) for members, block in groups
                   for field, order in ((block.xi, 1), (block.metric, 2))]
    sewn_reads = ((sewn.metric, 2), (sewn.xi, 0))
    for batch, geometry in evaluate_batches(samples, 3, block_geometry, block_reads):
        start = 0
        # batches of the full grid: the product contractions below hold (3k, n, n) floats per sample
        for sub, intrinsic in evaluate_batches(batch, sewn.chart.dim, sewn_curvature, sewn_reads):
            geo = geometry.rows(slice(start, start + len(sub)))
            start += len(sub)
            p = len(sub)
            normal = geo.normal.reshape(p, 3 * k, k - 1)  # [p, (b, j), alpha]
            g_normal = geo.g_normal.reshape(p, 3 * k, k - 1)

            def normal_components(vectors: np.ndarray) -> np.ndarray:
                """[p, alpha, c] = g(v_c, u_alpha) of the vectors ``vectors[p, (b, j), c]``."""
                return np.swapaxes(g_normal, 1, 2) @ vectors

            # [p, b, alpha, j, a] = (nabla_{e_a} u_alpha)^j, Gamma^j_am u_alpha^m summed first
            nabla_normal = geo.normal_grads + np.moveaxis(geo.gamma @ geo.normal[:, :, None], -1, 2)
            # [p, (b, j), alpha] = (nabla_xi-bar u_alpha)^j
            along_xi = (nabla_normal @ geo.xi_bar[:, :, None, :, None])[..., 0]
            along_xi = np.swapaxes(along_xi, 2, 3).reshape(p, 3 * k, k - 1)
            # [p, (b, j), pair] = (R-bar(E_a, E_b) xi-bar)^l for the pairs a < b
            ambient = (np.swapaxes(e_block, -1, -2) @ geo.curvature_xi @ e_block)[..., upper[0], upper[1]]
            ambient = ambient.reshape(p, 3 * k, -1)

            perp.add(e.T @ g_normal)
            frame.add(normal_components(normal) - identity)
            # [p, b, alpha, beta, a] = g(nabla_{e_a} u_alpha, u_beta) on block b, summed over its rows j
            along = np.swapaxes(geo.g_normal, -1, -2)[:, :, None] @ nabla_normal
            # [p, alpha, beta, c] = g(nabla_{E_c} u_alpha, u_beta), over the (b, a) of the diagonal's E_c
            dperp.add(along.transpose(0, 2, 3, 1, 4).reshape(p, k - 1, k - 1, 3 * k) @ e)
            # the tangential part of nabla_xi-bar u_alpha, which the Weingarten operators kill
            weinxi.add(along_xi - normal @ normal_components(along_xi))
            normal_part = normal @ normal_components(ambient)
            tangency.add(normal_part)
            match.add(ambient - normal_part - e @ intrinsic)

    checks = tuple(r.result() for r in (frame, perp, dperp, weinxi, tangency, match))
    return ValidationReport(sewn.name, len(samples), checks)


def _pair_slots(layout) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets): the flat slots of the curvature along a vector
    per set of ``layout``, ``[b, l, i, j]``, whose chart indices a, c of i
    and j have a < c, and the flat slots of (l, pair a < c) in the (n, pairs)
    array they fill.  No two sets hold one pair a < c, so each target is
    filled once."""
    n = layout.dim
    pair = np.zeros((n, n), dtype=np.intp)
    pair[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    sets = layout.sets
    comp, first, second = np.broadcast_arrays(sets[:, :, None, None], sets[:, None, :, None], sets[:, None, None, :])
    sources = np.flatnonzero(first < second)
    return sources, (comp * (n * (n - 1) // 2) + pair[first, second]).ravel()[sources]


# ---------------------------------------------------------------------------
# Classification and nullity transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConventionComparison:
    """Which h' normalization makes mu' scale by 1/k under sewing."""

    cell_count: int
    alpha_cell: float
    alpha_sewn: float
    muprime_ratio_raw: float
    muprime_ratio_normalized: float
    reproduces_inverse_k: str  # "kenmotsu", "raw" or "neither"


@dataclass(frozen=True)
class TheoremReport(ValidationReport):
    """The stage's checks and classifications; for cell copies also the
    grouping of the sewn fits and the convention comparison."""

    cell_classification: Classification
    sewn_classification: Classification
    generalized: GeneralizedNullityReport | None
    convention_comparison: ConventionComparison | None


def verify_sewing_theorems(
    product: ProductDefinition,
    sewn: SewnManifold,
    samples: Samples,
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
    Every sample is fitted once, in the raw convention; when cells and sewn
    structure are both almost alpha-Kenmotsu, the convention comparison reads
    the normalized h' convention off those fits: its mu' is alpha times the
    raw one (``nullity.normalized``).

    Each structure is swept once (``nullity.classify_and_fit``): the sewn
    chart in one sweep that classifies, fits and folds the operator laws
    batch by batch, then the cell of each group of blocks
    (``ProductDefinition._groups``) in one sweep over the same samples, read
    at the sewn columns of all the group's blocks (``sewn_columns``), which
    gives each block's fits row by row next to the sewn ones.  The sewn
    sweep runs first, so a domain error that both would meet is reported
    from the sewn structure.
    """
    cells = product.cells
    k = product.cell_count
    copies = all(_same_definition(cell, cells[0]) for cell in cells[1:])
    laws = tuple(Residual(name, tol) for name in OPERATOR_LAWS) if copies else ()

    ((sewn_class, sewn_fits),) = classify_and_fit(sewn, samples, tol, copies, laws)
    columns = sewn_columns(product, sewn)
    blocks: list = [None] * k
    for first, members in product._groups.items():
        for b, swept in zip(members, classify_and_fit(cells[first], samples, tol, copies, columns=columns[members])):
            blocks[b] = swept
    cell_class = blocks[0][0]
    agree = all(classification.kind == cell_class.kind for classification, _ in blocks[1:])
    cell_fits = [fits for _, fits in blocks]

    checks: list[CheckResult] = []
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
                      .add(sewn_class.weight_fit_residual_max).result())
    checks.append(Residual("sewn_weight_fit_residual", tol).add(sewn_class.weight_fit_residual_max).result())

    generalized: GeneralizedNullityReport | None = None
    comparison: ConventionComparison | None = None
    if copies:
        sqrt_k = math.sqrt(k)
        fit_residuals = Residual("nullity_fit_residuals", tol).add(sewn_fits.residual)
        kappa = Residual("kappa_transfer", tol, note=f"kappa -> kappa/{k}")
        mu = Residual("mu_transfer", tol, note=f"mu -> mu/sqrt({k}), raw convention")
        muprime = Residual("muprime_transfer", tol, note=f"mu' -> mu'/sqrt({k}), raw convention")
        for fits in cell_fits:
            fit_residuals.add(fits.residual)
            kappa.add(sewn_fits.kappa - fits.kappa / k)
            both = fits.determinate_mu & sewn_fits.determinate_mu
            mu.add((sewn_fits.mu - fits.mu / sqrt_k)[both])
            muprime.add((sewn_fits.muprime - fits.muprime / sqrt_k)[both])
        generalized = check_generalized(sewn, samples, sewn_fits, tol)
        checks.extend(r.result() for r in (fit_residuals, kappa, mu, muprime))
        checks.append(Residual("eta_aligned", tol).add(generalized.group_spread_max).result())
        checks.extend(r.result() for r in laws)
        if cell_class.kind == ALMOST_ALPHA_KENMOTSU and sewn_class.kind == ALMOST_ALPHA_KENMOTSU:
            comparison = _compare_conventions(sewn_fits, cell_fits[0], cell_class.alpha, sewn_class.alpha, k, tol)
    return TheoremReport(
        subject=sewn.name,
        sample_count=len(samples),
        checks=tuple(checks),
        cell_classification=cell_class,
        sewn_classification=sewn_class,
        generalized=generalized,
        convention_comparison=comparison,
    )


def _same_definition(a: ContactStructure, b: ContactStructure) -> bool:
    return (
        a.chart == b.chart
        and a.metric.components == b.metric.components
        and a.phi.components == b.phi.components
        and a.xi.components == b.xi.components
        and a.eta.components == b.eta.components
    )


def _compare_conventions(sewn_fits: NullityFits, cell_fits: NullityFits, alpha_cell, alpha_sewn, k, tol):
    """Mean mu' of the raw fits on the cells and on the sewn structure against
    that of their normalized rescalings.  The normalized mu' of a fit is
    ``alpha`` times its raw one, the product that ``nullity.normalized``
    takes, so no rescaled copy of the fits is built."""

    def mean_muprime(fits: NullityFits, alpha: float = 1.0) -> float:
        return float(np.mean(alpha * fits.muprime))

    cell_raw = mean_muprime(cell_fits)
    cell_norm = mean_muprime(cell_fits, alpha_cell)
    sewn_raw = mean_muprime(sewn_fits)
    sewn_norm = mean_muprime(sewn_fits, alpha_sewn)
    # the ratio is meaningless when the cells have mu' = 0 in the first place
    if abs(cell_raw) <= 1e-8 or abs(cell_norm) <= 1e-8:
        ratio_raw = ratio_norm = math.nan
        verdict = "indeterminate (mu' vanishes on the cells)"
    else:
        ratio_raw = sewn_raw / cell_raw
        ratio_norm = sewn_norm / cell_norm
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
        muprime_ratio_raw=ratio_raw,
        muprime_ratio_normalized=ratio_norm,
        reproduces_inverse_k=verdict,
    )
