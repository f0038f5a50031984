"""Fitting the curvature-of-xi decomposition and its constancy structure.

At a point, ``R(X, Y) xi`` is projected (in least squares over all coordinate
field pairs) onto the three-parameter family

    kappa (eta(Y) X - eta(X) Y) + mu (eta(Y) h X - eta(X) h Y)
        + mu' (eta(Y) h' X - eta(X) h' Y),

with ``h = 1/2 L_xi phi`` and ``h' = h phi``.  When ``h`` vanishes the mu/mu'
directions are meaningless, so only kappa is fitted and the pair is flagged
undetermined.

Every fit is made with the raw ``h'``.  The normalization ``h'/alpha`` of
almost alpha-Kenmotsu geometry (Dileo & Pastore, J. Geom. 93, 2009) spans the
same design column divided by alpha, so its fit is the raw one with ``mu'``
multiplied by alpha: ``normalized`` rescales a raw fit instead of refitting.

``fit_nullity`` takes one point or a stack of points and gives one
``NullityFits``: an array per fitted quantity, with a leading sample axis at
a stack.  It builds ``R(e_i, e_j) xi`` (``geometry.riemann`` along xi, on the
batch's ``geometry.connection`` when one is given), ``h`` and the design
matrices of every sample at once, in the structure's layout, and solves all
their least-squares problems with one batched SVD; a sample whose design or
curvature is not finite gets NaN constants instead of failing the stack.
The design has a row per pair i < j and component, but the rows of a pair
where eta_i and eta_j are both the constant zero of eta's field plan
vanish, so only the rows that eta reaches are solved (on a sewn chart the
2k pairs with s), and the other pairs' curvature adds to the residual norm
alone.  In a star layout (``layouts.star_layout``) every term lies in one
set "hub plus one block": a sample's design gathers, set by set, the rows
of the pairs (hub, a) of the set's block with the set's components, the
pairs within a block stay unreached, and a pair of two blocks, or a
component outside the set of its pair, is a structural zero on both sides.
The SVD cutoff still counts every row of the full design, so the rank
decisions are those of the full grid.  ``h`` and ``h'`` are kept per set,
(P, K, w, w).
``classify_and_fit`` is the one sweep that classifies a structure and fits
it over a sample set: in batches that the fold of the metric's Hessians
also fits, it runs the programs of g (order 2), phi and xi (order 1) and
eta (order 0, or 1 with the axioms) once per chunk of batches (see
``charts.evaluate_batches``), and on each batch it builds one connection,
which ``fit_nullity`` and ``geometry.classify_layers`` read with those
jets, in the structure's layout, whose sets and Hessian fold size the
batches; the Hessians are left out when nothing is fitted.  The
``nullity`` command runs it on the samples
of its structure, with the structure axioms (``charts.StructureAxioms``)
folded into the same sweep.  The theorem stage of ``sew``
(``sewing.verify_sewing_theorems``) runs it on the sewn samples, and on the
same samples at the sewn columns of the blocks of each cell definition,
which lines the cells' fits up row by row with the sewn ones.
``check_generalized`` groups the samples by their adapted column with one
stable sort and reduces the fits' columns group by group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .charts import (
    ChartError,
    ContactStructure,
    Residual,
    Samples,
    StructureAxioms,
    evaluate_batches,
    stack_columns,
)
from .geometry import Classification, classify, classify_layers, connection, h_tensor, riemann

H_DEGENERACY_THRESHOLD = 1e-8


class NullityFitError(RuntimeError):
    """Degenerate normal equations with a non-negligible h."""


@dataclass(frozen=True, eq=False)
class NullityFits:
    """The fitted constants at each sample of a stack, with the ``h`` and
    ``h'`` they multiply, in the structure's layout: every field leads with
    the sample axis, or has none at one point.  Indexing by rows gives the
    fits there."""

    kappa: np.ndarray
    mu: np.ndarray
    muprime: np.ndarray
    residual: np.ndarray
    h_norm: np.ndarray
    determinate_mu: np.ndarray
    # kept, though only the operator laws read them: taking them from ``h_tensor`` again cut the peak
    # memory but made the sweeps slower through the allocator (ROADMAP item 6)
    h: np.ndarray
    hprime: np.ndarray

    def __getitem__(self, rows) -> "NullityFits":
        return NullityFits(*(array[rows] for array in vars(self).values()))

    @staticmethod
    def concatenate(parts: Sequence["NullityFits"]) -> "NullityFits":
        """The fits of ``parts`` one after another."""
        return NullityFits(*map(np.concatenate, zip(*(vars(part).values() for part in parts))))


def fit_nullity(struct: ContactStructure, point, connection=None) -> NullityFits:
    """Least-squares (kappa, mu, mu') at a point (n,) or at each point of a
    stack (P, n); see the module docstring.  ``connection``, when given,
    must be ``geometry.connection(struct.metric, point, struct.layout)``,
    the connection in the structure's layout, and spares building it
    again."""
    point = np.asarray(point, dtype=float)
    if point.ndim == 1:
        lifted = None if connection is None else tuple(array[None] for array in connection)
        return _fit_stack(struct, point[None], lifted)[0]
    return _fit_stack(struct, point, connection)


def classify_and_fit(struct: ContactStructure, samples: Samples, tol: float, fit: bool,
                     laws: Sequence[Residual] = (), columns=None,
                     axioms: StructureAxioms | None = None) -> list[tuple[Classification, NullityFits | None]]:
    """The classification and, when ``fit``, the nullity fits of ``struct``
    at ``samples``, from one sweep (see the module docstring): one
    (classification, fits), or one per column set of an (s, m) array
    ``columns``, at which the structure is read, stacked sample by sample
    (``charts.stack_columns``).  Set j gets the rows j::s of the stack: the
    layers and the fits are per sample.  Each batch's fits are folded into
    ``laws`` (``_add_operator_laws``) with the values of g, phi and xi
    there, which no later batch keeps.  With ``axioms``, the sweep first
    folds each batch into them, and the layers and the fits run only while
    the metric has been positive definite on every batch so far; where it
    has not, there is no connection and the result is empty."""
    sets = 1 if columns is None else len(columns)
    columns = slice(None) if columns is None else columns

    layout = struct.layout

    def batch(points):
        local = stack_columns(points, columns)
        if axioms is not None and not axioms.add(local):
            return None
        shared = connection(struct.metric, local, layout)
        fits = fit_nullity(struct, local, connection=shared) if fit else None
        layers = classify_layers(struct, local, connection=shared)
        if laws:
            g, phi, xi = (field.evaluate(local, layout) for field in (struct.metric, struct.phi, struct.xi))
            _add_operator_laws(laws, g, phi, xi, fits)
        return layers, fits

    # the layers and the fits read eta's values; the axioms read d eta too
    reads = [(struct.metric, 2 if fit else 1, columns), (struct.phi, 1, columns), (struct.xi, 1, columns),
             (struct.eta, 0 if axioms is None else 1, columns)]
    swept = [out for _, out in evaluate_batches(samples, struct.dim, batch, reads, layout)]
    if any(out is None for out in swept):
        return []
    layers = [np.concatenate(column) for column in zip(*(batch_layers for batch_layers, _ in swept))]
    fits = NullityFits.concatenate([batch_fits for _, batch_fits in swept]) if fit else None
    return [(classify(struct, tol, [column[j::sets] for column in layers]), fits[j::sets] if fit else None)
            for j in range(sets)]


OPERATOR_LAWS = (
    "operators_g_symmetric",
    "P_commutes_with_phi",
    "H_anticommutes_with_phi",
    "P_commutes_with_H",
    "operators_kill_xi",
)


def _add_operator_laws(laws, g: np.ndarray, phi: np.ndarray, xi: np.ndarray, fits: NullityFits) -> None:
    """Fold a batch of samples into the residuals named by ``OPERATOR_LAWS``,
    from the stacked values of g, phi and xi there and the batch's fits, in
    the structure's layout: per set of a star layout, where every operator
    below vanishes off the sets, and its products with g, phi and xi too.

    The operators are ``P = -kappa phi^2``, ``H1 = mu h`` and ``H2 = mu' h'``.
    """
    symmetric, p_phi, h_phi, p_h, kills_xi = laws

    def times(constants: np.ndarray, op: np.ndarray) -> np.ndarray:
        return constants.reshape((-1,) + (1,) * (op.ndim - 1)) * op

    p_op = times(-fits.kappa, phi @ phi)
    h_ops = (times(fits.mu, fits.h), times(fits.muprime, fits.hprime))
    for op in (p_op,) + h_ops:
        g_op = g @ op
        symmetric.add(g_op - np.swapaxes(g_op, -1, -2))
        kills_xi.add(op @ xi[..., None])
    p_phi.add(p_op @ phi - phi @ p_op)
    for h_op in h_ops:
        h_phi.add(h_op @ phi + phi @ h_op)
        p_h.add(p_op @ h_op - h_op @ p_op)


def normalized(fits: NullityFits, alpha: float) -> NullityFits:
    """The fits against ``h'/alpha`` instead of ``h'``: the same least-squares
    problems with the third column divided by alpha, so ``mu'`` scales by
    alpha and kappa, mu and the residual stay."""
    if not alpha:
        raise ValueError("the normalized h' needs a nonzero alpha")
    return replace(fits, muprime=alpha * fits.muprime, hprime=fits.hprime / alpha)


def _fit_stack(struct: ContactStructure, points: np.ndarray, connection=None) -> NullityFits:
    layout = struct.layout
    n = struct.dim
    (i, j), (zero_i, zero_j) = _eta_pairs(struct.eta, layout)
    # xi's values from the order-1 jet that h_tensor reads below; its gradients are only (n, n) per sample
    xi = struct.xi.evaluate_with_grads(points, layout=layout)[0]
    # rv[p, (b,) l, a, c] = (R(e_a, e_c) xi)^l, freed here: rxi holds the pairs that eta reaches, unreached the
    # others of the sets; on a star layout a pair of two blocks is a structural zero and is in no set
    rv = riemann(struct.metric, points, xi, connection=connection, layout=layout)[1]
    rxi = rv[..., i, j]
    unreached = rv[..., zero_i, zero_j].reshape(len(points), -1)
    del rv
    eta = struct.eta.evaluate(points, layout=layout)
    tensors = h_tensor(struct, points)
    h, hp = tensors.h, tensors.hprime
    h_norms = np.abs(h).max(axis=tuple(range(1, h.ndim)))

    # one row per set, pair i < j of it and component l, set- and pair-major: the l-th component of
    # R(e_i, e_j) xi against that of each basis vector

    def flat(v: np.ndarray) -> np.ndarray:
        """``v[p, (b,) l, pair]`` as the rows of the design."""
        return np.swapaxes(v, -1, -2).reshape(len(points), -1)

    def column(op: np.ndarray) -> np.ndarray:
        """``eta(e_j) op(e_i) - eta(e_i) op(e_j)`` for every pair."""
        return flat(eta[..., None, j] * op[..., i] - eta[..., None, i] * op[..., j])

    b = flat(rxi)
    design = np.stack([column(np.broadcast_to(np.eye(h.shape[-1]), h.shape)), column(h), column(hp)], axis=-1)
    # the cutoff counts the rows of the design of every pair on the full grid, so that no rank moves
    kappa, mu, muprime, residual = _solve_stack(design, b, h_norms, unreached, n * n * (n - 1) // 2).T
    return NullityFits(kappa, mu, muprime, residual, h_norms, ~(h_norms <= H_DEGENERACY_THRESHOLD), h, hp)


def _eta_pairs(eta, layout=None) -> tuple:
    """The pairs i < j of coordinates of a set of ``layout`` (the whole
    chart when None) where eta_i or eta_j is not the literal zero
    (``TensorField.nonzero_entries``), as two index arrays into the set,
    and the other pairs of the set: the design rows of those vanish at
    every sample.  Every set of a star layout has the same pairs, since eta
    lies on the hub alone (``layouts.star_layout``)."""
    nonzero = np.zeros(eta.chart.dim, dtype=bool)
    nonzero[eta.nonzero_entries[0][:, 0]] = True
    if layout is not None:
        nonzero = nonzero[layout.sets[0]]
    i, j = np.triu_indices(len(nonzero), 1)
    reached = nonzero[i] | nonzero[j]
    return (i[reached], j[reached]), (i[~reached], j[~reached])


def _solve_stack(design: np.ndarray, b: np.ndarray, h_norms: np.ndarray,
                 unreached: np.ndarray | None = None, rows: int | None = None) -> np.ndarray:
    """``[p] = (kappa, mu, mu', residual)``: the least-squares fit of ``b[p]``
    against the columns of ``design[p]``, all samples in one batched SVD.

    The whole design may have further rows that are zero, with the
    right-hand sides ``unreached[p]``: they only add to the residual norm;
    and rows that are zero on both sides, which change nothing.  The
    solution is ``V S^+ U^T b`` over the singular values above the default
    cutoff of ``np.linalg.lstsq`` on the whole design,
    ``eps max(rows, 3) s_max`` with ``rows`` counting every row of it (by
    default those of ``design`` and ``unreached``), which also gives the
    rank.  Where ``|h|`` is at most
    ``H_DEGENERACY_THRESHOLD`` only kappa is fitted, from the first column,
    and mu = mu' = 0; where it is above and the rank is below 3,
    ``NullityFitError`` names the first such sample.  A sample with a
    non-finite entry in its design, in its ``b`` or in ``unreached`` is left
    out of the SVD, which would fail for the whole stack, and gets NaN
    throughout; its rows of ``design``, ``b`` and ``unreached`` are zeroed
    in place."""
    if unreached is None:
        unreached = np.zeros((len(b), 0))
    if rows is None:
        rows = design.shape[1] + unreached.shape[1]
    cols = design.shape[2]
    finite = np.isfinite(design).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(unreached).all(axis=1)
    design[~finite] = 0.0
    b[~finite] = 0.0
    unreached[~finite] = 0.0
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    kept = s > np.finfo(float).eps * max(rows, cols) * s[:, :1]
    rank = kept.sum(axis=1)
    determinate = ~(h_norms <= H_DEGENERACY_THRESHOLD)
    degenerate = np.flatnonzero(finite & determinate & (rank < cols))
    if degenerate.size:
        first = degenerate[0]
        raise NullityFitError(f"degenerate nullity fit (rank {rank[first]}) with |h| = {h_norms[first]:.3e}")
    ub = (np.swapaxes(u, 1, 2) @ b[:, :, None])[:, :, 0]
    del u  # as large as the design
    solution = (np.swapaxes(vt, 1, 2) @ np.divide(ub, s, out=np.zeros_like(ub), where=kept)[:, :, None])[:, :, 0]
    # kappa alone: the first column's projection, 0 where that column vanishes
    a_kappa = design[:, :, 0]
    denom = _dots(a_kappa, a_kappa)
    kappa_only = np.zeros_like(solution)
    np.divide(_dots(a_kappa, b), denom, out=kappa_only[:, 0], where=denom > 0.0)
    solution = np.where(determinate[:, None], solution, kappa_only)
    b -= (design @ solution[:, :, None])[:, :, 0]  # the residual vectors
    solved = np.concatenate([solution, np.sqrt(_dots(b, b) + _dots(unreached, unreached))[:, None]], axis=1)
    solved[~finite] = np.nan
    return solved


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``x`` with that of ``y``, summed as
    ``x[p] @ y[p]`` sums it."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class GeneralizedNullityReport:
    """Constancy flags of fits along and across the leaves of eta, and
    ``order``, the sample rows by ascending adapted value, in sample order
    within a value."""

    order: np.ndarray
    constant_kappa: bool
    constant_mu: bool
    constant_muprime: bool
    eta_aligned: bool
    kappa_spread: float
    group_spread_max: float


def check_generalized(struct: ContactStructure, samples: Samples, fits: NullityFits,
                      tol: float) -> GeneralizedNullityReport:
    """Group the fits at the samples by the shared adapted coordinate and test constancy.

    Row j of ``fits`` is the nullity fit at row j of ``samples``.
    ``eta_aligned`` is true when the fitted values agree within ``tol``
    inside every shared-coordinate group - the numerical form of
    ``d kappa ^ eta = 0``.  Needs at least 3 distinct shared values with at
    least 2 samples each.
    """
    t_axis = struct.chart.adapted_index
    if t_axis is None:
        raise ChartError("generalized-nullity checks need an adapted chart")
    if len(samples) != len(fits.kappa):
        raise ValueError(f"{len(samples)} samples and {len(fits.kappa)} fits")
    t = samples.coords[:, t_axis]
    order = np.argsort(t, kind="stable")
    groups = np.split(order, np.unique(t[order], return_index=True)[1][1:])
    rich = [members for members in groups if len(members) >= 2]
    if len(rich) < 3:
        raise ValueError(
            "insufficient sample structure: need >= 2 samples sharing each of >= 3 adapted values"
        )

    group_spread = Residual("eta_aligned", tol)
    for members in rich:
        determinate = fits.determinate_mu[members]
        for pick in (fits.kappa[members], fits.mu[members][determinate], fits.muprime[members][determinate]):
            group_spread.add(_spread(pick))

    kappa_spread, mu_spread, muprime_spread = (
        Residual(name, tol).add(_spread(values)) for name, values in
        (("kappa", fits.kappa), ("mu", fits.mu), ("muprime", fits.muprime))
    )
    return GeneralizedNullityReport(
        order=order,
        constant_kappa=kappa_spread.passed,
        constant_mu=mu_spread.passed,
        constant_muprime=muprime_spread.passed,
        eta_aligned=group_spread.passed,
        kappa_spread=kappa_spread.value,
        group_spread_max=group_spread.value,
    )


def _spread(values: np.ndarray) -> float:
    """``max - min``, NaN when any value is NaN (the builtins would skip it)."""
    return float(np.ptp(values)) if values.size else 0.0
