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
a stack.  It builds ``R(e_i, e_j) xi`` (``geometry.riemann`` along xi),
``h`` and the design matrices of every sample at once, and solves all their
least-squares problems with one batched SVD; a sample whose design or
curvature is not finite gets NaN constants instead of failing the stack.
``nullity_fits`` feeds it a sample set in batches that the fold of the
metric's Hessians also fits, and runs the programs of g (order 2), phi and
xi (order 1) and eta (values) once per chunk of batches (see
``charts.evaluate_batches``), as does the theorem stage of ``sew``
(``sewing.verify_sewing_theorems``), which classifies on the same batches.
``check_generalized`` groups the samples by their adapted column with one
stable sort and reduces the fits' columns group by group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .charts import ChartError, ContactStructure, Residual, Samples, evaluate_batches
from .geometry import h_tensor, riemann

H_DEGENERACY_THRESHOLD = 1e-8


class NullityFitError(RuntimeError):
    """Degenerate normal equations with a non-negligible h."""


@dataclass(frozen=True, eq=False)
class NullityFits:
    """The fitted constants at each sample of a stack, with the ``h`` and
    ``h'`` they multiply: every field leads with the sample axis, or has none
    at one point.  Indexing by rows gives the fits there."""

    kappa: np.ndarray
    mu: np.ndarray
    muprime: np.ndarray
    residual: np.ndarray
    h_norm: np.ndarray
    determinate_mu: np.ndarray
    h: np.ndarray
    hprime: np.ndarray

    def __getitem__(self, rows) -> "NullityFits":
        return NullityFits(*(array[rows] for array in vars(self).values()))

    @staticmethod
    def concatenate(parts: Sequence["NullityFits"]) -> "NullityFits":
        """The fits of ``parts`` one after another."""
        return NullityFits(*map(np.concatenate, zip(*(vars(part).values() for part in parts))))


def fit_nullity(struct: ContactStructure, point) -> NullityFits:
    """Least-squares (kappa, mu, mu') at a point (n,) or at each point of a
    stack (P, n); see the module docstring."""
    point = np.asarray(point, dtype=float)
    if point.ndim == 1:
        return _fit_stack(struct, point[None])[0]
    return _fit_stack(struct, point)


def nullity_fits(struct: ContactStructure, samples: Samples) -> NullityFits:
    """``fit_nullity`` at every sample, in sample order, over batches."""
    reads = ((struct.metric, 2), (struct.phi, 1), (struct.xi, 1), (struct.eta, 0))
    batches = evaluate_batches(samples, struct.dim, lambda points: fit_nullity(struct, points), reads)
    return NullityFits.concatenate([fits for _, fits in batches])


def normalized(fits: NullityFits, alpha: float) -> NullityFits:
    """The fits against ``h'/alpha`` instead of ``h'``: the same least-squares
    problems with the third column divided by alpha, so ``mu'`` scales by
    alpha and kappa, mu and the residual stay."""
    if not alpha:
        raise ValueError("the normalized h' needs a nonzero alpha")
    return replace(fits, muprime=alpha * fits.muprime, hprime=fits.hprime / alpha)


def _fit_stack(struct: ContactStructure, points: np.ndarray) -> NullityFits:
    n = struct.dim
    i, j = np.triu_indices(n, 1)
    # xi's values from the order-1 jet that h_tensor reads below; its gradients are only (n, n) per sample
    xi = struct.xi.evaluate_with_grads(points)[0]
    # rxi[p, l, pair] = (R(e_i, e_j) xi)^l for the pairs i < j; the (n, n, n) curvature is freed here
    rxi = riemann(struct.metric, points, xi)[1][:, :, i, j]
    eta = struct.eta.evaluate(points)
    tensors = h_tensor(struct, points)
    h, hp = tensors.h, tensors.hprime
    h_norms = np.abs(h).max(axis=(-2, -1))

    # one row per pair i < j and component l, pair-major: the l-th component of
    # R(e_i, e_j) xi against that of each basis vector
    rows = len(i) * n

    def flat(v: np.ndarray) -> np.ndarray:
        """``v[p, l, pair]`` as the rows of the design."""
        return np.swapaxes(v, 1, 2).reshape(len(points), rows)

    def column(op: np.ndarray) -> np.ndarray:
        """``eta(e_j) op(e_i) - eta(e_i) op(e_j)`` for every pair."""
        return flat(eta[:, None, j] * op[:, :, i] - eta[:, None, i] * op[:, :, j])

    b = flat(rxi)
    design = np.stack([column(np.broadcast_to(np.eye(n), h.shape)), column(h), column(hp)], axis=-1)
    kappa, mu, muprime, residual = _solve_stack(design, b, h_norms).T
    return NullityFits(kappa, mu, muprime, residual, h_norms, ~(h_norms <= H_DEGENERACY_THRESHOLD), h, hp)


def _solve_stack(design: np.ndarray, b: np.ndarray, h_norms: np.ndarray) -> np.ndarray:
    """``[p] = (kappa, mu, mu', residual)``: the least-squares fit of ``b[p]``
    against the columns of ``design[p]``, all samples in one batched SVD.

    The solution is ``V S^+ U^T b`` over the singular values above the
    default cutoff of ``np.linalg.lstsq``, ``eps max(rows, 3) s_max``, which
    also gives the rank.  Where ``|h|`` is at most ``H_DEGENERACY_THRESHOLD``
    only kappa is fitted, from the first column, and mu = mu' = 0; where it
    is above and the rank is below 3, ``NullityFitError`` names the first
    such sample.  A sample with a non-finite entry in its design or in its
    ``b`` is left out of the SVD, which would fail for the whole stack, and
    gets NaN throughout; its rows of ``design`` and ``b`` are zeroed in place."""
    rows, cols = design.shape[1:]
    finite = np.isfinite(design).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    design[~finite] = 0.0
    b[~finite] = 0.0
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
    solved = np.concatenate([solution, np.sqrt(_dots(b, b))[:, None]], axis=1)
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
