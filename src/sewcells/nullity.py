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

``fit_nullity`` takes one point or a stack of points.  At a stack it builds
``R(e_i, e_j) xi`` (``geometry.riemann`` along xi), ``h`` and the design
matrices of every sample at once, and solves all their least-squares
problems with one batched SVD; a sample whose design or curvature is not
finite gets NaN constants instead of failing the stack.  ``nullity_fits``
feeds it a sample set in batches that the fold of the metric's Hessians also
fits, and runs the programs of g (order 2), phi and xi (order 1) and eta
(values) once per chunk of batches (see ``charts.evaluate_batches``), as
does the theorem stage of ``sew`` (``sewing.verify_sewing_theorems``),
which classifies on the same batches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .charts import ChartError, ContactStructure, PointSample, Residual, evaluate_batches
from .geometry import h_tensor, riemann

H_DEGENERACY_THRESHOLD = 1e-8


class NullityFitError(RuntimeError):
    """Degenerate normal equations with a non-negligible h."""


@dataclass(frozen=True, eq=False)
class NullityFit:
    """The fitted constants at one point, with the ``h`` and ``h'`` they multiply."""

    kappa: float
    mu: float
    muprime: float
    residual: float
    h_norm: float
    determinate_mu: bool
    h: np.ndarray
    hprime: np.ndarray


def fit_nullity(struct: ContactStructure, point):
    """Least-squares (kappa, mu, mu'): one ``NullityFit`` at a point (n,), a
    list of them, in row order, at a stack (P, n); see the module docstring."""
    point = np.asarray(point, dtype=float)
    if point.ndim == 1:
        return _fit_stack(struct, point[None])[0]
    return _fit_stack(struct, point)


def nullity_fits(struct: ContactStructure, samples: Sequence[PointSample]) -> list[NullityFit]:
    """``fit_nullity`` at every sample, in sample order, over batches."""
    reads = ((struct.metric, 2), (struct.phi, 1), (struct.xi, 1), (struct.eta, 0))
    batches = evaluate_batches(samples, struct.dim, lambda points: fit_nullity(struct, points), reads)
    return [fit for _, fits in batches for fit in fits]


def normalized(fit: NullityFit, alpha: float) -> NullityFit:
    """The fit against ``h'/alpha`` instead of ``h'``: the same least-squares
    problem with the third column divided by alpha, so ``mu'`` scales by alpha
    and kappa, mu and the residual stay."""
    if not alpha:
        raise ValueError("the normalized h' needs a nonzero alpha")
    return replace(fit, muprime=alpha * fit.muprime, hprime=fit.hprime / alpha)


def _fit_stack(struct: ContactStructure, points: np.ndarray) -> list[NullityFit]:
    n = struct.dim
    i, j = np.triu_indices(n, 1)
    # xi's order-1 jet, remembered for h_tensor below; its gradients are only (n, n) per sample
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
    return [NullityFit(*row, h_norm, not h_norm <= H_DEGENERACY_THRESHOLD, h[p], hp[p])
            for p, (row, h_norm) in enumerate(zip(_solve_stack(design, b, h_norms).tolist(), h_norms.tolist()))]


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


@dataclass(frozen=True)
class GeneralizedNullityReport:
    """Per-sample fits plus constancy flags along and across the leaves of eta."""

    samples: tuple[PointSample, ...]
    fits: tuple[NullityFit, ...]
    constant_kappa: bool
    constant_mu: bool
    constant_muprime: bool
    eta_aligned: bool
    kappa_spread: float
    group_spread_max: float


def check_generalized(
    struct: ContactStructure,
    samples: Sequence[PointSample],
    fits: Sequence[NullityFit],
    tol: float,
) -> GeneralizedNullityReport:
    """Group the fits at the samples by the shared adapted coordinate and test constancy.

    ``fits[j]`` is the nullity fit at ``samples[j]``.  ``eta_aligned`` is true
    when the fitted values agree within ``tol`` inside every shared-coordinate
    group - the numerical form of ``d kappa ^ eta = 0``.  Needs at least 3
    distinct shared values with at least 2 samples each.
    """
    t_axis = struct.chart.adapted_index
    if t_axis is None:
        raise ChartError("generalized-nullity checks need an adapted chart")
    groups: dict[float, list[tuple[PointSample, NullityFit]]] = {}
    for sample, fit in zip(samples, fits, strict=True):
        groups.setdefault(sample.coords[t_axis], []).append((sample, fit))
    rich = {t: members for t, members in groups.items() if len(members) >= 2}
    if len(rich) < 3:
        raise ValueError(
            "insufficient sample structure: need >= 2 samples sharing each of >= 3 adapted values"
        )

    group_spread = Residual("eta_aligned", tol)
    for members in rich.values():
        member_fits = [fit for _, fit in members]
        for pick in (
            [f.kappa for f in member_fits],
            [f.mu for f in member_fits if f.determinate_mu],
            [f.muprime for f in member_fits if f.determinate_mu],
        ):
            group_spread.add(_spread(pick))
    ordered = [pair for t in sorted(groups) for pair in groups[t]]

    kappa_spread, mu_spread, muprime_spread = (
        Residual(name, tol).add(_spread([getattr(f, name) for f in fits]))
        for name in ("kappa", "mu", "muprime")
    )
    return GeneralizedNullityReport(
        samples=tuple(sample for sample, _ in ordered),
        fits=tuple(fit for _, fit in ordered),
        constant_kappa=kappa_spread.passed,
        constant_mu=mu_spread.passed,
        constant_muprime=muprime_spread.passed,
        eta_aligned=group_spread.passed,
        kappa_spread=kappa_spread.value,
        group_spread_max=group_spread.value,
    )


def _spread(values: list[float]) -> float:
    """``max - min``, NaN when any value is NaN (the builtins would skip it)."""
    return float(np.ptp(values)) if values else 0.0
