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
matrices of every sample at once and runs only the least-squares solve per
sample; ``nullity_fits`` feeds it a sample set in batches that the fold of
the metric's Hessians also fits (see ``charts.evaluate_batches``).
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
    batches = evaluate_batches(samples, struct.dim, lambda points: fit_nullity(struct, points), (struct.metric,))
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
    xi = struct.xi.evaluate(points)
    rxi = riemann(struct.metric, points, xi)[1]  # rxi[p, l, i, j] = (R(e_i, e_j) xi)^l
    eta = struct.eta.evaluate(points)
    tensors = h_tensor(struct, points)
    h, hp = tensors.h, tensors.hprime
    h_norms = np.abs(h).max(axis=(-2, -1))

    # one row per pair i < j and component l, pair-major: the l-th component of
    # R(e_i, e_j) xi against that of each basis vector
    i, j = np.triu_indices(n, 1)
    rows = len(i) * n

    def flat(v: np.ndarray) -> np.ndarray:
        """``v[p, l, pair]`` as the rows of the design."""
        return np.swapaxes(v, 1, 2).reshape(len(points), rows)

    def column(op: np.ndarray) -> np.ndarray:
        """``eta(e_j) op(e_i) - eta(e_i) op(e_j)`` for every pair."""
        return flat(eta[:, None, j] * op[:, :, i] - eta[:, None, i] * op[:, :, j])

    b = flat(rxi[:, :, i, j])
    design = np.stack([column(np.broadcast_to(np.eye(n), h.shape)), column(h), column(hp)], axis=-1)
    return [_solve(design[p], b[p], h_norm, h[p], hp[p]) for p, h_norm in enumerate(h_norms.tolist())]


def _solve(a: np.ndarray, b: np.ndarray, h_norm: float, h: np.ndarray, hp: np.ndarray) -> NullityFit:
    """The least-squares fit at one sample from its design matrix ``a`` (one
    column per constant) and right-hand side ``b``."""
    if h_norm <= H_DEGENERACY_THRESHOLD:
        a_kappa = a[:, 0]
        denom = float(a_kappa @ a_kappa)
        kappa = float(a_kappa @ b) / denom if denom > 0.0 else 0.0
        residual = float(np.linalg.norm(b - kappa * a_kappa))
        return NullityFit(kappa, 0.0, 0.0, residual, h_norm, False, h, hp)

    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 3:
        raise NullityFitError(
            f"degenerate nullity fit (rank {rank}) with |h| = {h_norm:.3e}"
        )
    kappa, mu, muprime = (float(v) for v in solution)
    residual = float(np.linalg.norm(b - a @ solution))
    return NullityFit(kappa, mu, muprime, residual, h_norm, True, h, hp)


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
