"""Built-in cell constructors.

Each constructor returns a fully explicit 3-dimensional structure in an
adapted chart (eta = dt for the distinguished coordinate).  These are the
reference fixtures for the whole verification suite:

* ``flat_cosymplectic_cell`` - Euclidean metric, parallel phi; every
  curvature quantity vanishes.
* ``model_cosymplectic_cell(lam)`` - the solvable-group model
  ``g = dt^2 + e^{2 lam t} dx^2 + e^{-2 lam t} dy^2`` whose Reeb curvature is
  ``R(X, Y) xi = -lam^2 (eta(Y) X - eta(X) Y)``.
* ``kenmotsu_warped_cell(alpha, kappa0, ...)`` - the doubly warped line
  ``g = dt^2 + f^2 dx^2 + f'^2 dy^2`` with ``f = c e^{alpha (1+lam) t}``,
  ``f' = c' e^{alpha (1-lam) t}`` and ``lam = sqrt(-1 - kappa0/alpha^2)``.
* ``halfspace_kenmotsu_cell`` - an almost Kenmotsu structure on ``z > 0``
  with the nonconstant nullity function ``kappa(z) = -(1 + e^{-4z})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .charts import Chart, Constraint, ContactStructure, TensorField


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: Callable[..., ContactStructure]


def _cell(name: str, chart: Chart, metric, phi, xi, eta) -> ContactStructure:
    return ContactStructure(
        name=name,
        chart=chart,
        metric=TensorField.build(chart, 0, 2, metric),
        phi=TensorField.build(chart, 1, 1, phi),
        xi=TensorField.build(chart, 1, 0, xi),
        eta=TensorField.build(chart, 0, 1, eta),
    )


def flat_cosymplectic_cell() -> ContactStructure:
    chart = Chart(("t", "x", "y"), adapted_index=0)
    return _cell(
        "flat_cosymplectic",
        chart,
        metric=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        phi=[["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
        xi=["1", "0", "0"],
        eta=["1", "0", "0"],
    )


def model_cosymplectic_cell(lam: float) -> ContactStructure:
    """Constant-nullity almost cosymplectic model with kappa = -lam^2."""
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    chart = Chart(("t", "x", "y"), adapted_index=0)
    grow = f"exp({2.0 * lam!r}*t)"
    decay = f"exp({-2.0 * lam!r}*t)"
    return _cell(
        f"model_cosymplectic(lam={lam!r})",
        chart,
        metric=[["1", "0", "0"], ["0", grow, "0"], ["0", "0", decay]],
        # phi maps d/dx to e^{2 lam t} d/dy and d/dy to -e^{-2 lam t} d/dx
        phi=[["0", "0", "0"], ["0", "0", f"-{decay}"], ["0", grow, "0"]],
        xi=["1", "0", "0"],
        eta=["1", "0", "0"],
    )


def kenmotsu_warped_cell(alpha: float, kappa0: float, c: float = 1.0, cprime: float = 1.0) -> ContactStructure:
    """Doubly warped almost alpha-Kenmotsu cell with constant nullity kappa0."""
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    if not kappa0 < -alpha * alpha:
        raise ValueError(f"kappa0 must be < -alpha^2 = {-alpha * alpha!r}, got {kappa0!r}")
    if not (c > 0.0 and cprime > 0.0):
        raise ValueError("warping constants c, c' must be positive")
    lam = math.sqrt(-1.0 - kappa0 / (alpha * alpha))
    chart = Chart(("t", "x", "y"), adapted_index=0)
    f_sq = f"{c * c!r}*exp({2.0 * alpha * (1.0 + lam)!r}*t)"
    fp_sq = f"{cprime * cprime!r}*exp({2.0 * alpha * (1.0 - lam)!r}*t)"
    # phi sends the unit x-direction d/dx / f to the unit y-direction d/dy / f'
    ratio = f"{c / cprime!r}*exp({2.0 * alpha * lam!r}*t)"
    ratio_inv = f"{cprime / c!r}*exp({-2.0 * alpha * lam!r}*t)"
    return _cell(
        f"kenmotsu_warped(alpha={alpha!r}, kappa0={kappa0!r}, c={c!r}, cprime={cprime!r})",
        chart,
        metric=[["1", "0", "0"], ["0", f_sq, "0"], ["0", "0", fp_sq]],
        phi=[["0", "0", "0"], ["0", "0", f"-({ratio_inv})"], ["0", ratio, "0"]],
        xi=["1", "0", "0"],
        eta=["1", "0", "0"],
    )


def halfspace_kenmotsu_cell() -> ContactStructure:
    """Almost Kenmotsu structure on z > 0 with kappa(z) = -(1 + e^{-4z}).

    The metric is forced by declaring the frame (d/dx, d/dy, xi) orthonormal,
    where xi = a d/dx + b d/dy + d/dz with a = x - y e^{-2z} and
    b = y - x e^{-2z}; phi rotates d/dx into d/dy and is pinned on d/dz by
    phi(xi) = 0.
    """
    chart = Chart(
        ("x", "y", "z"),
        constraints=(Constraint.from_source("z > 0", ("x", "y", "z")),),
        adapted_index=2,
    )
    a = "x - y*exp(-2*z)"
    b = "y - x*exp(-2*z)"
    return _cell(
        "halfspace_kenmotsu",
        chart,
        metric=[
            ["1", "0", f"-({a})"],
            ["0", "1", f"-({b})"],
            [f"-({a})", f"-({b})", f"1 + ({a})^2 + ({b})^2"],
        ],
        phi=[
            ["0", "-1", b],
            ["1", "0", f"-({a})"],
            ["0", "0", "0"],
        ],
        xi=[a, b, "1"],
        eta=["0", "0", "1"],
    )


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry("flat_cosymplectic", flat_cosymplectic_cell),
        CatalogEntry("model_cosymplectic", model_cosymplectic_cell),
        CatalogEntry("kenmotsu_warped", kenmotsu_warped_cell),
        CatalogEntry("halfspace_kenmotsu", halfspace_kenmotsu_cell),
    )
}


def standard_cells() -> tuple[ContactStructure, ...]:
    """One representative instance per catalog entry, used by the test sweeps."""
    return (
        flat_cosymplectic_cell(),
        model_cosymplectic_cell(1.0),
        kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0),
        halfspace_kenmotsu_cell(),
    )
