"""Levi-Civita geometry of an expression metric, evaluated through jets.

Conventions used throughout (fixed once, validated against worked structures
in the test suite):

* Christoffel: ``Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)``.
* Curvature:   ``R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z``,
  in components ``R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
  + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik`` with
  ``R(e_i, e_j) e_k = R^l_ijk e_l``.
* Exterior derivative: ``(d w)_{i0..ip} = sum_a (-1)^a d_{i_a} w_{..i_a-hat..}``,
  and the wedge of a 1-form with a 2-form is
  ``(eta ^ Phi)_ijk = eta_i Phi_jk + eta_j Phi_ki + eta_k Phi_ij``.

Derivatives of the inverse metric are always assembled as
``d(g^-1) = -g^-1 (dg) g^-1``; a numeric inverse is never differenced.

The layers a sweep runs (``christoffel``, ``covariant_derivative_affinor``,
``weight_fit``, ``normality_tensor``, ``riemann``, ``h_tensor``,
``exterior_derivative`` and ``lie_bracket``) take one point (n,) or a stack of
points (P, n), and at a stack every result gains a leading P axis.
``lie_bracket`` also reads a (1,1) affinor as the family of its columns, so
one call gives the brackets of every column pair.  The sweeps of the
commands feed these layers batches of samples (see
``charts.evaluate_batches``).  ``connection``, ``christoffel``, ``riemann``,
``h_tensor``, ``covariant_derivative_affinor``, ``reeb_layer``,
``weight_fit`` and ``normality_tensor`` (with
``fundamental_form_with_derivative``) work in a layout (``layouts.Layout``),
the structure's or the one they are given: on the full grid of a chart that
does not split, and on a star layout per set "hub plus one block",
(..., K, w, ...) arrays.  There g^-1 is block diagonal, and Gamma, nabla
phi, d Phi, eta ^ Phi, N, h, h' and the curvature along xi vanish off the
sets, which share only the entry of the hub alone, 0 in d Phi and eta ^
Phi, and the same in every set where xi, which lies on the hub alone,
contracts a quantity (nabla_xi xi, nabla_xi phi).  ``connection`` builds
g^-1 and Gamma from the metric's first-order jet; ``riemann`` and
``covariant_derivative_affinor`` take it as the keyword ``connection``, so
that the layers of one batch build it once, in the one layout they share.
``classify_layers`` runs, on one batch, the layers that classify a
structure: nabla phi and the weight fit, each reduced before the next runs.
``verify_layers`` adds the normality tensor, which only ``verify`` reports.
``reeb_layer`` gives what the Reeb-parallelism checks read, |nabla_xi phi|
and |nabla_xi xi|, from ``xi^i Gamma^k_ij`` alone, O(n^3) per sample where
Gamma and nabla phi are O(n^4).  ``verify`` and the induced stage of ``sew``
run ``verify_layers`` and ``reeb_layer`` inside the axioms' sweep
(``charts.validate_structure``), which takes the order-1 jets of g, phi, xi
and eta on each batch; as the sweep binds each field to the batch's rows of
its run (``charts.evaluate_batches``), each field's program runs once per
chunk of batches for the axioms and these layers together.  ``nullity`` and
the theorem stage of ``sew`` run ``classify_layers`` next to the nullity
fits, on one connection per batch in the structure's layout, in the sweep
of ``nullity.classify_and_fit``.  The layers reduce their results per sample,
so the results of a stack slice into those of its rows; the commands' sweeps
concatenate each result over the batches into one (P,) column, and
``classify`` reduces those columns.  This module runs no sweep.
Every consumer of the curvature contracts it with one vector field (the
nullity conditions involve only ``R(X, Y) xi``), so ``riemann`` gives the
curvature along a vector, ``R(e_i, e_j) v``, and never the whole
(n, n, n, n) tensor.  It and the first-order layers (Gamma,
nabla phi, d Phi and the normality tensor) contract as batched matrix
products, one index summed and the other index pairs flattened into a matrix
axis.  Only ``riemann`` reads the Hessians of the metric, as the sparse
entries of its components' jets; every other layer takes order-1 jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import ContactStructure, Residual, TensorField
from .layouts import Layout

_RANK_TOL = 1e-8


class GeometryError(ValueError):
    """Geometric computation failed (singular metric, bad valence, ...)."""


def _metric_inverse(g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("singular metric") from exc


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------

def _require_metric(metric: TensorField) -> None:
    if (metric.upper, metric.lower) != (0, 2):
        raise GeometryError("christoffel needs a (0,2) metric field")


def _connection(vals: np.ndarray, grads: np.ndarray):
    """The inverse metric and Gamma, from the metric values and
    ``grads[..., i, j, l] = d_l g_ij``."""
    ginv = _metric_inverse(vals)
    n = vals.shape[-1]
    lead = vals.shape[:-2]
    # with grads[..., a, b, c] = d_c g_ab: T_lij = grads[j, l, i] + grads[i, l, j] - grads[i, j, l]
    t = np.einsum("...jli->...lij", grads) + np.einsum("...ilj->...lij", grads)
    t -= np.einsum("...ijl->...lij", grads)
    # Gamma^k_ij = 1/2 g^kl T_lij, with (i, j) flattened
    gamma = (ginv @ t.reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
    gamma *= 0.5
    return ginv, gamma


def connection(metric: TensorField, point, layout: Layout | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The inverse metric and ``gamma[..., k, i, j] = Gamma^k_ij`` at a point
    or a stack, from first-order jets of the metric, on the full grid or per
    set of a star ``layout`` (as ``christoffel``): built once per batch, it
    is the ``connection`` that ``riemann``, ``covariant_derivative_affinor``
    and the layers built on them share, in the same layout."""
    _require_metric(metric)
    return _connection(*metric.evaluate_with_grads(point, layout=layout))


def christoffel(metric: TensorField, point, layout: Layout | None = None) -> np.ndarray:
    """``gamma[..., k, i, j] = Gamma^k_ij`` at a point or a stack, from
    first-order jets of the metric, and ``gamma[..., b, k, i, j]`` on the
    sets b of a star ``layout`` (``layouts.Layout``), where g is block
    diagonal, so that the inverse and Gamma of each set's metric are the
    chart's there."""
    return connection(metric, point, layout)[1]


def riemann(metric: TensorField, point, v, connection=None, layout: Layout | None = None):
    """Gamma and the curvature along a vector ``v`` per point:
    ``gamma[..., k, i, j] = Gamma^k_ij`` and ``rv[..., l, i, j] = (R(e_i, e_j) v)^l``,
    on the full grid, or ``[..., b, l, i, j]`` per set b of a star
    ``layout``, with ``v`` laid out in it (..., K, w).  ``connection``, the
    metric's ``connection`` at ``point`` in the same layout when given,
    spares building it again.

    In a star layout Gamma^l_jk reads only the coordinates of the set of l,
    j and k, so R^l_ijk vanishes unless i, j, k and l lie in one set, and
    each set gives (R(e_i, e_j) v)^l for the i, j and l in it from its own
    Gamma, Hessians and entries of v (``layouts.star_layout``).

    Nothing of size n^4 is built.  With ``Gamma^l_jk = 1/2 g^lm T_mjk`` for
    ``T_mjk = d_j g_km + d_k g_jm - d_m g_jk`` and ``(Gamma v)^q_j = Gamma^q_jk v^k``,
    ``d_i Gamma^l_jk v^k = g^lm (1/2 d_i T_mjk v^k - (d_i g_mq) (Gamma v)^q_j)``,
    and ``d_i T_mjk v^k`` reads the metric Hessians only through their two
    contractions with v (``TensorField.fold_hessians``).  Every contraction is
    a batched matrix product per sample, so a stack gives what its rows give,
    and arrays of size n^3 per sample (K w^3 per set) are updated in place
    and released once read: they set the peak memory of a batch."""
    _require_metric(metric)
    vals, grads, hess = metric.evaluate_with_jets(point, layout=layout)
    ginv, gamma = _connection(vals, grads) if connection is None else connection
    v = np.asarray(v, dtype=float)
    n = vals.shape[-1]
    lead = vals.shape[:-2]
    gv = (gamma @ v[..., None, :, None])[..., 0]  # gv[..., q, j] = Gamma^q_jk v^k
    # first[..., m, c, d] = v^a d_c d_d g_am and along[..., a, b, d] = v^c d_c d_d g_ab, so that
    # e[..., i, m, j] = d_i T_mjk v^k = first[m, j, i] - first[j, m, i] + along[j, m, i]
    first, along = metric.fold_hessians(hess, v, layout)
    e = np.moveaxis(first, -1, -3) - np.swapaxes(first, -1, -3)
    e += np.swapaxes(along, -1, -3)
    del first, along
    e *= 0.5
    e -= np.moveaxis(grads, -1, -3) @ gv[..., None, :, :]  # (d_i g_mq) (Gamma v)^q_j
    d = ginv[..., None, :, :] @ e  # d[..., i, l, j] = d_i Gamma^l_jk v^k
    del e
    # (R(e_i, e_j) v)^l = d[i, l, j] - d[j, l, i] + quad[l, i, j] - quad[l, j, i]
    rv = np.swapaxes(d, -3, -2) - np.moveaxis(d, -3, -1)
    del d
    # quad[..., l, i, j] = Gamma^l_im (Gamma v)^m_j, with (l, i) flattened
    quad = (gamma.reshape(lead + (n * n, n)) @ gv).reshape(lead + (n, n, n))
    rv += quad
    rv -= np.swapaxes(quad, -1, -2)
    return gamma, rv


# ---------------------------------------------------------------------------
# Covariant derivatives of the structure tensors
# ---------------------------------------------------------------------------

@dataclass
class AffinorDerivative:
    """``nablaphi[..., i, j, k] = (nabla_i phi)^j_k``, or ``[..., b, i, j, k]``
    on the sets b of a star layout, plus the xi-direction norms (floats at a
    point, (P,) arrays at a stack)."""

    nablaphi: np.ndarray
    nabla_xi_phi_norm: float | np.ndarray
    nabla_xi_xi_norm: float | np.ndarray


def _max_abs(a: np.ndarray, trailing: int):
    """The largest magnitude over the last ``trailing`` axes: a float at a point,
    one value per sample at a stack.  A NaN propagates."""
    out = np.abs(a).max(axis=tuple(range(-trailing, 0)))
    return float(out) if out.ndim == 0 else out


def covariant_derivative_affinor(struct: ContactStructure, point, connection=None) -> AffinorDerivative:
    """nabla phi at a point or a stack, in the structure's layout, and the
    norms of nabla_xi phi and nabla_xi xi read off it; ``connection``,
    when given, must be ``connection(struct.metric, point, struct.layout)``
    and spares building it again.

    On a star layout each entry of nabla phi, and of nabla_xi phi, lies in
    one set, and so does each component of nabla_xi xi, which sums over the
    hub alone, since xi lies there (``layouts.star_layout``)."""
    layout = struct.layout
    gamma = christoffel(struct.metric, point, layout=layout) if connection is None else connection[1]
    pvals, pgrads = struct.phi.evaluate_with_grads(point, layout=layout)
    xvals, xgrads = struct.xi.evaluate_with_grads(point, layout=layout)
    n = pvals.shape[-1]
    lead = pvals.shape[:-2]
    cube = lead + (n, n, n)
    # (nabla_i phi)^j_k = d_i phi^j_k + Gamma^j_im phi^m_k - Gamma^m_ik phi^j_m, built as
    # jik[..., j, i, k] with (j, i) or (i, k) flattened into one matrix axis
    jik = (gamma.reshape(lead + (n * n, n)) @ pvals).reshape(cube)
    jik += np.swapaxes(pgrads, -1, -2)
    jik -= (pvals @ gamma.reshape(lead + (n, n * n))).reshape(cube)
    nabla_xi_phi = xvals[..., None, None, :] @ jik  # [..., j, 1, k] = xi^i (nabla_i phi)^j_k
    # nabla_xi[..., j, i] = (nabla_i xi)^j = d_i xi^j + Gamma^j_im xi^m
    nabla_xi = xgrads + (gamma @ xvals[..., None, :, None])[..., 0]
    nabla_xi_xi = (nabla_xi @ xvals[..., None])[..., 0]
    return AffinorDerivative(np.swapaxes(jik, -3, -2), _max_abs(nabla_xi_phi, 3 + layout.hub),
                             _max_abs(nabla_xi_xi, 1 + layout.hub))


def reeb_layer(struct: ContactStructure, points: np.ndarray) -> tuple:
    """The largest magnitudes of nabla_xi phi and nabla_xi xi per sample,
    which the Reeb-parallelism checks read, from ``xi^i Gamma^k_ij`` alone,
    in the structure's layout.

    With ``T_lij = d_i g_jl + d_j g_il - d_l g_ij``, ``xi^i Gamma^k_ij =
    1/2 g^kl xi^i T_lij`` takes the contractions of the metric gradients
    with xi along their derivative and along their first index: (n, n) per
    sample, or (K, w, w) per set, so neither Gamma nor nabla phi is built.
    Then ``nabla_xi phi = xi(phi) + [xi Gamma, phi]`` and
    ``nabla_xi xi = xi(xi) + (xi Gamma) xi``."""
    layout = struct.layout
    gvals, ggrads = struct.metric.evaluate_with_grads(points, layout=layout)
    pvals, pgrads = struct.phi.evaluate_with_grads(points, layout=layout)
    xvals, xgrads = struct.xi.evaluate_with_grads(points, layout=layout)
    n = xvals.shape[-1]
    column = xvals[..., None, :, None]
    # with ggrads[..., a, b, c] = d_c g_ab: along[..., j, l] = xi^c d_c g_jl and
    # first[..., b, c] = xi^a d_c g_ab, so that xi^i T_lij = along[j, l] + first[l, j] - first[j, l]
    along = (ggrads @ column)[..., 0]
    first = (xvals[..., None, :] @ ggrads.reshape(ggrads.shape[:-3] + (n, n * n))).reshape(along.shape)
    xi_gamma = 0.5 * (_metric_inverse(gvals) @ (np.swapaxes(along, -1, -2) + first - np.swapaxes(first, -1, -2)))
    nabla_xi_phi = (pgrads @ column)[..., 0] + xi_gamma @ pvals - pvals @ xi_gamma
    nabla_xi_xi = ((xgrads + xi_gamma) @ xvals[..., None])[..., 0]
    return _max_abs(nabla_xi_phi, 2 + layout.hub), _max_abs(nabla_xi_xi, 1 + layout.hub)


@dataclass
class StructureTensorsAtPoint:
    """The flow-rate affinor ``h = 1/2 L_xi phi`` and its composite ``h' = h phi``."""

    h: np.ndarray
    hprime: np.ndarray


def h_tensor(struct: ContactStructure, point) -> StructureTensorsAtPoint:
    """Evaluate ``h X = 1/2([xi, phi X] - phi [xi, X])`` on coordinate fields,
    at a point or a stack, in the structure's layout: on the full grid, or
    per set of a star layout (``[..., b, j, k]``), where h and h' vanish off
    the sets (``layouts.star_layout``)."""
    layout = struct.layout
    pvals, pgrads = struct.phi.evaluate_with_grads(point, layout=layout)
    xvals, xgrads = struct.xi.evaluate_with_grads(point, layout=layout)
    # h^j_k = 1/2 (xi^i d_i phi^j_k - phi^m_k d_m xi^j + (d_k xi^m) phi^j_m)
    h = 0.5 * (
        np.einsum("...i,...jki->...jk", xvals, pgrads)
        - np.einsum("...mk,...jm->...jk", pvals, xgrads)
        + np.einsum("...mk,...jm->...jk", xgrads, pvals)
    )
    return StructureTensorsAtPoint(h, h @ pvals)


# ---------------------------------------------------------------------------
# Exterior calculus
# ---------------------------------------------------------------------------

def exterior_derivative(form: TensorField, point) -> np.ndarray:
    """d of a stored (0,1) or (0,2) form at a point or a stack; returns the
    antisymmetric grid."""
    if form.upper != 0 or form.lower not in (1, 2):
        raise GeometryError("exterior_derivative handles (0,1) and (0,2) forms")
    vals, grads = form.evaluate_with_grads(point)
    if form.lower == 1:
        # (dw)_ij = d_i w_j - d_j w_i ; grads[c, l] = d_l w_c
        return np.swapaxes(grads, -1, -2) - grads
    # (dw)_ijk = d_i w_jk - d_j w_ik + d_k w_ij ; grads[b, c, l] = d_l w_bc
    return (
        np.einsum("...jki->...ijk", grads)
        - np.einsum("...ikj->...ijk", grads)
        + grads
    )


def wedge_eta_two_form(eta_vals: np.ndarray, two_form: np.ndarray) -> np.ndarray:
    """``(eta ^ w)_ijk = eta_i w_jk + eta_j w_ki + eta_k w_ij``."""
    wedge = eta_vals[..., :, None, None] * two_form[..., None, :, :]
    wedge += eta_vals[..., None, :, None] * np.swapaxes(two_form, -1, -2)[..., :, None, :]
    wedge += eta_vals[..., None, None, :] * two_form[..., :, :, None]
    return wedge


def fundamental_form_with_derivative(struct: ContactStructure, point):
    """``Phi_ij = g_ik phi^k_j`` and its exterior derivative, from jets of g
    and phi, in the structure's layout."""
    layout = struct.layout
    gvals, ggrads = struct.metric.evaluate_with_grads(point, layout=layout)
    pvals, pgrads = struct.phi.evaluate_with_grads(point, layout=layout)
    phi_form = gvals @ pvals
    n = pvals.shape[-1]
    lead = pvals.shape[:-2]
    # bca[..., b, c, a] = d_a Phi_bc = phi^m_c d_a g_bm + g_bm d_a phi^m_c
    bca = np.swapaxes(pvals, -1, -2)[..., None, :, :] @ ggrads
    bca += (gvals @ pgrads.reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
    # (d Phi)_ijk = d_i Phi_jk - d_j Phi_ik + d_k Phi_ij
    d_phi = np.moveaxis(bca, -1, -3) - np.swapaxes(bca, -1, -2)
    d_phi += bca
    return phi_form, d_phi


def normality_tensor(struct: ContactStructure, point) -> np.ndarray:
    """Torsion obstruction ``[phi, phi] + 2 d(eta) (x) xi`` on coordinate fields.

    Returns ``N[..., c, i, j]`` = c-th component of the tensor applied to
    ``(e_i, e_j)``, or ``N[..., b, c, i, j]`` on the sets b of the
    structure's layout when it is a star layout; the structure is normal iff
    this vanishes.
    """
    layout = struct.layout
    pvals, pgrads = struct.phi.evaluate_with_grads(point, layout=layout)
    xi_vals = struct.xi.evaluate(point, layout=layout)
    eta_grads = struct.eta.evaluate_with_grads(point, layout=layout)[1]
    d_eta = np.swapaxes(eta_grads, -1, -2) - eta_grads
    n = pvals.shape[-1]
    lead = pvals.shape[:-2]
    cube = lead + (n, n, n)
    # with pgrads[..., c, j, a] = d_a phi^c_j, the bracket term B_cij = phi^a_i d_a phi^c_j
    # and the term through phi T_cij = phi^c_a d_j phi^a_i:
    # N_cij = S_cij - S_cji + 2 xi^c (d eta)_ij for S_cij = T_cij - B_cji
    s = (pvals @ pgrads.reshape(lead + (n, n * n))).reshape(cube)
    s -= (pgrads.reshape(lead + (n * n, n)) @ pvals).reshape(cube)
    torsion = s - np.swapaxes(s, -1, -2)
    del s
    torsion += 2.0 * xi_vals[..., :, None, None] * d_eta[..., None, :, :]
    return torsion


# ---------------------------------------------------------------------------
# Classification by the weight in d(Phi) = 2 * weight * eta ^ Phi
# ---------------------------------------------------------------------------

ALMOST_COSYMPLECTIC = "almost_cosymplectic"
ALMOST_ALPHA_KENMOTSU = "almost_alpha_kenmotsu"
WEIGHT_FUNCTION = "weight_function"
UNCLASSIFIED = "none"

WEIGHT_SPREAD_TOL = 1e-7


@dataclass(frozen=True)
class Classification:
    """A structure's weight class over a sample set, as ``classify`` decides it."""

    kind: str
    alpha: float | None
    weights: tuple[float, ...]
    weight_fit_residual_max: float
    is_cosymplectic: bool

    def describe(self) -> str:
        if self.kind == ALMOST_COSYMPLECTIC:
            base = "almost cosymplectic" + (" (cosymplectic)" if self.is_cosymplectic else "")
        elif self.kind == ALMOST_ALPHA_KENMOTSU:
            base = f"almost alpha-Kenmotsu, alpha = {self.alpha!r}"
        elif self.kind == WEIGHT_FUNCTION:
            base = "nonconstant weight function"
        else:
            base = "unclassified (weight fit residual above tolerance)"
        return base


def weight_fit(struct: ContactStructure, point):
    """Least-squares weight lambda minimizing ``|dPhi - 2 lambda eta ^ Phi|``,
    and the residual: floats at a point, (P,) arrays at a stack.  Both are NaN
    where ``eta ^ Phi`` vanishes, since no weight is defined there.  The
    sums run over the sets of the structure's layout.  The sets of a star
    layout share one entry, the hub's alone, which every set counts: both
    its d Phi and its eta ^ Phi are 0 there, as phi's hub row and column
    are (``layouts.star_layout``)."""
    layout = struct.layout
    phi_form, d_phi = fundamental_form_with_derivative(struct, point)
    wedge = wedge_eta_two_form(struct.eta.evaluate(point, layout=layout), phi_form)
    axes = tuple(range(-3 - layout.hub, 0))
    buffer = np.empty_like(wedge)  # one array for every product below

    def total(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.multiply(a, b, out=buffer).sum(axis=axes)

    denom = total(wedge, wedge)
    lam = total(d_phi, wedge) / (2.0 * np.where(denom == 0.0, np.nan, denom))
    np.multiply(2.0 * lam[(...,) + (None,) * len(axes)], wedge, out=buffer)
    np.subtract(d_phi, buffer, out=buffer)
    residual = np.abs(buffer, out=buffer).max(axis=axes)
    if lam.ndim == 0:
        return float(lam), float(residual)
    return lam, residual


def classify_layers(struct: ContactStructure, points: np.ndarray, connection=None) -> tuple:
    """``classify``'s layers on one batch, in the structure's layout, each
    reduced per sample before the next runs, which frees its arrays: the
    largest magnitudes of
    nabla_xi phi and nabla_xi xi (as ``reeb_layer`` gives them) and of nabla
    phi, read off the full nabla phi (``covariant_derivative_affinor``,
    with ``connection``, when given, ``connection(struct.metric, points,
    struct.layout)``), and the weights and fit
    residuals of ``weight_fit``.  So the results of a stack of samples slice
    into those of its rows.  Inside a sweep that names the fields at these
    orders, the layers read the jets it bound for the batch
    (``charts.evaluate_batches``), so no field's program runs here."""
    return (*_nabla_phi_norms(struct, points, connection), *weight_fit(struct, points))


def _nabla_phi_norms(struct: ContactStructure, points: np.ndarray, connection) -> tuple:
    """The largest magnitudes of nabla_xi phi, nabla_xi xi and nabla phi per
    sample, in the structure's layout; nabla phi is freed on return, before
    the next layer runs."""
    # the Reeb norms come from the nabla phi built here, not from ``reeb_layer``: taking them from
    # there moved verify's Reeb residuals by up to 9.2e-15 and made it slower (ROADMAP item 6)
    derivative = covariant_derivative_affinor(struct, points, connection=connection)
    return (derivative.nabla_xi_phi_norm, derivative.nabla_xi_xi_norm,
            _max_abs(derivative.nablaphi, 3 + struct.layout.hub))


def verify_layers(struct: ContactStructure, points: np.ndarray) -> tuple:
    """``classify_layers`` and then, last, the largest magnitude of the
    normality tensor per sample, which only ``verify`` reports."""
    return (*classify_layers(struct, points), _max_abs(normality_tensor(struct, points), 3 + struct.layout.hub))


def classify(struct: ContactStructure, tol: float, columns) -> Classification:
    """Decide almost cosymplectic / almost alpha-Kenmotsu / weight function.

    Every 3-dimensional structure with closed eta fits ``dPhi = 2 lambda eta ^ Phi``
    exactly at each point; in higher dimension a residual above ``tol`` means
    no such weight exists and the result is unclassified, as it is in any
    dimension when the residual is not finite.  ``columns`` are the results
    of ``classify_layers`` (or ``verify_layers``), one (P,) column each, as
    a sweep gathers them (``nullity.classify_and_fit`` or ``verify``'s); the
    largest |nabla phi|, the weights and the fit residuals are read."""
    _, _, nabla_phi, weights, residuals, *_ = columns
    fit = Residual("weight_fit", tol).add(residuals)
    if not fit.passed and (struct.dim > 3 or not np.isfinite(fit.value)):
        kind, alpha = UNCLASSIFIED, None
    elif Residual("weight", tol).add(weights).passed:
        kind, alpha = ALMOST_COSYMPLECTIC, None
    elif Residual("weight_spread", WEIGHT_SPREAD_TOL).add(np.ptp(weights)).passed:
        kind, alpha = ALMOST_ALPHA_KENMOTSU, float(weights.mean())
    else:
        kind, alpha = WEIGHT_FUNCTION, None
    return Classification(kind, alpha, tuple(weights.tolist()), fit.value,
                          Residual("nabla_phi", tol).add(nabla_phi).passed)


# ---------------------------------------------------------------------------
# Vector-field helpers
# ---------------------------------------------------------------------------

def _family_index(field: TensorField, letter: str) -> str:
    """The einsum letter of the column index a field carries into ``lie_bracket``:
    none for a vector field, ``letter`` for a (1,1) affinor."""
    valence = (field.upper, field.lower)
    if valence == (1, 0):
        return ""
    if valence == (1, 1):
        return letter
    raise GeometryError("lie_bracket takes vector fields or (1,1) affinors")


def lie_bracket(v: TensorField, w: TensorField, point) -> np.ndarray:
    """``[V, W]^j = V^c d_c W^j - W^c d_c V^j`` at a point or a stack.

    A (1,1) affinor ``A`` stands for the family of its columns ``A e_a``, whose
    index follows j in the result: ``lie_bracket(f, f, p)[..., j, a, b]`` is
    ``[f e_a, f e_b]^j`` and ``lie_bracket(f, w, p)[..., j, a]`` is
    ``[f e_a, W]^j``.
    """
    a, b = _family_index(v, "a"), _family_index(w, "b")
    vvals, vgrads = v.evaluate_with_grads(point)
    wvals, wgrads = w.evaluate_with_grads(point)
    return (
        np.einsum(f"...c{a},...j{b}c->...j{a}{b}", vvals, wgrads)
        - np.einsum(f"...c{b},...j{a}c->...j{a}{b}", wvals, vgrads)
    )


def numeric_rank(matrix: np.ndarray) -> np.ndarray:
    """The number of singular values above ``_RANK_TOL`` times the largest, for
    a matrix or for each matrix of a stack; a zero matrix has rank 0."""
    s = np.linalg.svd(matrix, compute_uv=False)
    return np.sum(s > _RANK_TOL * s[..., :1], axis=-1)
