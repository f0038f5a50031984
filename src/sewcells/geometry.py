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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import ContactStructure, Residual, TensorField

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

@dataclass
class ChristoffelAtPoint:
    """``gamma[k, i, j] = Gamma^k_ij`` and ``dgamma[m, k, i, j] = d_m Gamma^k_ij``."""

    gamma: np.ndarray
    dgamma: np.ndarray


def christoffel(metric: TensorField, point) -> ChristoffelAtPoint:
    if (metric.upper, metric.lower) != (0, 2):
        raise GeometryError("christoffel needs a (0,2) metric field")
    vals, grads, hesses = metric.evaluate_with_jets(point)
    ginv = _metric_inverse(vals)
    # T[l,i,j] = d_i g_jl + d_j g_il - d_l g_ij   (grads[i,j,l] = d_l g_ij)
    t = np.einsum("jli->lij", grads) + np.einsum("ilj->lij", grads) - np.einsum("ijl->lij", grads)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, t)
    # dT[m,l,i,j] = d_m T[l,i,j]
    dt = (
        np.einsum("jlim->mlij", hesses)
        + np.einsum("iljm->mlij", hesses)
        - np.einsum("ijlm->mlij", hesses)
    )
    dg = np.einsum("ijm->mij", grads)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("mkl,lij->mkij", dginv, t) + np.einsum("kl,mlij->mkij", ginv, dt))
    return ChristoffelAtPoint(gamma, dgamma)


@dataclass
class CurvatureAtPoint:
    """``riem[l, i, j, k]`` = l-th component of ``R(e_i, e_j) e_k``, and the
    Christoffel symbols ``gamma[k, i, j]`` it was built from."""

    riem: np.ndarray
    gamma: np.ndarray


def riemann(metric: TensorField, point) -> CurvatureAtPoint:
    ch = christoffel(metric, point)
    quad = np.einsum("lim,mjk->lijk", ch.gamma, ch.gamma)
    riem = (
        np.einsum("iljk->lijk", ch.dgamma)
        - np.einsum("jlik->lijk", ch.dgamma)
        + quad
        - np.einsum("lijk->ljik", quad)
    )
    return CurvatureAtPoint(riem, ch.gamma)


def curvature_symmetry_residuals(metric: TensorField, point) -> dict[str, float]:
    """Antisymmetry in (X, Y), g-skewness in (Z, W), and first Bianchi."""
    g = metric.evaluate(point)
    riem = riemann(metric, point).riem
    antisym = riem + np.einsum("lijk->ljik", riem)
    bianchi = riem + np.einsum("lijk->ljki", riem) + np.einsum("lijk->lkij", riem)
    lowered = np.einsum("wl,lijk->ijkw", g, riem)  # g(R(e_i,e_j) e_k, e_w)
    skew = lowered + np.einsum("ijkw->ijwk", lowered)
    return {
        "antisymmetry": float(np.max(np.abs(antisym))),
        "first_bianchi": float(np.max(np.abs(bianchi))),
        "g_skewness": float(np.max(np.abs(skew))),
    }


# ---------------------------------------------------------------------------
# Covariant derivatives of the structure tensors
# ---------------------------------------------------------------------------

@dataclass
class AffinorDerivative:
    """``nablaphi[i, j, k] = (nabla_i phi)^j_k`` plus the xi-direction norms."""

    nablaphi: np.ndarray
    nabla_xi_phi_norm: float
    nabla_xi_xi_norm: float


def covariant_derivative_affinor(struct: ContactStructure, point) -> AffinorDerivative:
    ch = christoffel(struct.metric, point)
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    xvals, xgrads = struct.xi.evaluate_with_grads(point)
    # (nabla_i phi)^j_k = d_i phi^j_k + Gamma^j_im phi^m_k - Gamma^m_ik phi^j_m
    nablaphi = (
        np.einsum("jki->ijk", pgrads)
        + np.einsum("jim,mk->ijk", ch.gamma, pvals)
        - np.einsum("mik,jm->ijk", ch.gamma, pvals)
    )
    nabla_xi_phi = np.einsum("i,ijk->jk", xvals, nablaphi)
    nabla_xi = np.einsum("ji->ij", xgrads) + np.einsum("jim,m->ij", ch.gamma, xvals)
    nabla_xi_xi = np.einsum("i,ij->j", xvals, nabla_xi)
    return AffinorDerivative(
        nablaphi,
        float(np.max(np.abs(nabla_xi_phi))),
        float(np.max(np.abs(nabla_xi_xi))),
    )


def affinor_derivatives(struct: ContactStructure, samples) -> list[AffinorDerivative]:
    """``covariant_derivative_affinor`` at every sample, computed once for
    every consumer of the same sample set."""
    return [covariant_derivative_affinor(struct, s.array()) for s in samples]


@dataclass
class StructureTensorsAtPoint:
    """The flow-rate affinor ``h = 1/2 L_xi phi``, its composite ``h' = h phi``,
    and optionally ``h'/alpha``."""

    h: np.ndarray
    hprime: np.ndarray
    kenmotsu_hprime: np.ndarray | None = None


def h_tensor(struct: ContactStructure, point, alpha: float | None = None) -> StructureTensorsAtPoint:
    """Evaluate ``h X = 1/2([xi, phi X] - phi [xi, X])`` on coordinate fields."""
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    xvals, xgrads = struct.xi.evaluate_with_grads(point)
    # h^j_k = 1/2 (xi^i d_i phi^j_k - phi^m_k d_m xi^j + (d_k xi^m) phi^j_m)
    h = 0.5 * (
        np.einsum("i,jki->jk", xvals, pgrads)
        - np.einsum("mk,jm->jk", pvals, xgrads)
        + np.einsum("mk,jm->jk", xgrads, pvals)
    )
    hprime = h @ pvals
    kenmotsu = None
    if alpha is not None:
        if alpha == 0.0:
            raise GeometryError("the normalized h' needs a nonzero alpha")
        kenmotsu = hprime / alpha
    return StructureTensorsAtPoint(h, hprime, kenmotsu)


# ---------------------------------------------------------------------------
# Exterior calculus
# ---------------------------------------------------------------------------

def exterior_derivative(form: TensorField, point) -> np.ndarray:
    """d of a stored (0,1) or (0,2) form; returns the antisymmetric grid."""
    if form.upper != 0 or form.lower not in (1, 2):
        raise GeometryError("exterior_derivative handles (0,1) and (0,2) forms")
    vals, grads = form.evaluate_with_grads(point)
    if form.lower == 1:
        # (dw)_ij = d_i w_j - d_j w_i ; grads[c, l] = d_l w_c
        return grads.T - grads
    # (dw)_ijk = d_i w_jk - d_j w_ik + d_k w_ij ; grads[b, c, l] = d_l w_bc
    return (
        np.einsum("jki->ijk", grads)
        - np.einsum("ikj->ijk", grads)
        + np.einsum("ijk->ijk", grads)
    )


def wedge_eta_two_form(eta_vals: np.ndarray, two_form: np.ndarray) -> np.ndarray:
    """``(eta ^ w)_ijk = eta_i w_jk + eta_j w_ki + eta_k w_ij``."""
    return (
        np.einsum("i,jk->ijk", eta_vals, two_form)
        + np.einsum("j,ki->ijk", eta_vals, two_form)
        + np.einsum("k,ij->ijk", eta_vals, two_form)
    )


def fundamental_form_with_derivative(struct: ContactStructure, point):
    """``Phi_ij = g_ik phi^k_j`` and its exterior derivative, from jets of g, phi."""
    gvals, ggrads = struct.metric.evaluate_with_grads(point)
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    phi_form = gvals @ pvals
    # partial[a,b,c] = d_a Phi_bc
    partial = np.einsum("bma,mc->abc", ggrads, pvals) + np.einsum("bm,mca->abc", gvals, pgrads)
    d_phi = (
        np.einsum("ijk->ijk", partial)
        - np.einsum("jik->ijk", partial)
        + np.einsum("kij->ijk", partial)
    )
    return phi_form, d_phi


def normality_tensor(struct: ContactStructure, point) -> np.ndarray:
    """Torsion obstruction ``[phi, phi] + 2 d(eta) (x) xi`` on coordinate fields.

    Returns ``N[c, i, j]`` = c-th component of the tensor applied to
    ``(e_i, e_j)``; the structure is normal iff this vanishes.
    """
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    xi_vals = struct.xi.evaluate(point)
    eta_vals, eta_grads = struct.eta.evaluate_with_grads(point)
    d_eta = eta_grads.T - eta_grads
    term_bracket = np.einsum("ai,cja->cij", pvals, pgrads)
    term_through = np.einsum("aij,ca->cij", pgrads, pvals)
    nij = (
        term_bracket
        - np.einsum("cij->cji", term_bracket)
        + term_through
        - np.einsum("cij->cji", term_through)
        + 2.0 * np.einsum("ij,c->cij", d_eta, xi_vals)
    )
    return nij


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
    kind: str
    alpha: float | None
    weights: tuple[float, ...]
    fit_residual_max: float
    is_cosymplectic: bool
    nabla_phi_norm_max: float

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


def weight_fit(struct: ContactStructure, point) -> tuple[float, float]:
    """Least-squares weight lambda minimizing ``|dPhi - 2 lambda eta ^ Phi|``."""
    phi_form, d_phi = fundamental_form_with_derivative(struct, point)
    eta_vals = struct.eta.evaluate(point)
    wedge = wedge_eta_two_form(eta_vals, phi_form)
    denom = float(np.sum(wedge * wedge))
    if denom == 0.0:
        raise GeometryError("degenerate structure: eta ^ Phi vanishes")
    lam = float(np.sum(d_phi * wedge)) / (2.0 * denom)
    residual = float(np.max(np.abs(d_phi - 2.0 * lam * wedge)))
    return lam, residual


def classify(
    struct: ContactStructure,
    samples,
    derivatives: list[AffinorDerivative],
    tol: float,
    spread_tol: float = WEIGHT_SPREAD_TOL,
) -> Classification:
    """Decide almost cosymplectic / almost alpha-Kenmotsu / weight function.

    Every 3-dimensional structure with closed eta fits ``dPhi = 2 lambda eta ^ Phi``
    exactly at each point; in higher dimension a residual above ``tol`` means
    no such weight exists and the result is unclassified, as it is in any
    dimension when the residual is not finite.  ``derivatives`` holds
    ``covariant_derivative_affinor`` at each sample (see ``affinor_derivatives``).
    """
    weights: list[float] = []
    fit = Residual("weight_fit_residual", tol)
    nabla = Residual("nabla_phi", tol)
    for sample, deriv in zip(samples, derivatives, strict=True):
        lam, res = weight_fit(struct, sample.array())
        weights.append(lam)
        fit.add(res)
        nabla.add(deriv.nablaphi)
    arr = np.asarray(weights)
    if not fit.passed and (struct.dim > 3 or not np.isfinite(fit.value)):
        kind, alpha = UNCLASSIFIED, None
    elif Residual("weight", tol).add(arr).passed:
        kind, alpha = ALMOST_COSYMPLECTIC, None
    elif Residual("weight_spread", spread_tol).add(np.ptp(arr)).passed:
        kind, alpha = ALMOST_ALPHA_KENMOTSU, float(arr.mean())
    else:
        kind, alpha = WEIGHT_FUNCTION, None
    return Classification(kind, alpha, tuple(weights), fit.value, nabla.passed, nabla.value)


# ---------------------------------------------------------------------------
# Vector-field helpers
# ---------------------------------------------------------------------------

def lie_bracket(v: TensorField, w: TensorField, point) -> np.ndarray:
    """``[V, W]^j = V^a d_a W^j - W^a d_a V^j`` at a point."""
    if (v.upper, v.lower) != (1, 0) or (w.upper, w.lower) != (1, 0):
        raise GeometryError("lie_bracket takes vector fields")
    vvals, vgrads = v.evaluate_with_grads(point)
    wvals, wgrads = w.evaluate_with_grads(point)
    return np.einsum("a,ja->j", vvals, wgrads) - np.einsum("a,ja->j", wvals, vgrads)


def covariant_derivative_vector(metric: TensorField, v: TensorField, w: TensorField, point) -> np.ndarray:
    """``(nabla_V W)^j = V^a (d_a W^j + Gamma^j_am W^m)`` at a point."""
    ch = christoffel(metric, point)
    vvals = v.evaluate(point)
    wvals, wgrads = w.evaluate_with_grads(point)
    return np.einsum("a,ja->j", vvals, wgrads) + np.einsum("a,jam,m->j", vvals, ch.gamma, wvals)


def numeric_rank(matrix: np.ndarray, rel_tol: float = _RANK_TOL) -> int:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
