"""Geometric quantities that only the tests read, built on the package's jets.

Unlike ``oracles.py``, these use the jet machinery under test, so they check
the package against itself: the dense Riemann tensor and identities of it,
covariant derivatives of vector fields, the median and the normal frame of a
product from their closed form, the second fundamental form of the sewn
diagonal, computed here on the full product chart, and plain ``einsum``
references at one point for the contractions that the package runs as
batched matrix products (Gamma, the curvature along a vector, nabla phi,
d Phi and the normality tensor), the nullity fits over the design of
every coordinate pair, which the package reduces to the pairs that eta
reaches, and the first-order layers on the full grid of the chart, which
the package runs in the sets of a structure's layout (``dense_*``, with
``in_sets`` to read a full-grid array in those sets, and ``on_full_grid``
for a structure whose sweeps run on the full grid).
"""

import dataclasses
import math

import numpy as np

from sewcells.charts import TensorField
from sewcells.expressions import BinOp, Num
from sewcells.geometry import _connection, _max_abs, h_tensor, riemann, wedge_eta_two_form
from sewcells.layouts import Layout
from sewcells.nullity import _solve_stack
from sewcells.sewing import embedding_matrix


def dense_hessians(field: TensorField, point) -> np.ndarray:
    """``hesses[..., l, m] = d_l d_m`` of every component at a point, scattered
    from the sparse entries that ``evaluate_with_jets`` gives."""
    hess = field.evaluate_with_jets(point)[2]
    n = field.chart.dim
    dense = np.zeros(n ** (field.rank + 2))
    dense[field._plan.hess_slots] = hess
    return dense.reshape(field.shape + (n, n))


def riemann_reference(metric: TensorField, point) -> np.ndarray:
    """``R^l_ijk`` (the l-th component of ``R(e_i, e_j) e_k``) at one point, with
    plain ``einsum`` contractions from the metric jets and the dense Hessians."""
    g, dg = metric.evaluate_with_grads(point)  # dg[i, j, l] = d_l g_ij
    ddg = dense_hessians(metric, point)        # ddg[i, j, l, m] = d_l d_m g_ij
    ginv = np.linalg.inv(g)
    t = np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg) - np.einsum("ijl->lij", dg)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, t)
    dt = np.einsum("jlim->mlij", ddg) + np.einsum("iljm->mlij", ddg) - np.einsum("ijlm->mlij", ddg)
    dginv = -np.einsum("ka,abm,bl->mkl", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("mkl,lij->mkij", dginv, t) + np.einsum("kl,mlij->mkij", ginv, dt))
    return (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )


def curvature_symmetry_residuals(metric: TensorField, point, v) -> dict[str, float]:
    """Antisymmetry in (X, Y), g-skewness in (Z, W), and first Bianchi of the
    reference tensor, and the gap between the package's curvature along ``v``
    and the reference contracted with ``v``, relative to max(1, its largest
    entry)."""
    g = metric.evaluate(point)
    riem = riemann_reference(metric, point)
    expected = np.einsum("lijk,k->lij", riem, v)
    along = riemann(metric, point, v)[1]
    antisym = riem + np.einsum("lijk->ljik", riem)
    bianchi = riem + np.einsum("lijk->ljki", riem) + np.einsum("lijk->lkij", riem)
    lowered = np.einsum("wl,lijk->ijkw", g, riem)  # g(R(e_i,e_j) e_k, e_w)
    skew = lowered + np.einsum("ijkw->ijwk", lowered)
    return {
        "antisymmetry": float(np.max(np.abs(antisym))),
        "first_bianchi": float(np.max(np.abs(bianchi))),
        "g_skewness": float(np.max(np.abs(skew))),
        "along_vector": float(np.max(np.abs(along - expected)) / max(1.0, np.max(np.abs(expected)))),
    }


def covariant_derivative_vector(metric: TensorField, v: TensorField, w: TensorField, point) -> np.ndarray:
    """``(nabla_V W)^j = V^a (d_a W^j + Gamma^j_am W^m)`` at a point."""
    gamma = dense_christoffel(metric, point)
    vvals = v.evaluate(point)
    wvals, wgrads = w.evaluate_with_grads(point)
    return np.einsum("a,ja->j", vvals, wgrads) + np.einsum("a,jam,m->j", vvals, gamma, wvals)


def _framing_sum(product, coefficients) -> TensorField:
    """``sum_i coefficients[i] xi_i`` on the product chart; the framing fields
    have disjoint supports, so each component takes one term at most."""
    comps = [Num(0.0)] * product.chart.dim
    for coeff, xi in zip(coefficients, product.framing):
        for pos, node in enumerate(xi.components):
            if coeff != 0.0 and node != Num(0.0):
                comps[pos] = BinOp("*", Num(coeff), node)
    return TensorField(product.chart, 1, 0, tuple(comps))


def product_median(product) -> TensorField:
    """The median ``(xi_1 + ... + xi_k)/sqrt(k)`` on the product chart."""
    k = product.cell_count
    return _framing_sum(product, [1.0 / math.sqrt(k)] * k)


def product_normal_frame(product) -> tuple[TensorField, ...]:
    """The unit normals ``(xi_1 + ... + xi_l - l xi_{l+1})/sqrt(l(l+1))``,
    l = 1..k-1, of the diagonal inside Ker(f), on the product chart."""
    k = product.cell_count
    return tuple(
        _framing_sum(product, [1.0 / math.sqrt(l * (l + 1))] * l + [-l / math.sqrt(l * (l + 1))] + [0.0] * (k - l - 1))
        for l in range(1, k)
    )


def second_fundamental(product, sewn, samples) -> np.ndarray:
    """``second[p, a, b, alpha] = g(nabla_{E_a} E_b, u_alpha)``: the second
    fundamental form of the diagonal ``sewn`` along the normal frame of
    ``product``, at samples of the sewn chart.  The embedded frame fields E_a
    are constant on the product chart, so ``nabla_{E_a} E_b`` is
    ``Gamma(E_a, E_b)``."""
    e_mat = embedding_matrix(product, sewn)
    points = samples.coords @ e_mat.T
    normal = np.stack([u.evaluate(points) for u in product_normal_frame(product)], axis=-1)
    g_normal = product.metric.evaluate(points) @ normal  # [p, j, alpha] = g(e_j, u_alpha)
    gamma = dense_christoffel(product.metric, points)
    return np.einsum("ia,mb,pjim,pjc->pabc", e_mat, e_mat, gamma, g_normal)


def christoffel_reference(metric: TensorField, point) -> np.ndarray:
    """``Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)`` at a point."""
    g, dg = metric.evaluate_with_grads(point)  # dg[i, j, l] = d_l g_ij
    t = np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg) - np.einsum("ijl->lij", dg)
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(g), t)


def nabla_phi_reference(struct, point):
    """``(nabla_i phi)^j_k``, ``xi^i (nabla_i phi)^j_k`` and ``xi^i (nabla_i xi)^j`` at a point."""
    gamma = christoffel_reference(struct.metric, point)
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    xvals, xgrads = struct.xi.evaluate_with_grads(point)
    nablaphi = (
        np.einsum("jki->ijk", pgrads)
        + np.einsum("jim,mk->ijk", gamma, pvals)
        - np.einsum("mik,jm->ijk", gamma, pvals)
    )
    nabla_xi = np.einsum("ji->ij", xgrads) + np.einsum("jim,m->ij", gamma, xvals)
    return nablaphi, np.einsum("i,ijk->jk", xvals, nablaphi), np.einsum("i,ij->j", xvals, nabla_xi)


def d_fundamental_form_reference(struct, point) -> np.ndarray:
    """``(d Phi)_ijk = d_i Phi_jk - d_j Phi_ik + d_k Phi_ij`` for ``Phi_ij = g_im phi^m_j``."""
    gvals, ggrads = struct.metric.evaluate_with_grads(point)
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    partial = np.einsum("bma,mc->abc", ggrads, pvals) + np.einsum("bm,mca->abc", gvals, pgrads)
    return partial - np.einsum("jik->ijk", partial) + np.einsum("kij->ijk", partial)


def normality_reference(struct, point) -> np.ndarray:
    """``N[c, i, j]``, the c-th component of ``[phi, phi] + 2 d(eta) (x) xi`` on ``(e_i, e_j)``."""
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    xvals = struct.xi.evaluate(point)
    eta_grads = struct.eta.evaluate_with_grads(point)[1]
    d_eta = eta_grads.T - eta_grads
    term_bracket = np.einsum("ai,cja->cij", pvals, pgrads)
    term_through = np.einsum("aij,ca->cij", pgrads, pvals)
    return (
        term_bracket
        - np.einsum("cij->cji", term_bracket)
        + term_through
        - np.einsum("cij->cji", term_through)
        + 2.0 * np.einsum("ij,c->cij", d_eta, xvals)
    )


def full_pair_fits(struct, points) -> np.ndarray:
    """``[p] = (kappa, mu, mu', residual)`` over the design of every pair
    i < j and component l, zero rows included: ``(R(e_i, e_j) xi)^l``
    against ``eta(e_j) op(e_i) - eta(e_i) op(e_j)`` for op = Id, h and h',
    solved by the package's batched SVD."""
    n = struct.dim
    i, j = np.triu_indices(n, 1)
    rows = len(i) * n
    xi = struct.xi.evaluate(points)
    eta = struct.eta.evaluate(points)
    tensors = h_tensor(on_full_grid(struct), points)

    def flat(v):
        return np.swapaxes(v, 1, 2).reshape(len(points), rows)

    def column(op):
        return flat(eta[:, None, j] * op[:, :, i] - eta[:, None, i] * op[:, :, j])

    b = flat(riemann(struct.metric, points, xi)[1][:, :, i, j])
    design = np.stack([column(np.broadcast_to(np.eye(n), tensors.h.shape)), column(tensors.h),
                       column(tensors.hprime)], axis=-1)
    return _solve_stack(design, b, np.abs(tensors.h).max(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# The first-order layers on the full grid
# ---------------------------------------------------------------------------
#
# The package computes Gamma, nabla phi, d Phi, eta ^ Phi and the normality
# tensor in the sets of a structure's layout (``layouts.star_layout``).  These
# are the same batched matrix products on the full (n, n, n) grid, as the
# package ran them before it had layouts: the references its layers are
# compared with, sample by sample.

def dense_christoffel(metric: TensorField, point) -> np.ndarray:
    """``gamma[..., k, i, j] = Gamma^k_ij`` on the full grid."""
    return _connection(*metric.evaluate_with_grads(point))[1]


def dense_nabla_phi(struct, point):
    """``nablaphi[..., i, j, k] = (nabla_i phi)^j_k`` on the full grid and the
    largest magnitudes of nabla_xi phi and nabla_xi xi."""
    gamma = dense_christoffel(struct.metric, point)
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    xvals, xgrads = struct.xi.evaluate_with_grads(point)
    n = pvals.shape[-1]
    lead = pvals.shape[:-2]
    cube = lead + (n, n, n)
    jik = np.swapaxes(pgrads, -1, -2) + (gamma.reshape(lead + (n * n, n)) @ pvals).reshape(cube)
    jik -= (pvals @ gamma.reshape(lead + (n, n * n))).reshape(cube)
    nabla_xi_phi = xvals[..., None, None, :] @ jik
    nabla_xi = xgrads + (gamma @ xvals[..., None, :, None])[..., 0]
    nabla_xi_xi = (nabla_xi @ xvals[..., None])[..., 0]
    return np.swapaxes(jik, -3, -2), _max_abs(nabla_xi_phi, 3), _max_abs(nabla_xi_xi, 1)


def dense_fundamental_form(struct, point):
    """``Phi_ij = g_ik phi^k_j`` and ``d Phi`` on the full grid."""
    gvals, ggrads = struct.metric.evaluate_with_grads(point)
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    n = pvals.shape[-1]
    lead = pvals.shape[:-2]
    bca = np.swapaxes(pvals, -1, -2)[..., None, :, :] @ ggrads
    bca += (gvals @ pgrads.reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
    return gvals @ pvals, np.moveaxis(bca, -1, -3) - np.swapaxes(bca, -1, -2) + bca


def dense_weight_fit(struct, point):
    """The weight lambda and the fit residual over the full grid."""
    phi_form, d_phi = dense_fundamental_form(struct, point)
    wedge = wedge_eta_two_form(struct.eta.evaluate(point), phi_form)
    axes = (-3, -2, -1)
    denom = np.sum(wedge * wedge, axis=axes)
    lam = np.sum(d_phi * wedge, axis=axes) / (2.0 * np.where(denom == 0.0, np.nan, denom))
    return lam, np.abs(d_phi - 2.0 * lam[..., None, None, None] * wedge).max(axis=axes)


def dense_normality(struct, point) -> np.ndarray:
    """``N[..., c, i, j]`` on the full grid."""
    pvals, pgrads = struct.phi.evaluate_with_grads(point)
    xi_vals = struct.xi.evaluate(point)
    eta_grads = struct.eta.evaluate_with_grads(point)[1]
    d_eta = np.swapaxes(eta_grads, -1, -2) - eta_grads
    n = pvals.shape[-1]
    lead = pvals.shape[:-2]
    cube = lead + (n, n, n)
    s = (pvals @ pgrads.reshape(lead + (n, n * n))).reshape(cube)
    s -= (pgrads.reshape(lead + (n * n, n)) @ pvals).reshape(cube)
    return s - np.swapaxes(s, -1, -2) + 2.0 * xi_vals[..., :, None, None] * d_eta[..., None, :, :]


def dense_verify_layers(struct, points) -> tuple:
    """What ``geometry.verify_layers`` gives per sample, from the full grid:
    |nabla_xi phi|, |nabla_xi xi|, |nabla phi|, lambda, the fit residual and |N|."""
    nablaphi, xi_phi, xi_xi = dense_nabla_phi(struct, points)
    return (xi_phi, xi_xi, _max_abs(nablaphi, 3), *dense_weight_fit(struct, points),
            _max_abs(dense_normality(struct, points), 3))


def on_full_grid(struct):
    """A copy of ``struct`` whose layout is the whole chart, so that the
    package's layers, fits and stages run on it on the full grid, as they
    did before star layouts."""
    copy = dataclasses.replace(struct)
    copy.__dict__["layout"] = Layout.whole(struct.dim)  # the cached property, set before its first read
    return copy


def set_mask(layout, rank: int) -> np.ndarray:
    """The entries (n, .., n) of a rank-``rank`` full-grid array whose
    indices all lie in one set of ``layout``."""
    mask = np.zeros((layout.dim,) * rank, dtype=bool)
    for members in layout.sets:
        mask[np.ix_(*[members] * rank)] = True
    return mask


def in_sets(layout, array: np.ndarray, rank: int) -> np.ndarray:
    """A full-grid array (..., n, .., n) with ``rank`` chart axes, read in the
    sets of a star layout, (..., K, w, .., w); the array itself in a
    whole-chart layout."""
    if not layout.hub:
        return array
    return np.stack([array[(...,) + np.ix_(*[members] * rank)] for members in layout.sets], axis=array.ndim - rank)
