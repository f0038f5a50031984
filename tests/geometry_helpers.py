"""Geometric quantities that only the tests read, built on the package's jets.

Unlike ``oracles.py``, these use the jet machinery under test, so they check
the package against itself: identities of the curvature, covariant
derivatives of vector fields, and the second fundamental form of the sewn
diagonal, computed here on the full product chart.
"""

import numpy as np

from sewcells.charts import TensorField
from sewcells.geometry import christoffel, riemann
from sewcells.sewing import embedding_matrix


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


def covariant_derivative_vector(metric: TensorField, v: TensorField, w: TensorField, point) -> np.ndarray:
    """``(nabla_V W)^j = V^a (d_a W^j + Gamma^j_am W^m)`` at a point."""
    gamma = christoffel(metric, point)
    vvals = v.evaluate(point)
    wvals, wgrads = w.evaluate_with_grads(point)
    return np.einsum("a,ja->j", vvals, wgrads) + np.einsum("a,jam,m->j", vvals, gamma, wvals)


def second_fundamental(product, sewn, samples) -> np.ndarray:
    """``second[p, a, b, alpha] = g(nabla_{E_a} E_b, u_alpha)``: the second
    fundamental form of the diagonal ``sewn`` along the normal frame of
    ``product``, at samples of the sewn chart.  The embedded frame fields E_a
    are constant on the product chart, so ``nabla_{E_a} E_b`` is
    ``Gamma(E_a, E_b)``."""
    e_mat = embedding_matrix(product, sewn)
    points = np.array([s.coords for s in samples]) @ e_mat.T
    normal = np.stack([u.evaluate(points) for u in product.normal_frame()], axis=-1)
    g_normal = product.metric.evaluate(points) @ normal  # [p, j, alpha] = g(e_j, u_alpha)
    gamma = christoffel(product.metric, points)
    return np.einsum("ia,mb,pjim,pjc->pabc", e_mat, e_mat, gamma, g_normal)
