"""Independent oracles for the test suite.

Everything here works from plain value evaluation and central finite
differences, never from the jet machinery it is used to check.
"""

from __future__ import annotations

import numpy as np

from sewcells.charts import ContactStructure, TensorField
from sewcells.expressions import (
    BinOp,
    Call,
    EvaluationDomainError,
    ExpressionNode,
    FUNCTIONS,
    Neg,
    Num,
    Var,
    evaluate,
)


def central_difference_grid(evaluate_grid, point: np.ndarray, step: float) -> np.ndarray:
    """d_l (grid) by central differences; output shape = grid shape + (n,)."""
    n = point.shape[0]
    base = np.asarray(evaluate_grid(point))
    out = np.empty(base.shape + (n,))
    for l in range(n):
        offset = np.zeros(n)
        offset[l] = step
        out[..., l] = (evaluate_grid(point + offset) - evaluate_grid(point - offset)) / (2.0 * step)
    return out


def koszul_fd(metric: TensorField, point, step: float = 1e-6) -> np.ndarray:
    """Christoffel symbols from finite differences of the metric values."""
    point = np.asarray(point, dtype=float)
    dg = central_difference_grid(metric.evaluate, point, step)  # dg[i,j,l] = d_l g_ij
    g = metric.evaluate(point)
    ginv = np.linalg.inv(g)
    t = np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg) - np.einsum("ijl->lij", dg)
    return 0.5 * np.einsum("kl,lij->kij", ginv, t)


def h_tensor_fd(struct: ContactStructure, point, step: float = 1e-6) -> np.ndarray:
    """Brute-force ``1/2 ([xi, phi e_k] - phi [xi, e_k])`` on coordinate fields."""
    point = np.asarray(point, dtype=float)
    pvals = struct.phi.evaluate(point)
    xvals = struct.xi.evaluate(point)
    dphi = central_difference_grid(struct.phi.evaluate, point, step)  # dphi[j,k,l] = d_l phi^j_k
    dxi = central_difference_grid(struct.xi.evaluate, point, step)    # dxi[j,l] = d_l xi^j
    return 0.5 * (
        np.einsum("i,jki->jk", xvals, dphi)
        - np.einsum("mk,jm->jk", pvals, dxi)
        + np.einsum("mk,jm->jk", dxi, pvals)
    )


def normality_fd(struct: ContactStructure, point, step: float = 1e-6) -> np.ndarray:
    """Brute-force torsion ``[phi, phi] + 2 d(eta) (x) xi`` on coordinate fields."""
    point = np.asarray(point, dtype=float)
    pvals = struct.phi.evaluate(point)
    xvals = struct.xi.evaluate(point)
    dphi = central_difference_grid(struct.phi.evaluate, point, step)
    deta_raw = central_difference_grid(struct.eta.evaluate, point, step)  # [c, l] = d_l eta_c
    d_eta = deta_raw.T - deta_raw
    pg = np.einsum("jkl->ljk", dphi)  # pg[a, j, k] = d_a phi^j_k
    term_bracket = np.einsum("ai,acj->cij", pvals, pg)
    term_through = np.einsum("jai,ca->cij", pg, pvals)
    return (
        term_bracket
        - np.einsum("cij->cji", term_bracket)
        + term_through
        - np.einsum("cij->cji", term_through)
        + 2.0 * np.einsum("ij,c->cij", d_eta, xvals)
    )


def nabla_phi_fd(struct: ContactStructure, point, step: float = 1e-6) -> np.ndarray:
    """Covariant derivative of phi from finite-difference connection and partials."""
    point = np.asarray(point, dtype=float)
    gamma = koszul_fd(struct.metric, point, step)
    pvals = struct.phi.evaluate(point)
    dphi = central_difference_grid(struct.phi.evaluate, point, step)
    return (
        np.einsum("jki->ijk", dphi)
        + np.einsum("jim,mk->ijk", gamma, pvals)
        - np.einsum("mik,jm->ijk", gamma, pvals)
    )


# ---------------------------------------------------------------------------
# Seeded random expressions (parser-canonical trees)
# ---------------------------------------------------------------------------

_EXPONENTS = (2.0, 3.0, -1.0, 0.5, -2.0)


def random_expression(rng: np.random.Generator, coords: tuple[str, ...], depth: int) -> ExpressionNode:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Num(float(np.round(rng.uniform(-3.0, 3.0), 3)))
        return Var(coords[int(rng.integers(len(coords)))])
    roll = rng.random()
    if roll < 0.15:
        operand = random_expression(rng, coords, depth - 1)
        if isinstance(operand, Num):
            return Num(-operand.value)
        return Neg(operand)
    if roll < 0.35:
        return Call(str(rng.choice(FUNCTIONS)), random_expression(rng, coords, depth - 1))
    if roll < 0.45:
        return BinOp("^", random_expression(rng, coords, depth - 1), Num(float(rng.choice(_EXPONENTS))))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return BinOp(op, random_expression(rng, coords, depth - 1), random_expression(rng, coords, depth - 1))


def fuzz_cases(count: int, seed: int, coords: tuple[str, ...] = ("u", "v", "w"), depth: int = 4):
    """Yield ``count`` (expression, point) pairs that evaluate tamely.

    A case is kept only if the jet evaluates and stays moderate on the full
    finite-difference stencil, so the comparisons are numerically meaningful.
    """
    from sewcells.expressions import evaluate_jet2

    rng = np.random.default_rng(seed)
    index = {name: i for i, name in enumerate(coords)}
    n = len(coords)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("random expression generator starved")
        expr = random_expression(rng, coords, depth)
        point = rng.uniform(-1.5, 1.5, size=n)
        try:
            jet = evaluate_jet2(expr, point, index)
            ok = (
                abs(jet.value) <= 1e4
                and float(np.max(np.abs(jet.grad))) <= 1e4
                and float(np.max(np.abs(jet.hess))) <= 1e4
            )
            if not ok:
                continue
            shifted = evaluate_jet2(expr, _stencil(point, 2e-5), index)
            # per stencil point, as each was judged alone: a NaN in a point's gradient hides its other entries
            if np.any((np.abs(shifted.value) > 1e5) | (np.max(np.abs(shifted.grad), axis=1) > 1e5)):
                raise EvaluationDomainError("stencil leaves the tame region")
        except EvaluationDomainError:
            continue
        produced += 1
        yield expr, point


def _stencil(point: np.ndarray, step: float) -> np.ndarray:
    """The 2n points ``point + step e_l`` and then ``point - step e_l``, l = 0..n-1,
    as one stack (2n, n): a stack evaluates as its rows do one at a time."""
    offsets = step * np.eye(point.shape[0])
    return np.concatenate([point + offsets, point - offsets])


def value_gradient_fd(expr: ExpressionNode, point: np.ndarray, index, step: float = 1e-6) -> np.ndarray:
    n = point.shape[0]
    values = evaluate(expr, _stencil(point, step), index)
    return (values[:n] - values[n:]) / (2.0 * step)


def gradient_hessian_fd(expr: ExpressionNode, point: np.ndarray, index, step: float = 1e-5) -> np.ndarray:
    from sewcells.expressions import evaluate_jet2

    n = point.shape[0]
    grads = evaluate_jet2(expr, _stencil(point, step), index).grad
    return ((grads[:n] - grads[n:]) / (2.0 * step)).T
