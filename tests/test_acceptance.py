"""Acceptance suite: every criterion at its stated tolerance.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` to see
them as they execute).
"""

import itertools
import math

import numpy as np
import pytest

from geometry_helpers import covariant_derivative_vector, curvature_symmetry_residuals, on_full_grid
from oracles import fuzz_cases, gradient_hessian_fd, koszul_fd, value_gradient_fd
from sewcells.catalog import model_cosymplectic_cell, standard_cells
from sewcells.charts import TensorField, sample_points, sample_points_grouped, validate_structure
from sewcells.expressions import evaluate_jet2
from sewcells.geometry import (
    christoffel,
    covariant_derivative_affinor,
    exterior_derivative,
    fundamental_form_with_derivative,
    h_tensor,
    lie_bracket,
)
from sewcells.nullity import check_generalized, fit_nullity
from sewcells.sewing import (
    extrinsic_report,
    sew,
    verify_f_structure,
    verify_lift_laws,
    verify_sewing_theorems,
)

SEED = 7


def _conclude(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}  ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cells():
    return standard_cells()


def test_criterion_1_model_cell_nullity():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        cell = model_cosymplectic_cell(lam)
        for point in sample_points(cell.chart, 25, SEED).coords:
            fit = fit_nullity(cell, point)
            worst = max(
                worst,
                abs(fit.kappa + lam * lam),
                abs(fit.mu),
                abs(fit.muprime),
                fit.residual,
            )
    _conclude(
        "criterion 1: model-cell nullity (-lam^2, 0, 0) for lam in {0.5, 1, 2}",
        worst <= 1e-8,
        f"max defect {worst:.3e} <= 1e-8",
    )


def test_criterion_2_model_transfer_pair_and_triple():
    cell = model_cosymplectic_cell(1.0)
    worst_form = 0.0
    worst_fit = 0.0
    for copies, expected_kappa in ((2, -0.5), (3, -1.0 / 3.0)):
        sewn = sew([cell] * copies)
        for point in sample_points(sewn.chart, 25, SEED).coords:
            worst_form = max(worst_form, float(np.max(np.abs(exterior_derivative(sewn.eta, point)))))
            _, d_phi = fundamental_form_with_derivative(sewn, point)
            worst_form = max(worst_form, float(np.max(np.abs(d_phi))))
            fit = fit_nullity(sewn, point)
            worst_fit = max(worst_fit, abs(fit.kappa - expected_kappa), fit.residual)
    ok = worst_form <= 1e-9 and worst_fit <= 1e-8
    _conclude(
        "criterion 2: sewn model cells stay almost cosymplectic with kappa/k",
        ok,
        f"max |d(eta)|, |d(Phi)| {worst_form:.3e} <= 1e-9; kappa defect {worst_fit:.3e} <= 1e-8",
    )


def test_criterion_3_halfspace_regression(halfspace_cell):
    worst_cell = 0.0
    for point in sample_points(halfspace_cell.chart, 10, SEED).coords:
        fit = fit_nullity(halfspace_cell, point)
        expected = -(1.0 + math.exp(-4.0 * point[2]))
        worst_cell = max(worst_cell, abs(fit.kappa - expected), abs(fit.mu), abs(fit.muprime), fit.residual)

    sewn = sew([halfspace_cell, halfspace_cell])
    worst_sewn = 0.0
    samples = sample_points(sewn.chart, 10, SEED)
    for point in samples.coords:
        fit = fit_nullity(sewn, point)
        expected = -(1.0 + math.exp(-4.0 * point[0])) / 2.0
        worst_sewn = max(worst_sewn, abs(fit.kappa - expected), fit.residual)

    # bracket and covariant-derivative tables in the rotated frame
    root = 1.0 / math.sqrt(2.0)

    def const_field(values):
        return TensorField.build(sewn.chart, 1, 0, [repr(float(v)) for v in values])

    xbar = [const_field([0, root, root, 0, 0]), const_field([0, 0, 0, root, root])]
    ybar = [const_field([0, -root, root, 0, 0]), const_field([0, 0, 0, -root, root])]
    worst_table = 0.0
    for point in samples.coords:
        s = point[0]
        c_minus = (1.0 - math.exp(-2.0 * s)) * root
        c_plus = (1.0 + math.exp(-2.0 * s)) * root
        xi_vals = sewn.xi.evaluate(point)
        for field, coeff in [(xbar[0], c_minus), (xbar[1], c_minus), (ybar[0], c_plus), (ybar[1], c_plus)]:
            vals = field.evaluate(point)
            worst_table = max(
                worst_table,
                float(np.max(np.abs(lie_bracket(field, sewn.xi, point) - coeff * vals))),
                float(np.max(np.abs(covariant_derivative_vector(sewn.metric, field, sewn.xi, point) - coeff * vals))),
                float(np.max(np.abs(covariant_derivative_vector(sewn.metric, field, field, point) + coeff * xi_vals))),
                float(np.max(np.abs(covariant_derivative_vector(sewn.metric, sewn.xi, field, point)))),
            )
    ok = worst_cell <= 1e-8 and worst_sewn <= 1e-8 and worst_table <= 1e-9
    _conclude(
        "criterion 3: halfspace cell kappa(z), sewn kappa(s), frame tables",
        ok,
        f"cell {worst_cell:.3e} <= 1e-8; sewn {worst_sewn:.3e} <= 1e-8; tables {worst_table:.3e} <= 1e-9",
    )


def test_criterion_4_kenmotsu_transfer(kenmotsu_cell, sewing_inputs):
    product, sewn, _, grouped = sewing_inputs([kenmotsu_cell, kenmotsu_cell], 25, SEED)
    report = verify_sewing_theorems(product, sewn, grouped, 1e-8)
    alpha = report.sewn_classification.alpha
    alpha_ok = alpha is not None and abs(alpha - 1.0 / math.sqrt(2.0)) <= 1e-8
    # the fits the stage takes at its samples
    kappa_defect = float(np.abs(fit_nullity(sewn, grouped.coords).kappa + 1.0).max())
    comp = report.convention_comparison
    recorded = comp is not None and comp.reproduces_inverse_k in ("kenmotsu", "raw")
    ok = alpha_ok and kappa_defect <= 1e-8 and recorded and comp.reproduces_inverse_k == "kenmotsu"
    _conclude(
        "criterion 4: sewn Kenmotsu pair, alpha/sqrt(2) and kappa0/2, convention recorded",
        ok,
        f"alpha defect {abs(alpha - 1.0 / math.sqrt(2.0)):.3e} <= 1e-8; kappa defect {kappa_defect:.3e} <= 1e-8; "
        f"mu'-halving convention: {comp.reproduces_inverse_k}",
    )


def _structure_suite_residual(struct, samples) -> float:
    worst = 0.0
    report = validate_structure(struct, samples, 1e-9)
    assert report.check("metric_positive_definite").passed
    for check in report.checks:
        if check.name != "metric_positive_definite":
            worst = max(worst, check.residual)
    for point in samples.coords:
        deriv = covariant_derivative_affinor(struct, point)
        worst = max(worst, deriv.nabla_xi_xi_norm, deriv.nabla_xi_phi_norm)
        g, phi, xi = (struct.metric.evaluate(point), struct.phi.evaluate(point), struct.xi.evaluate(point))
        h = h_tensor(on_full_grid(struct), point).h
        gh = g @ h
        worst = max(
            worst,
            float(np.max(np.abs(h @ xi))),
            float(np.max(np.abs(gh - gh.T))),
            float(np.max(np.abs(h @ phi + phi @ h))),
            abs(float(np.trace(h))),
        )
        worst = max(worst, max(curvature_symmetry_residuals(struct.metric, point, xi).values()))
    return worst


def test_criterion_5_structure_theorem_suite(cells):
    worst = 0.0
    subjects = list(cells)
    for cell in cells:
        subjects.append(sew([cell, cell]))
        subjects.append(sew([cell, cell, cell]))
    for struct in subjects:
        samples = sample_points(struct.chart, 50, SEED)
        worst = max(worst, _structure_suite_residual(struct, samples))
    _conclude(
        "criterion 5: axioms, Reeb parallelism, h and curvature symmetries on all cells and sewn copies",
        worst <= 1e-9,
        f"max residual {worst:.3e} <= 1e-9 over {len(subjects)} structures x 50 samples",
    )


def test_criterion_6_product_proposition_suite(cells, sewing_inputs):
    worst_f = worst_lift = worst_invol = worst_ext = 0.0
    ranks_ok = blocks_ok = True
    for a, b in itertools.combinations_with_replacement(range(len(cells)), 2):
        pair = [cells[a], cells[b]]
        product, sewn, sewn_samples, _ = sewing_inputs(pair, 25, SEED)
        samples = sample_points(product.chart, 25, SEED)
        f_rep = verify_f_structure(product, samples, 1e-9)
        ranks_ok = ranks_ok and f_rep.check("kernel_rank").passed
        worst_f = max(worst_f, f_rep.check("f_cubed_plus_f").residual, f_rep.check("coframing_closed").residual)
        lift = verify_lift_laws(product, samples, 1e-9)
        worst_lift = max(worst_lift, lift.check("lifted_covariant_derivative").residual)
        blocks_ok = blocks_ok and lift.check("block_structure").passed
        worst_invol = max(worst_invol, lift.check("image_median_involutive").residual)
        ext = extrinsic_report(product, sewn, sewn_samples, 1e-8)
        worst_ext = max(
            worst_ext,
            ext.check("normal_connection_flat").residual,
            ext.check("weingarten_kills_xi").residual,
            ext.check("curvature_xi_tangent").residual,
            ext.check("curvature_restriction_match").residual,
        )
    ok = (
        ranks_ok
        and worst_f <= 1e-9
        and worst_lift <= 1e-9
        and blocks_ok
        and worst_invol <= 1e-9
        and worst_ext <= 1e-8
    )
    _conclude(
        "criterion 6: product and submanifold propositions on all catalog pairs",
        ok,
        f"f/coframing {worst_f:.3e} <= 1e-9; lift {worst_lift:.3e} <= 1e-9; block structure {'exact' if blocks_ok else 'broken'}; "
        f"involutivity {worst_invol:.3e} <= 1e-9; extrinsic {worst_ext:.3e} <= 1e-8; kernel ranks {'ok' if ranks_ok else 'bad'}",
    )


def test_criterion_7_oracle_equivalence(cells):
    worst_gamma = 0.0
    for cell in cells:
        for point in sample_points(cell.chart, 20, SEED).coords:
            diff = christoffel(cell.metric, point) - koszul_fd(cell.metric, point)
            worst_gamma = max(worst_gamma, float(np.max(np.abs(diff))))

    coords = ("u", "v", "w")
    index = {name: i for i, name in enumerate(coords)}
    grad_ok = hess_ok = True
    count = 0
    for expr, point in fuzz_cases(1000, seed=SEED, coords=coords):
        count += 1
        jet = evaluate_jet2(expr, point, index)
        fd_grad = value_gradient_fd(expr, point, index)
        scale_g = max(1.0, float(np.max(np.abs(jet.grad))))
        grad_ok = grad_ok and float(np.max(np.abs(fd_grad - jet.grad))) <= 1e-6 * scale_g
        fd_hess = gradient_hessian_fd(expr, point, index)
        scale_h = max(1.0, float(np.max(np.abs(jet.hess))))
        hess_ok = hess_ok and float(np.max(np.abs(fd_hess - jet.hess))) <= 1e-5 * scale_h
    ok = worst_gamma <= 1e-6 and grad_ok and hess_ok and count == 1000
    _conclude(
        "criterion 7: jet Christoffel vs finite-difference Koszul; 1000-expression jet fuzz",
        ok,
        f"Gamma defect {worst_gamma:.3e} <= 1e-6; {count} expressions, gradients at 1e-6: {grad_ok}, Hessians at 1e-5: {hess_ok}",
    )


def test_criterion_8_generalized_nullity_structure(halfspace_cell):
    def generalized(struct):
        samples = sample_points_grouped(struct.chart, 5, 3, SEED)
        return check_generalized(struct, samples, fit_nullity(struct, samples.coords), 1e-8)

    single = generalized(halfspace_cell)
    paired = generalized(sew([halfspace_cell, halfspace_cell]))
    ok = (
        single.eta_aligned
        and not single.constant_kappa
        and paired.eta_aligned
        and not paired.constant_kappa
    )
    _conclude(
        "criterion 8: generalized nullity is aligned with eta but not constant",
        ok,
        f"single: aligned spread {single.group_spread_max:.3e} <= 1e-8, kappa spread {single.kappa_spread:.3e}; "
        f"sewn: aligned spread {paired.group_spread_max:.3e} <= 1e-8, kappa spread {paired.kappa_spread:.3e}",
    )
