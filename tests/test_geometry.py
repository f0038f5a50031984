import json
import math
from dataclasses import replace

import numpy as np
import pytest

from geometry_helpers import covariant_derivative_vector, curvature_symmetry_residuals, dense_hessians
from oracles import h_tensor_fd, koszul_fd, nabla_phi_fd, normality_fd
from sewcells import cli
from sewcells.charts import Chart, TensorField, sample_points
from sewcells.expressions import to_source
from sewcells.geometry import (
    ALMOST_ALPHA_KENMOTSU,
    ALMOST_COSYMPLECTIC,
    GeometryError,
    christoffel,
    covariant_derivative_affinor,
    exterior_derivative,
    fundamental_form_with_derivative,
    h_tensor,
    lie_bracket,
    normality_tensor,
    riemann,
    verify_layers,
    wedge_eta_two_form,
    weight_fit,
)
from sewcells.manifold_io import load_manifold, save_manifold
from sewcells.nullity import classify_and_fit, fit_nullity, normalized


def euclidean_metric(n=3, names=("t", "x", "y")):
    chart = Chart(names)
    grid = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return TensorField.build(chart, 0, 2, grid)


class TestChristoffel:
    def test_euclidean_connection_vanishes(self):
        point = np.array([0.3, -0.2, 0.9])
        assert not christoffel(euclidean_metric(), point).any()
        gamma, rv = riemann(euclidean_metric(), point, np.array([0.5, -1.0, 2.0]))
        assert not gamma.any() and not rv.any()

    def test_model_cell_symbols_at_origin(self, model_cell):
        gamma = christoffel(model_cell.metric, np.zeros(3))
        # coordinates (t, x, y) = (0, 1, 2)
        assert gamma[0, 1, 1] == pytest.approx(-1.0, abs=1e-14)  # Gamma^t_xx
        assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-14)   # Gamma^x_tx
        assert gamma[0, 2, 2] == pytest.approx(1.0, abs=1e-14)   # Gamma^t_yy
        assert gamma[2, 0, 2] == pytest.approx(-1.0, abs=1e-14)  # Gamma^y_ty

    def test_symmetry_in_lower_indices(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 5, 21).coords:
                gamma = christoffel(cell.metric, point)
                assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))
                hesses = dense_hessians(cell.metric, point)  # so d Gamma is symmetric too
                assert np.array_equal(hesses, np.swapaxes(hesses, 2, 3))

    def test_matches_finite_difference_koszul(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 20, 8).coords:
                jet_gamma = christoffel(cell.metric, point)
                fd_gamma = koszul_fd(cell.metric, point)
                assert float(np.max(np.abs(jet_gamma - fd_gamma))) <= 1e-6

    def test_metric_compatibility(self, catalog_cells):
        # nabla_l g_ij = d_l g_ij - Gamma^m_li g_mj - Gamma^m_lj g_im = 0
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 10, 30).coords:
                vals, grads = cell.metric.evaluate_with_grads(point)
                gamma = christoffel(cell.metric, point)
                nabla_g = (
                    np.einsum("ijl->lij", grads)
                    - np.einsum("mli,mj->lij", gamma, vals)
                    - np.einsum("mlj,im->lij", gamma, vals)
                )
                assert float(np.max(np.abs(nabla_g))) <= 1e-10

    def test_singular_metric_raises(self):
        chart = Chart(("x", "y"))
        degenerate = TensorField.build(chart, 0, 2, [["1", "1"], ["1", "1"]])
        with pytest.raises(GeometryError):
            christoffel(degenerate, np.zeros(2))


class TestRiemann:
    def test_carries_the_connection_it_was_built_from(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 10, 17).coords:
                gamma = riemann(cell.metric, point, cell.xi.evaluate(point))[0]
                assert np.array_equal(gamma, christoffel(cell.metric, point))

    def test_flat_cell_curvature_vanishes(self, flat_cell):
        point = np.array([0.1, 0.2, 0.3])
        for v in np.eye(3):
            assert not riemann(flat_cell.metric, point, v)[1].any()

    def test_model_cell_reeb_curvature(self, model_cell):
        # R(d/dx, xi) xi = -d/dx at every t
        for t in (-0.5, 0.0, 0.7):
            rv = riemann(model_cell.metric, np.array([t, 0.4, -0.1]), np.array([1.0, 0.0, 0.0]))[1]
            vec = rv[:, 1, 0]  # R(e_x, e_t) e_t
            assert np.allclose(vec, [0.0, -1.0, 0.0], atol=1e-12)

    def test_halfspace_cell_reeb_curvature(self, halfspace_cell):
        # R(X, xi) xi = -(1 + e^{-4z}) X for the unit fields X = d/dx, d/dy
        for z in (0.5, 1.0, math.log(2.0)):
            point = np.array([0.4, -0.7, z])
            xi = halfspace_cell.xi.evaluate(point)
            rxi = riemann(halfspace_cell.metric, point, xi)[1]
            kappa = -(1.0 + math.exp(-4.0 * z))
            for axis in (0, 1):
                vec = rxi[:, axis, :] @ xi
                expected = np.zeros(3)
                expected[axis] = kappa
                assert np.allclose(vec, expected, atol=1e-10)

    def test_curvature_symmetries_on_catalog(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 50, 12).coords:
                residuals = curvature_symmetry_residuals(cell.metric, point, cell.xi.evaluate(point))
                assert residuals["antisymmetry"] <= 1e-9
                assert residuals["first_bianchi"] <= 1e-9
                assert residuals["g_skewness"] <= 1e-9
                assert residuals["along_vector"] <= 1e-13


class TestReebParallelism:
    def test_xi_is_geodesic_and_phi_is_xi_parallel(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 25, 40).coords:
                deriv = covariant_derivative_affinor(cell, point)
                assert deriv.nabla_xi_xi_norm <= 1e-9
                assert deriv.nabla_xi_phi_norm <= 1e-9

    def test_flat_cell_has_parallel_phi(self, flat_cell):
        deriv = covariant_derivative_affinor(flat_cell, np.array([0.3, 0.1, -0.4]))
        assert not deriv.nablaphi.any()

    def test_model_cell_phi_is_not_parallel(self, model_cell):
        deriv = covariant_derivative_affinor(model_cell, np.zeros(3))
        assert float(np.max(np.abs(deriv.nablaphi))) > 0.5

    def test_nabla_phi_matches_finite_differences(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 5, 52).coords:
                jet_version = covariant_derivative_affinor(cell, point).nablaphi
                fd_version = nabla_phi_fd(cell, point)
                assert float(np.max(np.abs(jet_version - fd_version))) <= 1e-6


class TestHTensor:
    def test_flat_cell_h_vanishes(self, flat_cell):
        tensors = h_tensor(flat_cell, np.array([0.5, -0.5, 0.2]))
        assert not tensors.h.any()
        assert not tensors.hprime.any()

    def test_model_cell_h_action(self, model_cell):
        for t in (0.0, 0.4):
            h = h_tensor(model_cell, np.array([t, 0.2, 0.3])).h
            # h(d/dx) = e^{2t} d/dy and h(d/dy) = e^{-2t} d/dx
            assert np.allclose(h[:, 1], [0.0, 0.0, math.exp(2 * t)], atol=1e-12)
            assert np.allclose(h[:, 2], [0.0, math.exp(-2 * t), 0.0], atol=1e-12)
            eigs = sorted(np.linalg.eigvals(h).real)
            assert np.allclose(eigs, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_h_symmetries_on_catalog(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 25, 63).coords:
                g, phi, xi, _ = cell.values_at(point)
                h = h_tensor(cell, point).h
                assert float(np.max(np.abs(h @ xi))) <= 1e-9           # h xi = 0
                gh = g @ h
                assert float(np.max(np.abs(gh - gh.T))) <= 1e-9        # g-symmetric
                assert float(np.max(np.abs(h @ phi + phi @ h))) <= 1e-9  # anticommutes
                assert abs(float(np.trace(h))) <= 1e-9                 # trace-free

    def test_matches_bracket_oracle(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 5, 71).coords:
                assert float(np.max(np.abs(h_tensor(cell, point).h - h_tensor_fd(cell, point)))) <= 1e-6

    def test_normalized_hprime_requires_alpha(self, kenmotsu_cell):
        point = np.array([0.1, 0.0, 0.0])
        hprime = h_tensor(kenmotsu_cell, point).hprime
        fit = fit_nullity(kenmotsu_cell, point)
        assert np.allclose(normalized(fit, 2.0).hprime, hprime / 2.0)
        with pytest.raises(ValueError):
            normalized(fit, 0.0)


class TestExteriorCalculus:
    def test_eta_is_closed_on_adapted_cells(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 10, 80).coords:
                d_eta = exterior_derivative(cell.eta, point)
                assert not d_eta.any()

    def test_flat_cell_fundamental_form_is_closed(self, flat_cell):
        _, d_phi = fundamental_form_with_derivative(flat_cell, np.array([0.2, 0.4, -0.3]))
        assert not d_phi.any()

    def test_kenmotsu_cell_weight_identity(self, kenmotsu_cell):
        # d(Phi) = 2 * 1 * eta ^ Phi for the alpha = 1 cell
        for point in sample_points(kenmotsu_cell.chart, 20, 90).coords:
            phi_form, d_phi = fundamental_form_with_derivative(kenmotsu_cell, point)
            eta = kenmotsu_cell.eta.evaluate(point)
            wedge = wedge_eta_two_form(eta, phi_form)
            assert float(np.max(np.abs(d_phi - 2.0 * wedge))) <= 1e-10

    def test_stored_two_form(self):
        # w = x dy ^ dz has dw = dx ^ dy ^ dz: (dw)_xyz = 1
        chart = Chart(("x", "y", "z"))
        omega = TensorField.build(
            chart, 0, 2, [["0", "0", "0"], ["0", "0", "x"], ["0", "-x", "0"]]
        )
        d_omega = exterior_derivative(omega, np.array([0.4, -0.2, 0.9]))
        assert d_omega[0, 1, 2] == 1.0
        assert d_omega[1, 0, 2] == -1.0 and d_omega[2, 0, 1] == 1.0
        assert d_omega[0, 0, 1] == 0.0

    def test_valence_check(self, flat_cell):
        with pytest.raises(GeometryError):
            exterior_derivative(flat_cell.phi, np.zeros(3))
        with pytest.raises(GeometryError):
            exterior_derivative(flat_cell.xi, np.zeros(3))


class TestNormality:
    def test_flat_cell_is_normal(self, flat_cell):
        torsion = normality_tensor(flat_cell, np.array([0.1, -0.2, 0.5]))
        assert not torsion.any()

    def test_model_cell_is_not_normal(self, model_cell):
        torsion = normality_tensor(model_cell, np.zeros(3))
        assert float(np.max(np.abs(torsion))) > 0.5

    def test_halfspace_cell_is_not_normal(self, halfspace_cell):
        torsion = normality_tensor(halfspace_cell, np.array([0.3, 0.4, 0.8]))
        assert float(np.max(np.abs(torsion))) > 1e-3

    def test_matches_brute_force_oracle(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 5, 95).coords:
                jet_version = normality_tensor(cell, point)
                fd_version = normality_fd(cell, point)
                assert float(np.max(np.abs(jet_version - fd_version))) <= 1e-6


class TestClassification:
    def test_flat_cell(self, flat_cell):
        samples = sample_points(flat_cell.chart, 20, 33)
        cl = classify_and_fit(flat_cell, samples, 1e-9, False)[0][0]
        assert cl.kind == ALMOST_COSYMPLECTIC and cl.is_cosymplectic

    def test_model_cell(self, model_cell):
        samples = sample_points(model_cell.chart, 20, 33)
        cl = classify_and_fit(model_cell, samples, 1e-9, False)[0][0]
        assert cl.kind == ALMOST_COSYMPLECTIC and not cl.is_cosymplectic

    def test_kenmotsu_cell(self, kenmotsu_cell):
        samples = sample_points(kenmotsu_cell.chart, 20, 33)
        cl = classify_and_fit(kenmotsu_cell, samples, 1e-9, False)[0][0]
        assert cl.kind == ALMOST_ALPHA_KENMOTSU
        assert cl.alpha == pytest.approx(1.0, abs=1e-9)

    def test_halfspace_cell(self, halfspace_cell):
        samples = sample_points(halfspace_cell.chart, 20, 33)
        cl = classify_and_fit(halfspace_cell, samples, 1e-9, False)[0][0]
        assert cl.kind == ALMOST_ALPHA_KENMOTSU
        assert cl.alpha == pytest.approx(1.0, abs=1e-9)

    def test_weight_fit_is_exact_in_dimension_three(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 25, 44).coords:
                _, residual = weight_fit(cell, point)
                assert residual <= 1e-9

    def test_weight_fit_is_exact_for_transverse_weight(self):
        # g = dt^2 + dx^2 + e^{2tx} dy^2 has the weight x/2, which is not
        # even aligned with eta; the pointwise fit must still be exact
        from sewcells.charts import ContactStructure

        chart = Chart(("t", "x", "y"), adapted_index=0)
        cell = ContactStructure(
            name="transverse_weight",
            chart=chart,
            metric=TensorField.build(chart, 0, 2, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "exp(2*t*x)"]]),
            phi=TensorField.build(chart, 1, 1, [["0", "0", "0"], ["0", "0", "-exp(t*x)"], ["0", "exp(-(t*x))", "0"]]),
            xi=TensorField.build(chart, 1, 0, ["1", "0", "0"]),
            eta=TensorField.build(chart, 0, 1, ["1", "0", "0"]),
        )
        from sewcells.charts import validate_structure

        samples = sample_points(chart, 20, 44)
        assert validate_structure(cell, samples, 1e-9).passed
        for point in samples.coords:
            lam, residual = weight_fit(cell, point)
            assert residual <= 1e-12
            assert lam == pytest.approx(point[1] / 2.0, abs=1e-12)
        cl = classify_and_fit(cell, samples, 1e-9, False)[0][0]
        assert cl.kind == "weight_function"

    def test_nonconstant_weight_reported(self):
        # alpha-Kenmotsu with two different alphas patched by hand is not a
        # thing; instead use a cell whose weight genuinely varies: scale the
        # kenmotsu warping to depend on t quadratically.
        chart = Chart(("t", "x", "y"), adapted_index=0)
        cell_grid = {
            "metric": [["1", "0", "0"], ["0", "exp(2*t + t^2)", "0"], ["0", "0", "exp(2*t + t^2)"]],
            "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
        }
        from sewcells.charts import ContactStructure

        cell = ContactStructure(
            name="variable_weight",
            chart=chart,
            metric=TensorField.build(chart, 0, 2, cell_grid["metric"]),
            phi=TensorField.build(chart, 1, 1, cell_grid["phi"]),
            xi=TensorField.build(chart, 1, 0, ["1", "0", "0"]),
            eta=TensorField.build(chart, 0, 1, ["1", "0", "0"]),
        )
        samples = sample_points(chart, 15, 2)
        cl = classify_and_fit(cell, samples, 1e-9, False)[0][0]
        assert cl.kind == "weight_function"


    def test_carries_the_largest_derivative_magnitudes(self, halfspace_cell, tmp_path):
        # verify's Reeb checks are the largest norms that covariant_derivative_affinor gives at its samples
        path, report = tmp_path / "halfspace.json", tmp_path / "report.json"
        save_manifold(halfspace_cell, path)
        assert cli.main(["verify", str(path), "--points", "30", "--seed", "5", "--json", str(report)]) == 0
        residuals = {c["name"]: c["residual"] for c in json.loads(report.read_text())["subjects"][0]["checks"]}
        cell = load_manifold(path)
        samples = sample_points(cell.chart, 30, 5)
        derivatives = [covariant_derivative_affinor(cell, point) for point in samples.coords]
        assert residuals["phi_parallel_along_xi"] == max(d.nabla_xi_phi_norm for d in derivatives)
        assert residuals["xi_geodesic"] == max(d.nabla_xi_xi_norm for d in derivatives)
        cl = classify_and_fit(halfspace_cell, samples, 1e-9, False)[0][0]
        assert not hasattr(cl, "nabla_xi_phi_max") and not hasattr(cl, "normality_max")  # only verify reads them
        torsion = verify_layers(halfspace_cell, samples.coords)[-1]
        assert torsion.max() == max(np.abs(normality_tensor(halfspace_cell, point)).max() for point in samples.coords)
        assert torsion.max() > 0.0

    def test_weight_is_nan_where_eta_wedge_phi_vanishes(self, model_cell):
        # phi scaled by x: eta ^ Phi vanishes on x = 0, where no weight is defined
        assert model_cell.chart.coords == ("t", "x", "y")
        scaled = [[f"x*({to_source(model_cell.phi.component((i, j)))})" for j in range(3)] for i in range(3)]
        cell = replace(model_cell, phi=TensorField.build(model_cell.chart, 1, 1, scaled))
        lam, residual = weight_fit(cell, np.array([[0.1, 0.0, 0.2], [0.1, 0.5, 0.2]]))
        assert np.isnan(lam[0]) and np.isnan(residual[0])
        assert np.isfinite(lam[1]) and residual[1] <= 1e-12
        assert all(math.isnan(v) for v in weight_fit(cell, np.array([0.1, 0.0, 0.2])))


class TestVectorFieldHelpers:
    def test_lie_bracket_of_coordinate_fields_vanishes(self, model_cell):
        chart = model_cell.chart
        e_x = TensorField.build(chart, 1, 0, ["0", "1", "0"])
        e_y = TensorField.build(chart, 1, 0, ["0", "0", "1"])
        assert not lie_bracket(e_x, e_y, np.array([0.3, 0.1, 0.2])).any()

    def test_lie_bracket_known_case(self):
        chart = Chart(("x", "y"))
        v = TensorField.build(chart, 1, 0, ["1", "0"])       # d/dx
        w = TensorField.build(chart, 1, 0, ["0", "x"])       # x d/dy
        bracket = lie_bracket(v, w, np.array([2.0, 5.0]))
        assert np.array_equal(bracket, [0.0, 1.0])

    def test_covariant_derivative_of_xi_along_xi(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 5, 77).coords:
                vec = covariant_derivative_vector(cell.metric, cell.xi, cell.xi, point)
                assert float(np.max(np.abs(vec))) <= 1e-12
