import math

import numpy as np
import pytest

from sewcells.charts import (
    BATCH_BYTES,
    CellDefinition,
    Chart,
    ChartError,
    Constraint,
    PointSample,
    Residual,
    SampleEvaluationError,
    SamplingError,
    TensorField,
    batch_size,
    column_field,
    evaluate_batches,
    sample_points,
    sample_points_grouped,
    validate_structure,
)
from sewcells.expressions import EvaluationDomainError
from sewcells.geometry import fundamental_form_with_derivative, h_tensor
from sewcells.sewing import sew


class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ChartError):
            Chart(("x", "x", "y"))

    def test_function_name_rejected(self):
        with pytest.raises(ChartError):
            Chart(("exp", "x", "y"))

    def test_adapted_index_bounds(self):
        with pytest.raises(ChartError):
            Chart(("x", "y"), adapted_index=5)

    def test_constraint_normalization(self):
        c = Constraint.from_source("z > 0", ("x", "y", "z"))
        assert c.source() == "z > 0"
        c2 = Constraint.from_source("x < 1", ("x", "y", "z"))
        assert c2.source() == "1.0 - x > 0"
        # canonical form is a fixed point of load -> serialize
        c3 = Constraint.from_source(c2.source(), ("x", "y", "z"))
        assert c3.source() == c2.source()


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        chart = Chart(("t", "x", "y"))
        assert sample_points(chart, 5, 42) == sample_points(chart, 5, 42)

    def test_constraints_are_satisfied(self):
        chart = Chart(("x", "y", "z"), (Constraint.from_source("z > 0", ("x", "y", "z")),))
        for sample in sample_points(chart, 100, 3):
            assert sample.coords[2] > 0

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_points(Chart(("x",)), 0, 1)

    def test_thin_domain_fails_loudly(self):
        chart = Chart(("x",), (Constraint.from_source("x - 10 > 0", ("x",)),))
        with pytest.raises(SamplingError):
            sample_points(chart, 1, 0)

    def test_grouped_sampler_shares_adapted_values(self):
        chart = Chart(("t", "x", "y"), adapted_index=0)
        samples = sample_points_grouped(chart, 4, 3, 9)
        assert len(samples) == 12
        t_values = {s.coords[0] for s in samples}
        assert len(t_values) == 4
        for t in t_values:
            assert sum(1 for s in samples if s.coords[0] == t) == 3

    def test_grouped_sampler_needs_adapted_chart(self):
        with pytest.raises(ChartError):
            sample_points_grouped(Chart(("t", "x")), 3, 2, 0)


class TestValidation:
    def test_catalog_cells_pass(self, catalog_cells):
        for cell in catalog_cells:
            samples = sample_points(cell.chart, 50, 13)
            report = validate_structure(cell, samples, 1e-9)
            assert report.passed, report.format_table()

    def test_flat_cell_residuals_are_round_off(self, flat_cell):
        report = validate_structure(flat_cell, sample_points(flat_cell.chart, 10, 1), 1e-9)
        for check in report.checks:
            assert check.residual <= 1e-15

    def test_model_cell_passes_at_tight_tolerance(self, model_cell):
        report = validate_structure(model_cell, sample_points(model_cell.chart, 25, 1), 1e-12)
        assert report.passed, report.format_table()

    def test_sign_flipped_phi_fails_validation(self, model_cell):
        chart = model_cell.chart
        broken = CellDefinition(
            name="broken",
            chart=chart,
            metric=model_cell.metric,
            # phi with the sign of one component flipped; the quadratic
            # compatibility condition cannot see a single sign, but phi^2 does
            phi=TensorField.build(chart, 1, 1, [["0", "0", "0"], ["0", "0", "exp(-2*t)"], ["0", "exp(2*t)", "0"]]),
            xi=model_cell.xi,
            eta=model_cell.eta,
        )
        report = validate_structure(broken, sample_points(chart, 10, 2), 1e-9)
        assert not report.passed
        assert report.check("phi_square_identity").residual >= 0.1

    def test_adapted_eta_components_are_exact(self, catalog_cells):
        for cell in catalog_cells:
            t = cell.chart.adapted_index
            for sample in sample_points(cell.chart, 10, 4):
                eta = cell.eta.evaluate(sample.array())
                expected = np.zeros(3)
                expected[t] = 1.0
                assert np.array_equal(eta, expected)


class TestFundamentalForm:
    def test_flat_cell_components(self, flat_cell):
        phi_form, _ = fundamental_form_with_derivative(flat_cell, np.zeros(3))
        # with Phi_ij = g_ik phi^k_j and phi(e_x) = e_y this gives Phi_yx = +1
        expected = np.zeros((3, 3))
        expected[2, 1] = 1.0
        expected[1, 2] = -1.0
        assert np.array_equal(phi_form, expected)

    def test_model_cell_at_interior_point(self, model_cell):
        phi_form, _ = fundamental_form_with_derivative(model_cell, np.array([0.3, 0.1, -0.2]))
        assert phi_form[0, 1] == phi_form[0, 2] == 0.0  # no dt components
        assert phi_form[2, 1] == pytest.approx(1.0, abs=1e-15)
        assert phi_form[1, 2] == pytest.approx(-1.0, abs=1e-15)

    def test_antisymmetry_and_reeb_annihilation(self, catalog_cells):
        for cell in catalog_cells:
            for sample in sample_points(cell.chart, 20, 5):
                point = sample.array()
                phi_form, _ = fundamental_form_with_derivative(cell, point)
                assert float(np.max(np.abs(phi_form + phi_form.T))) <= 1e-12
                xi = cell.xi.evaluate(point)
                assert float(np.max(np.abs(xi @ phi_form))) <= 1e-12


class TestIndexOperations:
    def test_h_is_trace_free_on_model_cell(self, model_cell):
        for sample in sample_points(model_cell.chart, 10, 6):
            h = h_tensor(model_cell, sample.array()).h
            assert abs(float(np.trace(h))) <= 1e-12


class TestResidual:
    def test_no_values_passes_with_zero(self):
        result = Residual("empty", 1e-8).add(np.zeros(0)).result()
        assert (result.residual, result.tolerance, result.passed) == (0.0, 1e-8, True)

    def test_keeps_the_largest_magnitude(self):
        r = Residual("r", 1.0).add(0.25).add(np.array([[0.1, -0.75], [0.5, 0.0]])).add(-0.5)
        assert r.value == 0.75 and r.passed

    def test_exactly_at_tolerance_passes(self):
        assert Residual("r", 0.5).add(-0.5).passed
        assert not Residual("r", 0.5).add(np.nextafter(0.5, 1.0)).passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_fails_wherever_it_comes(self, bad):
        for values in ([bad, 0.0], [0.0, bad, 0.0], [np.array([1e-20, bad])]):
            r = Residual("r", 1e300)
            for v in values:
                r.add(v)
            result = r.result()
            assert not result.passed
            assert not math.isfinite(result.residual)

    def test_nan_sticks_after_larger_values(self):
        r = Residual("r", math.inf).add(math.nan).add(1e10).add(math.inf)
        assert math.isnan(r.value) and not r.passed


class TestTensorField:
    def test_shape_validation(self):
        chart = Chart(("x", "y"))
        with pytest.raises(ChartError):
            TensorField.build(chart, 0, 2, [["1", "0"], ["0"]])

    def test_unknown_coordinate_rejected(self):
        chart = Chart(("x", "y"))
        with pytest.raises(Exception):
            TensorField.build(chart, 1, 0, ["z", "0"])

    def test_column_field(self, model_cell):
        col = column_field(model_cell.phi, 1)
        point = np.array([0.2, 0.0, 0.0])
        assert np.array_equal(col.evaluate(point), model_cell.phi.evaluate(point)[:, 1])

    def test_point_sample_array(self):
        s = PointSample((1.0, 2.0), seed=3, draw=4)
        assert np.array_equal(s.array(), [1.0, 2.0])


class TestStacks:
    def test_field_over_a_stack_matches_its_rows(self, catalog_cells):
        for cell in (*catalog_cells, sew([catalog_cells[-1]] * 3)):
            points = np.array([s.coords for s in sample_points(cell.chart, 6, 4)])
            for field in (cell.metric, cell.phi, cell.xi, cell.eta):
                stacked = (field.evaluate(points),) + field.evaluate_with_jets(points)
                rows = [(field.evaluate(p),) + field.evaluate_with_jets(p) for p in points]
                for got, expected in zip(stacked, zip(*rows)):
                    assert np.array_equal(got, np.array(expected))
                assert all(np.array_equal(a, b) for a, b in zip(field.evaluate_with_grads(points), stacked[1:]))

    def test_constant_components_fold_once(self, model_cell):
        # the model metric has constant entries; their derivatives are exact zeros
        vals, grads, hesses = model_cell.metric.evaluate_with_jets(np.array([0.3, -0.2, 0.5]))
        assert vals[0, 0] == 1.0 and not grads[0, 0].any() and not hesses[0, 0].any()
        assert model_cell.metric.evaluate(np.zeros((0, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("dim", [1, 3, 5, 7, 13, 18, 40])
    def test_batch_stays_within_budget(self, dim):
        size = batch_size(dim)
        assert size >= 1
        assert size == 1 or size * 8 * dim**3 <= BATCH_BYTES

    def test_batches_name_the_first_failing_sample(self):
        dim = 13
        size = batch_size(dim)
        samples = [PointSample((float(i),) + (0.0,) * (dim - 1), 0, i) for i in range(3 * size)]
        bad = {size + 2, size + 4, 2 * size + 1}
        seen = []

        def evaluate_stack(points):
            seen.append(len(points))
            if any(int(p[0]) in bad for p in points):
                raise EvaluationDomainError("bad row")
            return len(points)

        with pytest.raises(SampleEvaluationError) as err:
            for _ in evaluate_batches(samples, dim, evaluate_stack):
                pass
        assert err.value.sample.draw == size + 2
        # two whole batches, then the failing batch again row by row up to the bad row
        assert seen == [size, size] + [1] * 3
