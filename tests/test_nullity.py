import math

import numpy as np
import pytest

from sewcells.catalog import kenmotsu_warped_cell, model_cosymplectic_cell
from sewcells.charts import ChartError, sample_points, sample_points_grouped
from sewcells.nullity import (
    RAW,
    Convention,
    check_generalized,
    fit_nullity,
    kenmotsu_convention,
)


class TestConvention:
    def test_raw_label(self):
        assert RAW.label() == "raw-h'"

    def test_normalized_needs_alpha(self):
        with pytest.raises(ValueError):
            Convention("kenmotsu")
        with pytest.raises(ValueError):
            kenmotsu_convention(0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Convention("other")


class TestPointFits:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_model_cell_constant_nullity(self, lam):
        cell = model_cosymplectic_cell(lam)
        for sample in sample_points(cell.chart, 25, 7):
            fit = fit_nullity(cell, sample.array())
            assert fit.residual <= 1e-8
            assert fit.kappa == pytest.approx(-lam * lam, abs=1e-8)
            assert abs(fit.mu) <= 1e-8 and abs(fit.muprime) <= 1e-8
            assert fit.determinate_mu

    def test_flat_cell_is_degenerate(self, flat_cell):
        fit = fit_nullity(flat_cell, np.array([0.3, -0.1, 0.4]))
        assert fit.kappa == 0.0
        assert fit.h_norm == 0.0
        assert not fit.determinate_mu
        assert fit.mu == 0.0 and fit.muprime == 0.0

    def test_halfspace_cell_at_log_two(self, halfspace_cell):
        fit = fit_nullity(halfspace_cell, np.array([0.4, -0.3, math.log(2.0)]))
        assert fit.kappa == pytest.approx(-1.0625, abs=1e-8)
        assert abs(fit.mu) <= 1e-8 and abs(fit.muprime) <= 1e-8
        assert fit.residual <= 1e-8

    def test_kenmotsu_cell_both_conventions(self):
        # alpha = 2 separates the conventions: mu' scales by alpha between them
        cell = kenmotsu_warped_cell(alpha=2.0, kappa0=-8.0)
        point = np.array([0.2, 0.1, -0.3])
        raw = fit_nullity(cell, point, RAW)
        normalized = fit_nullity(cell, point, kenmotsu_convention(2.0))
        assert raw.kappa == pytest.approx(-8.0, abs=1e-8)
        assert normalized.kappa == pytest.approx(-8.0, abs=1e-8)
        assert raw.muprime == pytest.approx(-4.0, abs=1e-8)          # -2 alpha
        assert normalized.muprime == pytest.approx(-8.0, abs=1e-8)   # -2 alpha^2
        assert normalized.muprime == pytest.approx(2.0 * raw.muprime, rel=1e-9)

    def test_residuals_small_on_catalog(self, catalog_cells):
        for cell in catalog_cells:
            for sample in sample_points(cell.chart, 50, 19):
                assert fit_nullity(cell, sample.array()).residual <= 1e-8

    def test_residuals_small_on_sewn_pairs(self, catalog_cells):
        from sewcells.sewing import sew

        for cell in catalog_cells:
            sewn = sew([cell, cell])
            for sample in sample_points(sewn.chart, 50, 19):
                assert fit_nullity(sewn, sample.array()).residual <= 1e-8

    def test_residual_detects_non_nullity_structures(self):
        # x-dependent warping keeps the structure axioms but makes
        # R(d/dx, d/dy) xi nonzero, which no (kappa, mu, mu') can explain
        from sewcells.charts import CellDefinition, Chart, TensorField, validate_structure

        chart = Chart(("t", "x", "y"), adapted_index=0)
        gxx = "exp(2*t)"
        gyy = "exp(-2*t)*(1 + x^2/4)"
        ratio = f"sqrt(({gxx})/({gyy}))"
        cell = CellDefinition(
            name="x_warped",
            chart=chart,
            metric=TensorField.build(chart, 0, 2, [["1", "0", "0"], ["0", gxx, "0"], ["0", "0", gyy]]),
            phi=TensorField.build(
                chart, 1, 1, [["0", "0", "0"], ["0", "0", f"-1/({ratio})"], ["0", ratio, "0"]]
            ),
            xi=TensorField.build(chart, 1, 0, ["1", "0", "0"]),
            eta=TensorField.build(chart, 0, 1, ["1", "0", "0"]),
        )
        samples = sample_points(chart, 20, 7)
        assert validate_structure(cell, samples, 1e-9).passed
        residuals = [fit_nullity(cell, s.array()).residual for s in samples]
        assert max(residuals) > 1e-2

    def test_invariance_under_transverse_coordinate_permutation(self, halfspace_cell, model_cell):
        for cell, swap in ((halfspace_cell, (1, 0, 2)), (model_cell, (0, 2, 1))):
            for sample in sample_points(cell.chart, 10, 23):
                point = sample.array()
                permuted = point[list(swap)]
                original = fit_nullity(cell, point)
                swapped = fit_nullity(cell, permuted)
                assert swapped.kappa == pytest.approx(original.kappa, abs=1e-9)


def generalized(struct, samples):
    fits = [fit_nullity(struct, s.array()) for s in samples]
    return check_generalized(struct, samples, fits, 1e-8)


class TestGeneralized:
    def test_model_cell_is_constant(self, model_cell):
        samples = sample_points_grouped(model_cell.chart, 5, 3, 7)
        report = generalized(model_cell, samples)
        assert report.constant_kappa
        assert report.eta_aligned
        assert all(f.kappa == pytest.approx(-1.0, abs=1e-8) for f in report.fits)

    def test_flat_cell_is_constant_zero(self, flat_cell):
        samples = sample_points_grouped(flat_cell.chart, 5, 2, 7)
        report = generalized(flat_cell, samples)
        assert report.constant_kappa and report.constant_mu and report.constant_muprime
        assert report.eta_aligned
        assert all(f.kappa == pytest.approx(0.0, abs=1e-10) for f in report.fits)

    def test_halfspace_cell_is_aligned_but_not_constant(self, halfspace_cell):
        samples = sample_points_grouped(halfspace_cell.chart, 5, 3, 7)
        report = generalized(halfspace_cell, samples)
        assert not report.constant_kappa
        assert report.eta_aligned
        for sample, fit in zip(report.samples, report.fits):
            z = sample.coords[2]
            assert fit.kappa == pytest.approx(-(1.0 + math.exp(-4.0 * z)), abs=1e-8)

    def test_requires_adapted_chart(self):
        from sewcells.charts import CellDefinition, Chart, TensorField

        chart = Chart(("t", "x", "y"), adapted_index=None)
        identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        cell = CellDefinition(
            name="unadapted_flat",
            chart=chart,
            metric=TensorField.build(chart, 0, 2, identity),
            phi=TensorField.build(chart, 1, 1, [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]),
            xi=TensorField.build(chart, 1, 0, ["1", "0", "0"]),
            eta=TensorField.build(chart, 0, 1, ["1", "0", "0"]),
        )
        samples = sample_points(chart, 6, 1)
        with pytest.raises(ChartError):
            generalized(cell, samples)

    def test_insufficient_structure_raises(self, model_cell):
        samples = sample_points(model_cell.chart, 10, 7)  # no shared t values
        with pytest.raises(ValueError):
            generalized(model_cell, samples)
