import math

import numpy as np
import pytest

from sewcells.catalog import (
    CATALOG,
    kenmotsu_warped_cell,
    model_cosymplectic_cell,
    standard_cells,
)
from sewcells.charts import sample_points, validate_structure
from sewcells.geometry import classify
from sewcells.nullity import fit_nullity, normalized


class TestConstructors:
    def test_every_catalog_cell_validates(self, catalog_cells):
        for cell in catalog_cells:
            report = validate_structure(cell, sample_points(cell.chart, 50, 7), 1e-9)
            assert report.passed, report.format_table()

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_model_cell_nullity_constant(self, lam):
        cell = model_cosymplectic_cell(lam)
        for point in sample_points(cell.chart, 10, 7).coords:
            fit = fit_nullity(cell, point)
            assert fit.kappa == pytest.approx(-lam * lam, abs=1e-8)

    def test_model_cell_classifies_almost_cosymplectic(self):
        cell = model_cosymplectic_cell(1.0)
        samples = sample_points(cell.chart, 15, 7)
        cl = classify(cell, samples, 1e-9)
        assert cl.kind == "almost_cosymplectic"

    def test_model_cell_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            model_cosymplectic_cell(0.0)
        with pytest.raises(ValueError):
            model_cosymplectic_cell(-1.0)


class TestKenmotsuWarped:
    def test_metric_is_identity_at_origin(self):
        cell = kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0, c=1.0, cprime=1.0)
        assert np.array_equal(cell.metric.evaluate(np.zeros(3)), np.eye(3))

    def test_classification_and_normalized_fit(self, kenmotsu_cell):
        samples = sample_points(kenmotsu_cell.chart, 15, 7)
        cl = classify(kenmotsu_cell, samples, 1e-9)
        assert cl.kind == "almost_alpha_kenmotsu"
        assert cl.alpha == pytest.approx(1.0, abs=1e-9)
        fit = normalized(fit_nullity(kenmotsu_cell, np.array([0.25, 0.5, -0.5])), 1.0)
        assert fit.kappa == pytest.approx(-2.0, abs=1e-8)
        assert fit.muprime == pytest.approx(-2.0, abs=1e-8)
        assert abs(fit.mu) <= 1e-8

    def test_nonunit_warping_constants_still_validate(self):
        cell = kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0, c=0.7, cprime=1.9)
        report = validate_structure(cell, sample_points(cell.chart, 25, 7), 1e-9)
        assert report.passed, report.format_table()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kenmotsu_warped_cell(alpha=0.0, kappa0=-2.0)
        with pytest.raises(ValueError):
            kenmotsu_warped_cell(alpha=1.0, kappa0=-1.0)   # needs kappa0 < -alpha^2
        with pytest.raises(ValueError):
            kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0, c=0.0)


class TestHalfspaceCell:
    def test_metric_matches_orthonormal_frame_completion(self, halfspace_cell):
        # independent derivation: with frame columns E = (d/dx, d/dy, xi),
        # orthonormality E^T G E = Id forces G = (E E^T)^{-1}
        for point in sample_points(halfspace_cell.chart, 25, 7).coords:
            x, y, z = point
            a = x - y * math.exp(-2.0 * z)
            b = y - x * math.exp(-2.0 * z)
            frame = np.array([[1.0, 0.0, a], [0.0, 1.0, b], [0.0, 0.0, 1.0]])
            oracle = np.linalg.inv(frame @ frame.T)
            assert np.allclose(halfspace_cell.metric.evaluate(point), oracle, atol=1e-12)

    def test_validates_tightly(self, halfspace_cell):
        report = validate_structure(halfspace_cell, sample_points(halfspace_cell.chart, 50, 7), 1e-10)
        assert report.passed, report.format_table()

    def test_frame_is_orthonormal(self, halfspace_cell):
        for point in sample_points(halfspace_cell.chart, 10, 9).coords:
            g = halfspace_cell.metric.evaluate(point)
            xi = halfspace_cell.xi.evaluate(point)
            e_x = np.array([1.0, 0.0, 0.0])
            e_y = np.array([0.0, 1.0, 0.0])
            gram = np.array([[u @ g @ v for v in (e_x, e_y, xi)] for u in (e_x, e_y, xi)])
            assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_domain_constraint(self, halfspace_cell):
        assert [c.source() for c in halfspace_cell.chart.constraints] == ["z > 0"]
        for point in sample_points(halfspace_cell.chart, 50, 11).coords:
            assert point[2] > 0


class TestRegistry:
    def test_entries_and_builders(self):
        assert set(CATALOG) == {
            "flat_cosymplectic",
            "model_cosymplectic",
            "kenmotsu_warped",
            "halfspace_kenmotsu",
        }
        cell = CATALOG["model_cosymplectic"].build(lam=2.0)
        assert cell.name == "model_cosymplectic(lam=2.0)"

    def test_standard_cells_cover_the_registry(self):
        names = {cell.name.split("(")[0] for cell in standard_cells()}
        assert names == set(CATALOG)
