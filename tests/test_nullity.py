import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_helpers import on_full_grid
from sewcells.catalog import halfspace_kenmotsu_cell, kenmotsu_warped_cell, model_cosymplectic_cell
from sewcells.charts import ChartError, sample_points, sample_points_grouped
from sewcells.geometry import h_tensor, riemann
from sewcells.manifold_io import load_manifold, save_manifold
from sewcells.nullity import NullityFitError, _solve_stack, check_generalized, classify_and_fit, fit_nullity, normalized
from sewcells.sewing import sew


@pytest.fixture(scope="module")
def kenmotsu_structures(tmp_path_factory):
    """(structure, its classified alpha): the warped cell at alpha = 1.2, the
    halfspace cell, and sewn k = 2 and k = 3 copies of the warped cell read
    back from their files."""
    warped = kenmotsu_warped_cell(alpha=1.2, kappa0=-3.0, c=1.5, cprime=0.7)
    structures = [warped, halfspace_kenmotsu_cell()]
    for k in (2, 3):
        path = tmp_path_factory.mktemp("sewn") / f"sewn{k}.json"
        save_manifold(sew([warped] * k), path)
        structures.append(load_manifold(path))
    out = []
    for struct in structures:
        samples = sample_points(struct.chart, 8, 5)
        alpha = classify_and_fit(struct, samples, 1e-8, False)[0][0].alpha
        assert alpha is not None, struct.name
        out.append((struct, alpha, samples))
    return out


def _normalized_lstsq(struct, point, alpha):
    """(kappa, mu, mu') and the residual of the fit against h'/alpha, solved
    here from ``riemann`` and ``h_tensor`` without ``fit_nullity``."""
    n = struct.dim
    xi, eta = struct.xi.evaluate(point), struct.eta.evaluate(point)
    rxi = riemann(struct.metric, point, xi)[1]  # rxi[l, i, j] = (R(e_i, e_j) xi)^l
    tensors = h_tensor(on_full_grid(struct), point)
    i, j = np.triu_indices(n, 1)

    def column(op):
        # eta(e_j) op(e_i) - eta(e_i) op(e_j), one row per pair and component
        return (eta[j] * op[:, i] - eta[i] * op[:, j]).T.ravel()

    b = rxi[:, i, j].T.ravel()
    a = np.stack([column(np.eye(n)), column(tensors.h), column(tensors.hprime / alpha)], axis=-1)
    solution = np.linalg.lstsq(a, b, rcond=None)[0]
    return solution, float(np.linalg.norm(b - a @ solution))


class TestConvention:
    def test_normalized_matches_direct_fit(self, kenmotsu_structures):
        for struct, alpha, samples in kenmotsu_structures:
            for point in samples.coords:
                fit = normalized(fit_nullity(struct, point), alpha)
                assert fit.determinate_mu
                (kappa, mu, muprime), residual = _normalized_lstsq(struct, point, alpha)
                for got, want in ((fit.kappa, kappa), (fit.mu, mu), (fit.muprime, muprime)):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-14), struct.name
                assert abs(fit.residual - residual) <= 1e-14, struct.name

    def test_normalized_needs_alpha(self, kenmotsu_cell):
        fit = fit_nullity(kenmotsu_cell, np.array([0.1, 0.0, 0.0]))
        with pytest.raises(ValueError):
            normalized(fit, 0.0)


class TestPointFits:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_model_cell_constant_nullity(self, lam):
        cell = model_cosymplectic_cell(lam)
        for point in sample_points(cell.chart, 25, 7).coords:
            fit = fit_nullity(cell, point)
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
        raw = fit_nullity(cell, point)
        rescaled = normalized(raw, 2.0)
        assert raw.kappa == pytest.approx(-8.0, abs=1e-8)
        assert rescaled.kappa == pytest.approx(-8.0, abs=1e-8)
        assert raw.muprime == pytest.approx(-4.0, abs=1e-8)          # -2 alpha
        assert rescaled.muprime == pytest.approx(-8.0, abs=1e-8)     # -2 alpha^2
        assert rescaled.muprime == pytest.approx(2.0 * raw.muprime, rel=1e-9)

    def test_residuals_small_on_catalog(self, catalog_cells):
        for cell in catalog_cells:
            for point in sample_points(cell.chart, 50, 19).coords:
                assert fit_nullity(cell, point).residual <= 1e-8

    def test_residuals_small_on_sewn_pairs(self, catalog_cells):
        from sewcells.sewing import sew

        for cell in catalog_cells:
            sewn = sew([cell, cell])
            for point in sample_points(sewn.chart, 50, 19).coords:
                assert fit_nullity(sewn, point).residual <= 1e-8

    def test_residual_detects_non_nullity_structures(self):
        # x-dependent warping keeps the structure axioms but makes
        # R(d/dx, d/dy) xi nonzero, which no (kappa, mu, mu') can explain
        from sewcells.charts import ContactStructure, Chart, TensorField, validate_structure

        chart = Chart(("t", "x", "y"), adapted_index=0)
        gxx = "exp(2*t)"
        gyy = "exp(-2*t)*(1 + x^2/4)"
        ratio = f"sqrt(({gxx})/({gyy}))"
        cell = ContactStructure(
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
        residuals = [fit_nullity(cell, point).residual for point in samples.coords]
        assert max(residuals) > 1e-2

    def test_invariance_under_transverse_coordinate_permutation(self, halfspace_cell, model_cell):
        for cell, swap in ((halfspace_cell, (1, 0, 2)), (model_cell, (0, 2, 1))):
            for point in sample_points(cell.chart, 10, 23).coords:
                permuted = point[list(swap)]
                original = fit_nullity(cell, point)
                swapped = fit_nullity(cell, permuted)
                assert swapped.kappa == pytest.approx(original.kappa, abs=1e-9)


def generalized(struct, samples):
    return check_generalized(struct, samples, fit_nullity(struct, samples.coords), 1e-8)


class TestGeneralized:
    def test_model_cell_is_constant(self, model_cell):
        samples = sample_points_grouped(model_cell.chart, 5, 3, 7)
        report = generalized(model_cell, samples)
        assert report.constant_kappa
        assert report.eta_aligned
        assert fit_nullity(model_cell, samples.coords).kappa == pytest.approx(-1.0, abs=1e-8)

    def test_flat_cell_is_constant_zero(self, flat_cell):
        samples = sample_points_grouped(flat_cell.chart, 5, 2, 7)
        report = generalized(flat_cell, samples)
        assert report.constant_kappa and report.constant_mu and report.constant_muprime
        assert report.eta_aligned
        assert np.abs(fit_nullity(flat_cell, samples.coords).kappa).max() <= 1e-10

    def test_halfspace_cell_is_aligned_but_not_constant(self, halfspace_cell):
        samples = sample_points_grouped(halfspace_cell.chart, 5, 3, 7)
        report = generalized(halfspace_cell, samples)
        assert not report.constant_kappa
        assert report.eta_aligned
        z = samples.coords[:, 2]
        assert fit_nullity(halfspace_cell, samples.coords).kappa == pytest.approx(-(1.0 + np.exp(-4.0 * z)), abs=1e-8)
        # the rows by ascending z, 3 to a value
        assert np.all(np.diff(z[report.order]) >= 0.0) and sorted(report.order.tolist()) == list(range(15))

    def test_requires_adapted_chart(self):
        from sewcells.charts import ContactStructure, Chart, TensorField

        chart = Chart(("t", "x", "y"), adapted_index=None)
        identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        cell = ContactStructure(
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


def _designs(seed: int, count: int, rows: int, dependence: float = 1.0):
    """``count`` random designs (rows, 3) and right-hand sides; the third
    column is the second plus ``dependence`` times noise, so a small
    ``dependence`` makes the designs nearly rank-deficient."""
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(count, rows, 3))
    design[:, :, 2] = design[:, :, 1] + dependence * rng.normal(size=(count, rows))
    return design, rng.normal(size=(count, rows))


def _parent_kappa_only(a, b):
    """The kappa-only fit of one sample as it was solved one sample at a time."""
    a_kappa = a[:, 0]
    denom = float(a_kappa @ a_kappa)
    kappa = float(a_kappa @ b) / denom if denom > 0.0 else 0.0
    return kappa, float(np.linalg.norm(b - kappa * a_kappa))


class TestBatchedSolve:
    """``_solve_stack`` solves every sample's least squares in one batched SVD."""

    @staticmethod
    def assert_matches_lstsq(design, b, solved):
        """Each row against ``np.linalg.lstsq``: (kappa, mu, mu') to 1e-12 of
        their largest magnitude, and the residual |b - A x| to 1e-12 of the
        terms it cancels from, |b| + |A| |x|."""
        for a, rhs, got in zip(design, b, solved):
            x, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
            assert rank == 3
            assert np.abs(got[:3] - x).max() <= 1e-12 * np.abs(x).max()
            scale = np.linalg.norm(rhs) + np.linalg.norm(a) * np.linalg.norm(x)
            assert abs(got[3] - np.linalg.norm(rhs - a @ x)) <= 1e-12 * scale

    @pytest.mark.parametrize("rows", [9, 324, 1014], ids=["cell", "sewn-k4", "sewn-k6"])
    @pytest.mark.parametrize("dependence", [1.0, 1e-4], ids=["generic", "near-deficient"])
    def test_matches_lstsq(self, rows, dependence):
        design, b = _designs(rows, 12, rows, dependence)
        solved = _solve_stack(design.copy(), b.copy(), np.ones(len(b)))
        self.assert_matches_lstsq(design, b, solved)

    # the rows of a fit on 3, 5, 7 and 9 dimensions; a least-squares solution moves with the
    # square of the condition number, so the drawn designs keep it below about 1e3
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([9, 50, 147, 324]),
           st.floats(-2.0, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_lstsq_on_drawn_designs(self, seed, count, rows, log_dependence):
        design, b = _designs(seed, count, rows, 10.0 ** log_dependence)
        design *= np.random.default_rng(seed).uniform(0.1, 10.0, size=(count, 1, 1))
        solved = _solve_stack(design.copy(), b.copy(), np.ones(count))
        self.assert_matches_lstsq(design, b, solved)

    def test_kappa_only_rows_keep_the_single_sample_formula(self):
        design, b = _designs(5, 6, 9)
        design[2, :, 0] = 0.0  # no kappa column: kappa is 0
        design[4, :, 1:] = 0.0  # rank 1: only kappa is fitted, so no error
        h_norms = np.array([1.0, 1e-9, 0.0, 1.0, 1e-8, 0.0])
        solved = _solve_stack(design.copy(), b.copy(), h_norms)
        for p in (1, 2, 4, 5):
            assert (solved[p, 0], solved[p, 3]) == _parent_kappa_only(design[p], b[p])
            assert solved[p, 1] == solved[p, 2] == 0.0
        self.assert_matches_lstsq(design[[0, 3]], b[[0, 3]], solved[[0, 3]])

    def test_error_names_the_first_rank_deficient_row(self):
        design, b = _designs(6, 6, 9)
        for p in (1, 3, 5):
            design[p, :, 2] = design[p, :, 1]
        h_norms = np.array([1.0, 1e-9, 1.0, 2.5, 1.0, 4.0])  # row 1 fits kappa alone
        with pytest.raises(NullityFitError, match=r"^degenerate nullity fit \(rank 2\) with \|h\| = 2\.500e\+00$"):
            _solve_stack(design, b, h_norms)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["design", "b"])
    def test_non_finite_row_is_nan_and_leaves_the_others(self, entry, where, capfd):
        design, b = _designs(7, 5, 36)
        clean = _solve_stack(design.copy(), b.copy(), np.ones(5))
        (design if where == "design" else b)[2, 3] = entry
        solved = _solve_stack(design, b, np.ones(5))  # a RuntimeWarning would fail here
        assert np.isnan(solved[2]).all()
        np.testing.assert_array_equal(np.delete(solved, 2, axis=0), np.delete(clean, 2, axis=0))
        assert capfd.readouterr() == ("", "")  # LAPACK writes its complaints to the stderr descriptor
