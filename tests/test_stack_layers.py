"""The curvature and bracket layers over sample stacks.

A stack (P, n) must give what its rows give one at a time: to 1e-13 relative,
or 1e-15 absolute where the row value is below 1e-10 (the batched matrix
products may sum in another order than the single-point ones).  The
curvature along a vector that ``riemann`` builds from the sparse Hessians is
checked against the dense ``einsum`` reference of ``geometry_helpers``, and
the column family of ``lie_bracket`` against brackets of (1,0) column fields
built here.  Finally ``sew`` keeps its memory within the batch budget.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from sewcells import cli
from sewcells.catalog import kenmotsu_warped_cell, model_cosymplectic_cell, standard_cells
from sewcells.charts import BATCH_BYTES, Chart, ContactStructure, TensorField, batch_size, sample_points
from geometry_helpers import (
    christoffel_reference,
    d_fundamental_form_reference,
    full_pair_fits,
    nabla_phi_reference,
    normality_reference,
    product_median,
    riemann_reference,
)
from sewcells.geometry import (
    christoffel,
    covariant_derivative_affinor,
    fundamental_form_with_derivative,
    h_tensor,
    lie_bracket,
    normality_tensor,
    reeb_layer,
    riemann,
)
from sewcells.manifold_io import load_manifold, save_manifold
from sewcells.nullity import _eta_pairs, fit_nullity, normalized
from sewcells.sewing import build_product, sew

REL = 1e-13
ABS = 1e-15
FLOOR = 1e-10


def assert_rows_match(stacked, rows):
    stacked, rows = np.asarray(stacked, dtype=float), np.asarray(rows, dtype=float)
    assert stacked.shape == rows.shape
    gap = np.abs(stacked - rows)
    large = np.abs(rows) >= FLOOR
    assert np.all(gap[large] <= REL * np.abs(rows[large])), float(np.max(gap[large] / np.abs(rows[large])))
    assert np.all(gap[~large] <= ABS), float(np.max(gap[~large], initial=0.0))


@pytest.fixture(scope="module")
def structures(tmp_path_factory):
    """Every catalog cell, and a sewn k = 3 definition read back from its file."""
    path = tmp_path_factory.mktemp("stacks") / "sewn.json"
    save_manifold(sew([standard_cells()[-1]] * 3), path)
    return (*standard_cells(), load_manifold(path))


def _points(struct, count=6, seed=4):
    return sample_points(struct.chart, count, seed).coords


class TestStackEqualsRows:
    def test_h_tensor(self, structures):
        for struct in structures:
            points = _points(struct)
            stacked = h_tensor(struct, points)
            rows = [h_tensor(struct, p) for p in points]
            for name in ("h", "hprime"):
                assert_rows_match(getattr(stacked, name), [getattr(r, name) for r in rows])

    def test_riemann(self, structures):
        for struct in structures:
            points = _points(struct)
            xi = struct.xi.evaluate(points)
            gamma, rxi = riemann(struct.metric, points, xi)
            rows = [riemann(struct.metric, p, v) for p, v in zip(points, xi)]
            assert_rows_match(rxi, [r[1] for r in rows])
            assert_rows_match(gamma, [r[0] for r in rows])

    @pytest.mark.parametrize("alpha", [None, 1.5], ids=["raw", "kenmotsu"])
    def test_fit_nullity(self, structures, alpha):
        def fits(struct, point):
            fit = fit_nullity(struct, point)
            return fit if alpha is None else normalized(fit, alpha)

        for struct in structures:
            points = _points(struct)
            stacked = fits(struct, points)
            rows = [fits(struct, p) for p in points]
            for name in ("kappa", "mu", "muprime", "residual", "h_norm", "h", "hprime"):
                assert_rows_match(getattr(stacked, name), [getattr(f, name) for f in rows])
            assert stacked.determinate_mu.tolist() == [f.determinate_mu for f in rows]

    def test_lie_bracket(self, structures):
        for struct in structures:
            points = _points(struct)
            for v, w in ((struct.phi, struct.phi), (struct.phi, struct.xi), (struct.xi, struct.phi),
                         (struct.xi, struct.xi)):
                assert_rows_match(lie_bracket(v, w, points), [lie_bracket(v, w, p) for p in points])


def test_riemann_matches_einsum_reference(structures, model_cell, halfspace_cell):
    """The curvature along a vector, built from the sparse Hessians, against
    the dense reference contracted with the vector, on every catalog cell,
    the sewn k = 3 file and a product chart.  Both sum O(n) products of
    entries of at most the reference's magnitude, so they agree to 1e-13 of
    its largest magnitude, or of 1 where the terms cancel."""
    product = build_product([model_cell, halfspace_cell])
    fields = [(s.metric, s.chart, s.xi) for s in structures] + [(product.metric, product.chart, product_median(product))]
    for metric, chart, field in fields:
        points = sample_points(chart, 4, 9).coords
        # the Reeb field and a vector off it, so that every slot of the contraction is read
        for v in (field.evaluate(points), np.random.default_rng(3).uniform(-1.0, 1.0, points.shape)):
            gamma, rv = riemann(metric, points, v)
            for p, point in enumerate(points):
                reference = np.einsum("lijk,k->lij", riemann_reference(metric, point), v[p])
                np.testing.assert_allclose(rv[p], reference, rtol=REL, atol=REL * max(1.0, np.abs(reference).max()))
                np.testing.assert_array_equal(gamma[p], christoffel(metric, point))


def test_first_order_layers_match_einsum_references(structures):
    """Gamma, nabla phi (with its xi-direction norms), d Phi and N, run as
    batched matrix products over a stack, against the ``einsum`` references
    at each row.  Both sum the same O(1) terms in another order, so they agree
    to 1e-13 of the reference's largest magnitude, or of 1 where the terms
    cancel (nabla phi vanishes on the cosymplectic cells)."""
    def close(got, reference):
        np.testing.assert_allclose(got, reference, rtol=REL, atol=REL * max(1.0, np.abs(reference).max()))

    for struct in structures:
        points = _points(struct, count=8, seed=13)
        gamma = christoffel(struct.metric, points)
        derivative = covariant_derivative_affinor(struct, points)
        d_phi = fundamental_form_with_derivative(struct, points)[1]
        torsion = normality_tensor(struct, points)
        for p, point in enumerate(points):
            close(gamma[p], christoffel_reference(struct.metric, point))
            nablaphi, nabla_xi_phi, nabla_xi_xi = nabla_phi_reference(struct, point)
            close(derivative.nablaphi[p], nablaphi)
            close(derivative.nabla_xi_phi_norm[p], np.abs(nabla_xi_phi).max())
            close(derivative.nabla_xi_xi_norm[p], np.abs(nabla_xi_xi).max())
            close(d_phi[p], d_fundamental_form_reference(struct, point))
            close(torsion[p], normality_reference(struct, point))


def _generic_structure() -> ContactStructure:
    """A structure that meets no axiom, with nonzero nabla_xi phi and
    nabla_xi xi and an eta whose first and last component are the literal
    0: the pair (t, y) is the one pair that eta does not reach."""
    chart = Chart(("t", "x", "y"))
    return ContactStructure(
        "generic", chart,
        metric=TensorField.build(chart, 0, 2, [["2 + x^2", "0.3*t*y", "0.1*y"],
                                               ["0.3*t*y", "1.5 + sin(t)", "0.2*x"],
                                               ["0.1*y", "0.2*x", "1 + t^2 + y^2"]]),
        phi=TensorField.build(chart, 1, 1, [["x*y", "1 - t", "0.5*y"], ["-1", "t*x", "cos(y)"],
                                            ["0.3", "x", "-t*y"]]),
        xi=TensorField.build(chart, 1, 0, ["1 + 0.2*x", "sin(y)", "t*x"]),
        eta=TensorField.build(chart, 0, 1, ["0", "1 + x^2", "0"]),
    )


@pytest.fixture(scope="module")
def reduced_structures():
    """Every catalog cell, each of them sewn with k = 2, 3 and 6 copies, and
    the generic structure."""
    cells = standard_cells()
    return [*cells, *(sew([cell] * k) for cell in cells for k in (2, 3, 6)), _generic_structure()]


def test_eta_row_fits_equal_the_full_design(reduced_structures):
    """The fits solve the rows that eta reaches and add the other pairs'
    curvature to the residual only.  They equal the fits over the design of
    every pair (``geometry_helpers.full_pair_fits``) to 1e-13 of the larger
    of 1 and the reference's magnitude.  On a sewn chart eta = sqrt(k) ds
    reaches the 2k pairs with s, 12 of 78 at k = 6."""
    for struct in reduced_structures:
        points = _points(struct, count=8, seed=11)
        fits = fit_nullity(struct, points)
        reference = full_pair_fits(struct, points)
        for got, want in zip((fits.kappa, fits.mu, fits.muprime, fits.residual), reference.T):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=REL * max(1.0, np.abs(want).max()))
    reached, unreached = _eta_pairs(reduced_structures[-1].eta)
    assert (len(reached[0]), unreached[0].tolist(), unreached[1].tolist()) == (2, [0], [2])
    assert np.abs(fit_nullity(reduced_structures[-1], _points(reduced_structures[-1])).residual).min() > 1e-3
    sewn_k6 = reduced_structures[len(standard_cells()) + 2]
    assert sewn_k6.dim == 13 and len(_eta_pairs(sewn_k6.eta)[0][0]) == 12


def test_contracted_reeb_norms_equal_the_full_nabla_phi(reduced_structures):
    """``reeb_layer`` reads |nabla_xi phi| and |nabla_xi xi| off
    ``xi^i Gamma^k_ij`` alone; they equal the norms read off the full nabla
    phi to 1e-13 of the larger of 1 and the reference's magnitude."""
    for struct in reduced_structures:
        points = _points(struct, count=8, seed=11)
        full = covariant_derivative_affinor(struct, points)
        for got, want in zip(reeb_layer(struct, points), (full.nabla_xi_phi_norm, full.nabla_xi_xi_norm)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=REL * max(1.0, np.abs(want).max()))
    generic = covariant_derivative_affinor(reduced_structures[-1], _points(reduced_structures[-1]))
    assert generic.nabla_xi_phi_norm.min() > 0.1 and generic.nabla_xi_xi_norm.min() > 0.1
    # a point gives what its row gives
    point = _points(reduced_structures[-1])[0]
    assert [float(v[0]) for v in reeb_layer(reduced_structures[-1], point[None])] == \
        list(reeb_layer(reduced_structures[-1], point))


def _column(affinor: TensorField, a: int) -> TensorField:
    """The (1,0) field ``affinor(e_a)``."""
    return TensorField(affinor.chart, 1, 0, tuple(row[a] for row in affinor.components))


def test_bracket_of_affinor_columns(structures, model_cell, kenmotsu_cell):
    product = build_product([model_cell, kenmotsu_cell])
    median = product_median(product)
    for f, w in [(s.phi, s.xi) for s in structures] + [(product.f, median)]:
        n = f.chart.dim
        points = sample_points(f.chart, 3, 5).coords
        pairs = lie_bracket(f, f, points)
        with_w = lie_bracket(f, w, points)
        assert pairs.shape == (3, n, n, n) and with_w.shape == (3, n, n)
        columns = [_column(f, a) for a in range(n)]
        for p, point in enumerate(points):
            for a in range(n):
                assert_rows_match(with_w[p, :, a], lie_bracket(columns[a], w, point))
                for b in range(n):
                    assert_rows_match(pairs[p, :, a, b], lie_bracket(columns[a], columns[b], point))


class TestSewMemory:
    @pytest.fixture
    def cell_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_manifold(model_cosymplectic_cell(1.0), "model.json")
        save_manifold(kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0), "warped.json")

    def test_every_curvature_batch_fits_the_budget(self, cell_files, monkeypatch):
        # a sweep has two sizes.  Its layer batches: the curvature reads every Hessian
        # stack through (n, n, n) contractions per sample, and its fold holds two
        # entries per Hessian entry.  Its program chunks: a field's program runs on
        # whole batches whose compact jets fit the budget, or on one batch
        original = TensorField.evaluate_with_jets
        stacks, runs = [], []

        def spy(field, point, hessians=True):
            if hessians:
                stacks.append((np.shape(point), len(field._plan.hess_slots)))
            return original(field, point, hessians)

        run = TensorField._run

        def counted_run(field, point, order):
            compact = run(field, point, order)
            runs.append((np.shape(point), sum(array.nbytes for array in compact)))
            return compact

        monkeypatch.setattr(TensorField, "evaluate_with_jets", spy)
        monkeypatch.setattr(TensorField, "_run", counted_run)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sew", "warped.json", "--copies", "4", "--out", "out.json"]) == cli.EXIT_PASS
        dims = {shape[-1] for shape, _ in stacks}
        # the cells and the product's blocks, and the sewn manifold; never the 12-dim product chart
        assert dims == {3, 9} and {shape[-1] for shape, _ in runs} == dims
        for shape, entries in stacks:
            count = shape[0] if len(shape) == 2 else 1
            assert count == 1 or count * 8 * max(shape[-1] ** 3, 2 * entries) <= BATCH_BYTES, shape
        for shape, nbytes in runs:
            count = shape[0] if len(shape) == 2 else 1
            assert count <= batch_size(shape[-1]) or nbytes <= BATCH_BYTES, shape
        # the sewn chart's 25 samples make batches of 22 and 3, and chunks of both
        assert batch_size(9) == 22 and ((25, 9) in {shape for shape, _ in runs})

    @pytest.mark.parametrize("cell, copies, limit", [("warped", 4, 1.38e6), ("model", 6, 5.10e6)])
    def test_peak_stays_below_the_point_by_point_stages(self, cell_files, cell, copies, limit):
        # the limits are the tracemalloc peaks of the stages when they ran point by point
        argv = ["sew", f"{cell}.json", "--copies", str(copies), "--out", "out.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)  # warm: the peak below is the command's own, not the first import's
            tracemalloc.start()
            try:
                assert cli.main(argv) == cli.EXIT_PASS
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= limit
