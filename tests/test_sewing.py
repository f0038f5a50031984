import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest

from geometry_helpers import covariant_derivative_vector, product_median, second_fundamental
from sewcells.catalog import halfspace_kenmotsu_cell, kenmotsu_warped_cell
from sewcells.charts import (
    Chart,
    ContactStructure,
    Residual,
    Samples,
    TensorField,
    sample_points,
    validate_structure,
)
from sewcells.geometry import christoffel, exterior_derivative, lie_bracket, numeric_rank, riemann
from sewcells import sewing
from sewcells.expressions import BinOp, Num, Var
from sewcells.manifold_io import load_manifold, save_manifold
from sewcells import nullity
from sewcells.nullity import classify_and_fit, fit_nullity
from sewcells.sewing import (
    SewingError,
    SewnManifold,
    block_structure,
    build_product,
    embedding_matrix,
    extrinsic_report,
    sew,
    sewn_columns,
    verify_f_structure,
    verify_lift_laws,
    verify_sewing_theorems,
)


class TestBuildProduct:
    def test_two_flat_cells(self, flat_cell):
        product = build_product([flat_cell, flat_cell])
        assert product.chart.dim == 6
        assert product.chart.coords == ("t1", "x1", "y1", "t2", "x2", "y2")
        point = np.array([0.1, 0.2, 0.3, -0.1, -0.2, -0.3])
        f = product.f.evaluate(point)
        assert not f[:3, 3:].any() and not f[3:, :3].any()
        assert not (f @ f @ f + f).any()

    def test_framing_is_orthonormal_by_blocks(self, model_cell, halfspace_cell):
        product = build_product([model_cell, halfspace_cell])
        for point in sample_points(product.chart, 10, 7).coords:
            g = product.metric.evaluate(point)
            xi = [tf.evaluate(point) for tf in product.framing]
            gram = np.array([[a @ g @ b for b in xi] for a in xi])
            assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_lifted_components_are_block_local(self, model_cell, halfspace_cell):
        from sewcells.expressions import free_variables

        product = build_product([model_cell, halfspace_cell])
        for i, block in enumerate(product.blocks):
            block_names = {product.chart.coords[p] for p in block}
            for a in block:
                for b in block:
                    assert free_variables(product.metric.components[a][b]) <= block_names
                    assert free_variables(product.f.components[a][b]) <= block_names
                assert free_variables(product.framing[i].components[a]) <= block_names
                assert free_variables(product.coframing[i].components[a]) <= block_names

    def test_requires_at_least_two_cells(self, flat_cell):
        with pytest.raises(SewingError):
            build_product([flat_cell])

    def test_requires_adapted_cells(self):
        chart = Chart(("t", "x", "y"), adapted_index=None)
        identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        cell = ContactStructure(
            name="unadapted",
            chart=chart,
            metric=TensorField.build(chart, 0, 2, identity),
            phi=TensorField.build(chart, 1, 1, [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]),
            xi=TensorField.build(chart, 1, 0, ["1", "0", "0"]),
            eta=TensorField.build(chart, 0, 1, ["1", "0", "0"]),
        )
        with pytest.raises(SewingError):
            build_product([cell, cell])

    def test_rejects_eta_not_equal_dt(self, flat_cell):
        chart = flat_cell.chart
        skewed = ContactStructure(
            name="eta_scaled",
            chart=chart,
            metric=flat_cell.metric,
            phi=flat_cell.phi,
            xi=flat_cell.xi,
            eta=TensorField.build(chart, 0, 1, ["2", "0", "0"]),
        )
        with pytest.raises(SewingError):
            build_product([skewed, skewed])

    def test_rejects_median_tangency_failure(self, flat_cell):
        chart = flat_cell.chart
        drifted = ContactStructure(
            name="xi_drift",
            chart=chart,
            metric=flat_cell.metric,
            phi=flat_cell.phi,
            xi=TensorField.build(chart, 1, 0, ["1.001", "0", "0"]),
            eta=flat_cell.eta,
        )
        with pytest.raises(SewingError):
            sew([drifted, drifted])


class TestFStructure:
    def test_two_model_cells(self, model_cell):
        product = build_product([model_cell, model_cell])
        report = verify_f_structure(product, sample_points(product.chart, 25, 7), 1e-10)
        assert report.passed, report.format_table()
        assert report.check("f_cubed_plus_f").residual <= 1e-12

    def test_two_flat_cells_exact(self, flat_cell):
        product = build_product([flat_cell, flat_cell])
        report = verify_f_structure(product, sample_points(product.chart, 10, 7), 1e-10)
        for check in report.checks:
            if check.name == "median_unit_length":
                # the 1/sqrt(2) coefficient is irrational; one rounding step
                assert check.residual <= 1e-15
            else:
                assert check.residual == 0.0, check.line()

    def test_zeroed_affinor_breaks_kernel_rank(self, model_cell):
        chart = model_cell.chart
        zero_phi_cell = ContactStructure(
            name="zero_phi",
            chart=chart,
            metric=model_cell.metric,
            phi=TensorField.build(chart, 1, 1, [["0"] * 3] * 3),
            xi=model_cell.xi,
            eta=model_cell.eta,
        )
        product = build_product([zero_phi_cell, model_cell])
        report = verify_f_structure(product, sample_points(product.chart, 5, 7), 1e-10)
        rank_check = report.check("kernel_rank")
        assert not rank_check.passed
        assert "rank 2" in rank_check.note  # kernel dimension k + 2 = 4

    def test_kernel_rank_reports_the_worst_rank(self, model_cell, monkeypatch):
        # one stack of block ranks, the two blocks of each sample after one another;
        # their per-sample sums (4, 3, 2, 3) are worst in the middle of the sweep, not at its end
        k = 2
        ranks = iter([2, 2, 2, 1, 1, 1, 2, 1])
        monkeypatch.setattr(sewing, "numeric_rank", lambda stack: np.array([next(ranks) for _ in stack]))
        product = build_product([model_cell] * k)
        rank_check = verify_f_structure(product, sample_points(product.chart, 4, 7), 1e-10).check("kernel_rank")
        assert not rank_check.passed
        assert rank_check.residual == 2.0
        assert rank_check.note.startswith(f"rank {2 * k - 2},")

    def test_doubled_affinor_entry_breaks_f_cubed(self, model_cell):
        """The stage reads the product's own trees: a changed entry of one
        block of ``product.f`` fails although the cells are untouched."""
        product = build_product([model_cell, model_cell])
        x2, y2 = product.chart.index_of("x2"), product.chart.index_of("y2")
        grid = [list(row) for row in product.f.components]
        grid[x2][y2] = BinOp("*", Num(2.0), grid[x2][y2])
        mutated = dataclasses.replace(product, f=TensorField(product.chart, 1, 1, tuple(map(tuple, grid))))
        assert block_structure(mutated).passed
        report = verify_f_structure(mutated, sample_points(product.chart, 5, 7), 1e-10)
        assert not report.check("f_cubed_plus_f").passed


class TestLiftLaws:
    def test_two_flat_cells_exact_zeros(self, flat_cell):
        product = build_product([flat_cell, flat_cell])
        report = verify_lift_laws(product, sample_points(product.chart, 10, 7), 1e-9)
        for check in report.checks:
            assert check.residual == 0.0, check.line()

    def test_two_model_cells(self, model_cell):
        product = build_product([model_cell, model_cell])
        report = verify_lift_laws(product, sample_points(product.chart, 25, 7), 1e-9)
        assert report.passed, report.format_table()
        structure = report.check("block_structure")
        assert structure.passed and structure.residual == 0.0

    def test_two_halfspace_cells_involutivity(self, halfspace_cell):
        product = build_product([halfspace_cell, halfspace_cell])
        report = verify_lift_laws(product, sample_points(product.chart, 15, 7), 1e-9)
        assert report.passed, report.format_table()

    def test_mixed_pair(self, model_cell, kenmotsu_cell):
        product = build_product([model_cell, kenmotsu_cell])
        report = verify_lift_laws(product, sample_points(product.chart, 15, 7), 1e-9)
        assert report.passed, report.format_table()


def _with_metric_entry(product, a, b, node):
    """The product with the symmetric metric entries (a, b) and (b, a) replaced by ``node``."""
    grid = [list(row) for row in product.metric.components]
    grid[a][b] = grid[b][a] = node
    metric = TensorField(product.chart, 0, 2, tuple(tuple(row) for row in grid))
    return dataclasses.replace(product, metric=metric)


def _with_x3_metric_perturbed(product):
    """The product with its metric entry (x3, x3) times 1 + x3^2, which still names block 3 only."""
    x3 = product.chart.index_of("x3")
    entry = product.metric.components[x3][x3]
    factor = BinOp("+", Num(1.0), BinOp("^", Var("x3"), Num(2.0)))
    return _with_metric_entry(product, x3, x3, BinOp("*", entry, factor))


class TestBlockStructure:
    def test_product_splits_exactly(self, model_cell, halfspace_cell, kenmotsu_cell):
        check = block_structure(build_product([model_cell, halfspace_cell, kenmotsu_cell]))
        assert check.passed and check.residual == 0.0 and check.tolerance == 0.0

    def test_nonzero_cross_block_metric_entry_fails(self, model_cell):
        product = build_product([model_cell, model_cell])
        t1, t2 = product.adapted_positions
        mutated = _with_metric_entry(product, t1, t2, Num(0.25))
        check = block_structure(mutated)
        assert not check.passed
        assert check.residual == 2.0  # metric[t1][t2] and metric[t2][t1]
        assert f"metric[{t1}][{t2}] couples blocks but is not the literal 0" in check.note
        # the sampled stages do not run on a product that does not split
        with pytest.raises(SewingError, match="does not split"):
            verify_lift_laws(mutated, sample_points(product.chart, 4, 7), 1e-9)
        with pytest.raises(SewingError, match="does not split"):
            verify_f_structure(mutated, sample_points(product.chart, 4, 7), 1e-9)
        sewn = sew([model_cell, model_cell])
        with pytest.raises(SewingError, match="does not split"):
            extrinsic_report(mutated, sewn, sample_points(sewn.chart, 4, 7), 1e-8)

    def test_stages_share_one_split(self, model_cell, monkeypatch):
        original = sewing.block_structure
        checked = []
        monkeypatch.setattr(sewing, "block_structure", lambda product: checked.append(product) or original(product))
        product = build_product([model_cell] * 3)
        sewn = sew([model_cell] * 3)
        assert verify_f_structure(product, sample_points(product.chart, 4, 7), 1e-9).passed
        assert verify_lift_laws(product, sample_points(product.chart, 4, 7), 1e-9).passed
        assert extrinsic_report(product, sewn, sample_points(sewn.chart, 4, 7), 1e-8).passed
        assert checked == [product]

    @pytest.mark.parametrize("k", range(2, 17))
    def test_frame_coefficients_are_the_helmert_matrix(self, k):
        """Row 0 is the median, row l the l-th normal
        (xi_1 + ... + xi_l - l xi_{l+1})/sqrt(l(l+1)), and the rows are orthonormal."""
        expected = np.zeros((k, k))
        expected[0] = 1.0 / math.sqrt(k)
        for l in range(1, k):
            expected[l, :l] = 1.0 / math.sqrt(l * (l + 1))
            expected[l, l] = -l / math.sqrt(l * (l + 1))
        c = sewing.frame_coefficients(k)
        np.testing.assert_allclose(c, expected, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(c @ c.T, np.eye(k), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_product_stages_build_plans_per_distinct_definition(self, k, monkeypatch):
        """The three product stages evaluate the fields of one block per
        distinct block definition, at the projections of all its blocks, and
        read the median and the normal frame from that block's own Reeb
        field.  So k copies build the same plans as any other number: the
        first block's four fields, the cell metric and the four sewn fields,
        whose plans the proof of the sewn layout reads
        (``layouts.star_layout``), since the sewn curvature runs in it."""
        from sewcells import charts

        cell = halfspace_kenmotsu_cell()  # no plan of its metric is built yet
        product = build_product([cell] * k)
        sewn = sew([cell] * k)
        original = charts._FieldPlan.build
        built = []
        monkeypatch.setattr(charts._FieldPlan, "build", lambda field: built.append(field) or original(field))
        assert verify_f_structure(product, sample_points(product.chart, 2, 7), 1e-8).passed
        assert verify_lift_laws(product, sample_points(product.chart, 2, 7), 1e-9).passed
        assert extrinsic_report(product, sewn, sample_points(sewn.chart, 2, 7), 1e-8).passed
        first = product._split[1][0]
        assert product._groups == {0: list(range(k))}
        assert sorted(map(id, built)) == sorted(map(id, (*first[1:], cell.metric, sewn.metric, sewn.phi, sewn.xi,
                                                         sewn.eta)))

    def test_block_entry_naming_another_block_fails(self, model_cell):
        product = build_product([model_cell, model_cell])
        x1 = product.chart.index_of("x1")
        entry = product.metric.components[x1][x1]
        check = block_structure(_with_metric_entry(product, x1, x1, BinOp("+", entry, BinOp("*", Num(0.0), Var("x2")))))
        assert not check.passed
        assert check.residual == 1.0
        assert f"metric[{x1}][{x1}] names x2 outside block 1" in check.note

    def test_sew_stays_off_the_product_chart(self, tmp_path, monkeypatch):
        """No field of ``sew --copies 4`` on the 12-dimensional product chart is
        evaluated or handed to a connection, curvature, bracket or exterior
        derivative, and no 12x12 matrix is ranked."""
        from sewcells import cli, geometry, nullity

        monkeypatch.chdir(tmp_path)
        save_manifold(kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0), "warped.json")
        functions = ("riemann", "connection", "christoffel", "lie_bracket", "exterior_derivative", "numeric_rank")
        methods = ("evaluate", "evaluate_with_grads", "evaluate_with_jets")
        dims = {name: set() for name in functions + methods}

        def spy(name, original):
            def spied(*args, **kwargs):
                if name == "numeric_rank":
                    dims[name].add(args[0].shape[-2:])
                else:
                    dims[name].update(arg.chart.dim for arg in args if isinstance(arg, TensorField))
                return original(*args, **kwargs)
            return spied

        for module in (geometry, sewing, nullity):
            for name in functions:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        for name in methods:
            monkeypatch.setattr(TensorField, name, spy(name, getattr(TensorField, name)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sew", "warped.json", "--copies", "4", "--out", "sewn.json"]) == cli.EXIT_PASS
        assert dims == {
            "riemann": {3, 9}, "connection": {3, 9}, "christoffel": {3}, "lie_bracket": {3}, "exterior_derivative": {3},
            "numeric_rank": {(3, 3)}, "evaluate": {3, 9}, "evaluate_with_grads": {3, 9}, "evaluate_with_jets": {3, 9},
        }


def _reference_f_structure(product, samples, tol, rank_of=numeric_rank):
    """The f-structure checks block by block, one stack per block, as the
    stage computed them before it stacked the blocks of one definition, with
    the ranks of ``rank_of``."""
    k = product.cell_count
    residuals = {name: Residual(name, tol) for name in (
        "f_cubed_plus_f", "f_metric_skew", "f_kills_framing", "framing_orthonormal", "coframing_duality",
        "coframing_closed", "median_unit_length")}
    rank = lengths = 0
    for block in product._split[1]:
        local = samples.coords[:, block.rows]
        g, f, xi, eta = (field.evaluate(local) for field in (block.metric, block.f, block.xi, block.eta))
        residuals["f_cubed_plus_f"].add(f @ f @ f + f)
        residuals["f_metric_skew"].add(np.swapaxes(f, 1, 2) @ g + g @ f)
        residuals["f_kills_framing"].add(f @ xi[:, :, None])
        length = np.einsum("pi,pij,pj->p", xi, g, xi)
        residuals["framing_orthonormal"].add(length - 1.0)
        residuals["coframing_duality"].add(np.einsum("pi,pi->p", eta, xi) - 1.0)
        residuals["coframing_closed"].add(exterior_derivative(block.eta, local))
        rank = rank + rank_of(f)
        lengths = lengths + length
    residuals["median_unit_length"].add(lengths / k - 1.0)
    return rank, {name: residual.value for name, residual in residuals.items()}


def _reference_lift_laws(product, samples, tol):
    """The lift-law residuals block by block, one stack per block, as the
    stage computed them before it stacked the blocks of one definition."""
    upper = np.triu_indices(3, 1)
    lift = Residual("lifted_covariant_derivative", tol)
    invol = Residual("image_median_involutive", tol)
    blocks = product._split[1]
    for block, cell, column in zip(blocks, product.cells, sewing.frame_coefficients(len(blocks)).T):
        local = samples.coords[:, block.rows]
        lift.add(christoffel(block.metric, local) - christoffel(cell.metric, local))
        g_normal = (block.metric.evaluate(local) @ block.xi.evaluate(local)[:, :, None]) * column[1:]
        images = lie_bracket(block.f, block.f, local)[:, :, upper[0], upper[1]]
        with_median = column[0] * lie_bracket(block.f, block.xi, local)
        for brackets in (images, with_median):
            invol.add(np.swapaxes(brackets, 1, 2) @ g_normal)
    return {"lifted_covariant_derivative": lift.value, "image_median_involutive": invol.value}


class TestStackedBlocks:
    """The product stages group the blocks by definition and evaluate one
    block's fields at the projections of all the blocks of its group,
    stacked sample by sample.  They give what a loop over the blocks, one
    stack each, gives, bit for bit."""

    @staticmethod
    def assert_matches_the_block_loop(product, samples, f_report, lift_report, rank_of=numeric_rank):
        k = product.cell_count
        ranks, f_residuals = _reference_f_structure(product, samples, 1e-8, rank_of)
        for name, value in f_residuals.items():
            assert f_report.check(name).residual == value, name
        gaps = ranks - 2 * k
        kernel = f_report.check("kernel_rank")
        assert kernel.residual == np.abs(gaps).max()
        assert kernel.note.startswith(f"rank {ranks[np.argmax(np.abs(gaps))]},")
        for name, value in _reference_lift_laws(product, samples, 1e-9).items():
            assert lift_report.check(name).residual == value, name

    @pytest.mark.parametrize("cells, groups", [
        pytest.param("model-model-model", {0: [0, 1, 2]}, id="copies"),
        pytest.param("model-halfspace-model", {0: [0, 2], 1: [1]}, id="model-halfspace-model"),
        pytest.param("halfspace-model-halfspace", {0: [0, 2], 1: [1]}, id="halfspace-model-halfspace"),
        pytest.param("model-renamed-model", {0: [0, 2], 1: [1]}, id="model-renamed-model"),
    ])
    def test_stacked_stages_equal_the_block_loop(self, model_cell, halfspace_cell, cells, groups):
        """500 samples of three blocks make three batches of at most 202.
        The renamed cell is the model cell in the coordinates (t, u, v): its
        block's trees agree with the model blocks', but the cells are not
        one definition, so the block is a group of its own."""
        mapping = {"t": "t", "x": "u", "y": "v"}
        chart = Chart(tuple(mapping.values()), adapted_index=model_cell.chart.adapted_index)
        renamed = ContactStructure("renamed", chart, *(
            TensorField(chart, field.upper, field.lower, field.renamed_grid(mapping))
            for field in (model_cell.metric, model_cell.phi, model_cell.xi, model_cell.eta)))
        named = {"model": model_cell, "halfspace": halfspace_cell, "renamed": renamed}
        product = build_product([named[name] for name in cells.split("-")])
        assert product._groups == groups
        samples = sample_points(product.chart, 500, 7)
        f_report = verify_f_structure(product, samples, 1e-8)
        lift_report = verify_lift_laws(product, samples, 1e-9)
        assert f_report.passed and lift_report.passed
        self.assert_matches_the_block_loop(product, samples, f_report, lift_report)

    def test_blocks_are_compared_without_renamed_copies(self, model_cell, halfspace_cell, monkeypatch):
        """``_same_block`` walks both blocks' trees with the name map: no
        tree is renamed, and the groups are those of the renamed copies."""
        from sewcells import expressions

        products = [build_product(cells) for cells in ([model_cell] * 3, [model_cell, halfspace_cell, model_cell],
                                                       [halfspace_cell, model_cell, halfspace_cell])]
        perturbed = _with_x3_metric_perturbed(build_product([model_cell] * 4))
        for product in products + [perturbed]:
            product._split  # the blocks, built by restriction
        for owner, name in ((TensorField, "renamed_grid"), (expressions, "rename_variables"),
                            (sewing, "rename_variables")):
            monkeypatch.setattr(owner, name, lambda *args: pytest.fail("a tree was renamed"))
        assert [product._groups for product in products] == [{0: [0, 1, 2]}, {0: [0, 2], 1: [1]}, {0: [0, 2], 1: [1]}]
        assert perturbed._groups == {0: [0, 1, 3], 2: [2]}

    def test_ranks_sum_per_sample(self, model_cell, halfspace_cell, monkeypatch):
        """With a stand-in rank that differs at every row, the worst per-sample
        sum is the block loop's only if each row's rank goes to its own
        sample, also across the two groups of model/halfspace/model."""
        def rank_of(f):
            return (np.abs(f).sum(axis=(1, 2)) * 1e6).astype(np.int64)

        monkeypatch.setattr(sewing, "numeric_rank", rank_of)
        product = build_product([model_cell, halfspace_cell, model_cell])
        samples = sample_points(product.chart, 500, 7)
        self.assert_matches_the_block_loop(product, samples, verify_f_structure(product, samples, 1e-8),
                                           verify_lift_laws(product, samples, 1e-9), rank_of)

    @pytest.mark.parametrize("mixed", [False, True], ids=["copies", "mixed"])
    def test_extrinsic_stage_is_the_same_with_every_block_alone(self, model_cell, halfspace_cell, mixed,
                                                               sewing_inputs, monkeypatch):
        """The extrinsic stage places each group's stacked rows at their
        blocks: with every block a group of its own it reports the same
        residuals, bit for bit.  (The halfspace geometry along the Reeb field
        varies from sample to sample; the model cell's does not.)"""
        cells = [halfspace_cell, model_cell, halfspace_cell] if mixed else [halfspace_cell] * 3
        product, sewn, samples, _ = sewing_inputs(cells, 25)
        grouped = extrinsic_report(product, sewn, samples, 1e-8)
        monkeypatch.setattr(sewing, "_same_block", lambda a, b: False)
        alone = build_product(cells)
        assert len(alone._groups) == 3 and len(product._groups) == (2 if mixed else 1)
        assert grouped.passed and grouped.checks == extrinsic_report(alone, sewn, samples, 1e-8).checks

    def test_a_field_read_at_two_column_sets_runs_once_per_read(self, model_cell, monkeypatch):
        """Four model copies with block 3's metric perturbed: the lift laws
        read the cell's metric at the columns of blocks 1, 2 and 4 and at
        those of block 3, and each read keeps its own binding, so the 25
        samples, one chunk, run that program twice and every block field's
        once; a binding per field made the first read run it again."""
        from collections import Counter

        product = _with_x3_metric_perturbed(build_product([model_cell] * 4))
        runs = Counter()
        run = TensorField._run

        def counted(field, point, order):
            runs[id(field)] += 1
            return run(field, point, order)

        monkeypatch.setattr(TensorField, "_run", counted)
        report = verify_lift_laws(product, sample_points(product.chart, 25, 7), 1e-9)
        blocks = product._split[1]
        assert product._groups == {0: [0, 1, 3], 2: [2]} and not report.passed
        expected = {id(model_cell.metric): 2}
        expected.update((id(field), 1) for b in (0, 2) for field in (blocks[b].metric, blocks[b].f, blocks[b].xi))
        assert runs == expected

    def test_a_perturbed_block_is_its_own_group_and_fails(self, model_cell):
        """A metric entry of block 3 of four model copies times 1 + x3^2 still
        names block 3 only, so ``block_structure`` holds; the block is no
        longer a copy of the first, and both stages fail with the residuals
        of the block loop."""
        product = build_product([model_cell] * 4)
        perturbed = _with_x3_metric_perturbed(product)
        assert block_structure(perturbed).passed
        assert perturbed._groups == {0: [0, 1, 3], 2: [2]}
        samples = sample_points(product.chart, 25, 7)
        f_report = verify_f_structure(perturbed, samples, 1e-8)
        lift_report = verify_lift_laws(perturbed, samples, 1e-9)
        assert not f_report.check("f_metric_skew").passed
        assert not lift_report.check("lifted_covariant_derivative").passed
        self.assert_matches_the_block_loop(perturbed, samples, f_report, lift_report)


class TestSew:
    def test_two_model_cells_induced_structure(self, model_cell):
        sewn = sew([model_cell, model_cell])
        assert isinstance(sewn, SewnManifold)
        assert sewn.chart.coords == ("s", "x1", "y1", "x2", "y2")
        assert sewn.chart.adapted_index == 0
        assert sewn.eta_scale == pytest.approx(math.sqrt(2.0))
        for point in sample_points(sewn.chart, 10, 7).coords:
            s = point[0]
            g = sewn.metric.evaluate(point)
            expected = np.diag(
                [2.0, math.exp(2 * s), math.exp(-2 * s), math.exp(2 * s), math.exp(-2 * s)]
            )
            # coordinate order is (s, x1, y1, x2, y2)
            expected = expected[np.ix_([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])]
            assert np.allclose(g, expected, atol=1e-12)
            xi = sewn.xi.evaluate(point)
            assert np.allclose(xi, [1.0 / math.sqrt(2.0), 0, 0, 0, 0], atol=1e-15)
            eta = sewn.eta.evaluate(point)
            assert np.allclose(eta, [math.sqrt(2.0), 0, 0, 0, 0], atol=1e-15)

    def test_probes_evaluate_each_cell_field_on_one_stack(self, halfspace_cell, monkeypatch):
        """The sewability probes take each probed field of a cell on the (3, 3)
        stack of its three probe points, once for the three copies of the
        cell: one probe stack serves the adapted-unit and the diagonal
        checks."""
        original = TensorField.evaluate
        shapes = {}

        def spy(field, point):
            shapes.setdefault(id(field), []).append(np.shape(point))
            return original(field, point)

        monkeypatch.setattr(TensorField, "evaluate", spy)
        sew([halfspace_cell] * 3)
        for field in (halfspace_cell.eta, halfspace_cell.xi, halfspace_cell.phi):
            assert shapes[id(field)] == [(3, 3)]

    def test_two_flat_cells_are_flat_with_zero_nullity(self, flat_cell):
        sewn = sew([flat_cell, flat_cell])
        for point in sample_points(sewn.chart, 5, 7).coords:
            assert not riemann(sewn.metric, point, sewn.xi.evaluate(point))[1].any()
            fit = fit_nullity(sewn, point)
            assert fit.kappa == pytest.approx(0.0, abs=1e-12)
            assert not fit.determinate_mu

    def test_two_halfspace_cells_reeb_field(self, halfspace_cell):
        sewn = sew([halfspace_cell, halfspace_cell])
        assert sewn.chart.coords == ("s", "x1", "y1", "x2", "y2")
        for point in sample_points(sewn.chart, 10, 7).coords:
            s, x1, y1, x2, y2 = point
            root = 1.0 / math.sqrt(2.0)
            expected = root * np.array(
                [
                    1.0,
                    x1 - y1 * math.exp(-2.0 * s),
                    y1 - x1 * math.exp(-2.0 * s),
                    x2 - y2 * math.exp(-2.0 * s),
                    y2 - x2 * math.exp(-2.0 * s),
                ]
            )
            assert np.allclose(sewn.xi.evaluate(point), expected, atol=1e-14)

    def test_sewn_manifold_passes_structure_axioms(self, catalog_cells):
        for cell in catalog_cells:
            sewn = sew([cell, cell])
            report = validate_structure(sewn, sample_points(sewn.chart, 25, 7), 1e-9)
            assert report.passed, report.format_table()

    def test_eta_wedge_dphi_vanishes_for_arbitrary_cells(self, catalog_cells):
        # even mixed-weight sewn manifolds satisfy eta ^ d(Phi) = 0 (and keep
        # the Reeb parallelism facts), although no single weight exists
        from sewcells.geometry import covariant_derivative_affinor, fundamental_form_with_derivative

        def eta_wedge_3form(eta, omega):
            """Also on each set of a star layout, where eta is zero off the
            hub and d Phi off the sets, so that the sets hold every entry."""
            return (
                np.einsum("...i,...jkl->...ijkl", eta, omega)
                - np.einsum("...j,...ikl->...ijkl", eta, omega)
                + np.einsum("...k,...ijl->...ijkl", eta, omega)
                - np.einsum("...l,...ijk->...ijkl", eta, omega)
            )

        flat, model, kenmotsu, halfspace = catalog_cells
        for cells in ([kenmotsu, flat, flat], [model, halfspace], [kenmotsu, flat, halfspace]):
            sewn = sew(cells)
            for point in sample_points(sewn.chart, 8, 3).coords:
                _, d_phi = fundamental_form_with_derivative(sewn, point)
                eta = sewn.eta.evaluate(point, layout=sewn.layout)
                assert float(np.max(np.abs(eta_wedge_3form(eta, d_phi)))) <= 1e-10
                deriv = covariant_derivative_affinor(sewn, point)
                assert deriv.nabla_xi_xi_norm <= 1e-9
                assert deriv.nabla_xi_phi_norm <= 1e-9

    @pytest.mark.parametrize("copies, renamed", [
        (11, {("x", 11): "x_11", ("x1", 1): "x1_1"}),
        (16, {**{("x", i): f"x_{i}" for i in range(11, 17)}, **{("x1", i): f"x1_{i}" for i in range(1, 7)}}),
    ])
    def test_coordinate_renaming_is_injective(self, model_cell, copies, renamed, tmp_path, monkeypatch):
        """The model cell on (t, x, x1) sews at k = 11 and 16: x of copy 11
        and x1 of copy 1 would both be x11, so those two, and every other
        pair that would share a name, take an underscore, and every name no
        other coordinate would get keeps its bytes (x of copy i is xi, x1 of
        copy i is x1i)."""
        from sewcells import cli

        chart = Chart(("t", "x", "x1"), adapted_index=0)
        names = {"t": "t", "x": "x", "y": "x1"}
        cell = ContactStructure("model_x_x1", chart, *(
            TensorField(chart, field.upper, field.lower, field.renamed_grid(names))
            for field in (model_cell.metric, model_cell.phi, model_cell.xi, model_cell.eta)))
        monkeypatch.chdir(tmp_path)
        save_manifold(cell, "cell.json")
        argv = ["sew", "cell.json", "--copies", str(copies), "--out", "sewn.json", "--points", "10"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_PASS
        expected = [renamed.get((name, i), f"{name}{i}") for i in range(1, copies + 1) for name in ("x", "x1")]
        assert load_manifold("sewn.json").chart.coords == ("s", *expected)
        assert build_product([cell] * copies).chart.coords == tuple(
            renamed.get((name, i), f"{name}{i}") for i in range(1, copies + 1) for name in ("t", "x", "x1"))

    def test_domain_constraints_are_inherited_once(self, halfspace_cell):
        sewn = sew([halfspace_cell, halfspace_cell])
        assert [c.source() for c in sewn.chart.constraints] == ["s > 0"]

    def test_sewing_a_sewn_manifold_is_rejected(self, flat_cell):
        sewn = sew([flat_cell, flat_cell])
        with pytest.raises(SewingError):
            sew([sewn, sewn])

    def test_induced_structure_is_the_pullback(self, model_cell, halfspace_cell):
        # the symbolic construction must agree with pulling the product
        # tensors back through the embedding, including for distinct cells
        cells = [model_cell, halfspace_cell]
        product = build_product(cells)
        sewn = sew(cells)
        e = embedding_matrix(product, sewn)
        median = product_median(product)
        for p in sample_points(sewn.chart, 15, 7).coords:
            q = e @ p
            g_bar = product.metric.evaluate(q)
            f_bar = product.f.evaluate(q)
            assert np.allclose(sewn.metric.evaluate(p), e.T @ g_bar @ e, atol=1e-14)
            # phi_N pushes forward to f on embedded fields
            assert np.allclose(e @ sewn.phi.evaluate(p), f_bar @ e, atol=1e-14)
            # xi_N pushes forward to the median
            assert np.allclose(e @ sewn.xi.evaluate(p), median.evaluate(q), atol=1e-14)
            # eta_N = sqrt(k) * pullback of the first coframe
            eta1 = product.coframing[0].evaluate(q)
            assert np.allclose(sewn.eta.evaluate(p), math.sqrt(2.0) * (eta1 @ e), atol=1e-14)

    def test_embedding_matrix(self, model_cell, halfspace_cell):
        cells = [model_cell, halfspace_cell]
        product = build_product(cells)
        sewn = sew(cells)
        e = embedding_matrix(product, sewn)
        # product coords: (t1, x1, y1, x2, y2, z2); diagonal chart (s, x1, y1, x2, y2)
        point = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
        q = e @ point
        assert q[product.chart.index_of("t1")] == 0.5
        assert q[product.chart.index_of("z2")] == 0.5
        assert q[product.chart.index_of("x1")] == 1.0
        assert q[product.chart.index_of("y2")] == 4.0
        assert e.shape == (6, 5)


class TestExtrinsic:
    def test_flat_pair_is_totally_geodesic(self, flat_cell, sewing_inputs):
        product, sewn, samples, _ = sewing_inputs([flat_cell, flat_cell], 10)
        report = extrinsic_report(product, sewn, samples, 1e-8)
        assert report.passed
        assert not second_fundamental(product, sewn, samples).any()

    def test_model_pair(self, model_cell, sewing_inputs):
        product, sewn, samples, _ = sewing_inputs([model_cell, model_cell], 15)
        report = extrinsic_report(product, sewn, samples, 1e-8)
        assert report.passed
        assert report.check("normal_connection_flat").residual <= 1e-9
        assert report.check("weingarten_kills_xi").residual <= 1e-9
        # the diagonal is not totally geodesic here
        assert float(np.max(np.abs(second_fundamental(product, sewn, samples)))) > 0.1

    def test_kenmotsu_pair_curvature_restriction(self, kenmotsu_cell, sewing_inputs):
        product, sewn, samples, _ = sewing_inputs([kenmotsu_cell, kenmotsu_cell], 15)
        report = extrinsic_report(product, sewn, samples, 1e-8)
        assert report.passed
        assert report.check("curvature_restriction_match").residual <= 1e-8

    def test_model_triple_has_nontrivial_normal_bundle(self, model_cell, sewing_inputs):
        product, sewn, samples, _ = sewing_inputs([model_cell] * 3, 8)
        report = extrinsic_report(product, sewn, samples, 1e-8)
        assert report.passed
        assert second_fundamental(product, sewn, samples)[0].shape == (7, 7, 2)


def theorems(sewing_inputs, cells, count):
    product, sewn, _, grouped = sewing_inputs(cells, count)
    return verify_sewing_theorems(product, sewn, grouped, 1e-8)


def theorems_and_sewn_fits(sewing_inputs, cells, count):
    """``theorems``, and the sewn fits that the stage takes at its samples."""
    product, sewn, _, grouped = sewing_inputs(cells, count)
    return verify_sewing_theorems(product, sewn, grouped, 1e-8), fit_nullity(sewn, grouped.coords)


class TestTheorems:
    def test_model_pair_and_triple_nullity_transfer(self, model_cell, sewing_inputs):
        pair, pair_fits = theorems_and_sewn_fits(sewing_inputs, [model_cell, model_cell], 15)
        assert pair.passed
        assert pair.generalized is not None
        assert pair_fits.kappa == pytest.approx(-0.5, abs=1e-8)
        triple, triple_fits = theorems_and_sewn_fits(sewing_inputs, [model_cell] * 3, 12)
        assert triple.passed
        assert triple_fits.kappa == pytest.approx(-1.0 / 3.0, abs=1e-8)
        assert np.abs(triple_fits.mu).max() <= 1e-8 and np.abs(triple_fits.muprime).max() <= 1e-8

    def test_halfspace_pair_generalized_transfer(self, halfspace_cell, sewing_inputs):
        product, sewn, _, grouped = sewing_inputs([halfspace_cell, halfspace_cell], 15)
        report = verify_sewing_theorems(product, sewn, grouped, 1e-8)
        assert report.passed
        s = grouped.coords[:, 0]
        assert fit_nullity(sewn, grouped.coords).kappa == pytest.approx(-(1.0 + np.exp(-4.0 * s)) / 2.0, abs=1e-8)
        assert report.generalized is not None
        assert report.generalized.eta_aligned
        assert not report.generalized.constant_kappa
        # this cell has mu' = 0, so no convention can be singled out
        assert report.convention_comparison.reproduces_inverse_k.startswith("indeterminate")

    def test_kenmotsu_pair_classification_and_convention(self, kenmotsu_cell, sewing_inputs):
        report, sewn_fits = theorems_and_sewn_fits(sewing_inputs, [kenmotsu_cell, kenmotsu_cell], 15)
        assert report.passed
        assert report.sewn_classification.alpha == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
        assert sewn_fits.kappa == pytest.approx(-1.0, abs=1e-8)
        comp = report.convention_comparison
        assert comp is not None
        assert comp.reproduces_inverse_k == "kenmotsu"
        assert comp.muprime_ratio_normalized == pytest.approx(0.5, abs=1e-8)
        assert comp.muprime_ratio_raw == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    def test_convention_comparison_scales_the_raw_fits(self, sewing_inputs, monkeypatch):
        """The comparison builds no ``normalized`` copy of a fit: it scales
        the raw mu' by alpha, the product ``normalized`` takes, so it equals
        bit for bit the comparison built from those copies of the stage's
        fits, which ``fit_nullity`` gives again."""
        cell = kenmotsu_warped_cell(alpha=1.2, kappa0=-3.0, c=1.5, cprime=0.7)

        def refuse(*args):
            raise AssertionError("a normalized copy of a fit was built")

        for module in (nullity, sewing):
            monkeypatch.setattr(module, "normalized", refuse, raising=False)
        product, sewn, _, grouped = sewing_inputs([cell, cell], 15)
        report = verify_sewing_theorems(product, sewn, grouped, 1e-8)
        monkeypatch.undo()
        comp = report.convention_comparison
        assert comp.reproduces_inverse_k == "kenmotsu"

        def mean_muprime(fits) -> float:
            return float(np.mean(fits.muprime))

        projected = grouped.coords @ embedding_matrix(product, sewn).T
        sewns = fit_nullity(sewn, grouped.coords)
        cells = fit_nullity(cell, projected[:, list(product.blocks[0])])
        assert comp.muprime_ratio_raw == mean_muprime(sewns) / mean_muprime(cells)
        assert comp.muprime_ratio_normalized == (mean_muprime(nullity.normalized(sewns, comp.alpha_sewn))
                                                 / mean_muprime(nullity.normalized(cells, comp.alpha_cell)))

    def test_flat_pair(self, flat_cell, sewing_inputs):
        report = theorems(sewing_inputs, [flat_cell, flat_cell], 10)
        assert report.passed
        assert report.sewn_classification.kind == "almost_cosymplectic"

    def test_mixed_weight_pair_is_unclassified(self, kenmotsu_cell, flat_cell):
        # weights 1 and 0 cannot share a single weight function in dimension 5
        sewn = sew([kenmotsu_cell, flat_cell])
        from sewcells.geometry import UNCLASSIFIED

        samples = sample_points(sewn.chart, 10, 7)

        cl = classify_and_fit(sewn, samples, 1e-8, False)[0][0]
        assert cl.kind == UNCLASSIFIED
        assert cl.weight_fit_residual_max > 1e-8
        # the structure axioms still hold on the sewn manifold
        report = validate_structure(sewn, sample_points(sewn.chart, 10, 7), 1e-9)
        assert report.passed, report.format_table()

    def test_classification_is_order_invariant(self, model_cell, flat_cell, sewing_inputs):
        # both cells have weight 0, so any order sews to an almost cosymplectic manifold
        forward = theorems(sewing_inputs, [model_cell, flat_cell], 10)
        backward = theorems(sewing_inputs, [flat_cell, model_cell], 10)
        assert forward.generalized is None
        assert forward.sewn_classification.kind == backward.sewn_classification.kind == "almost_cosymplectic"
        k1 = kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0, c=1.0, cprime=1.0)
        k2 = kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0, c=0.5, cprime=2.0)
        ab = theorems(sewing_inputs, [k1, k2], 10)
        ba = theorems(sewing_inputs, [k2, k1], 10)
        assert ab.sewn_classification.alpha == pytest.approx(ba.sewn_classification.alpha, abs=1e-10)
        assert ab.sewn_classification.alpha == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)


def _transfer_by_rows(report, product, sewn, samples, tol):
    """The transfer residuals and the convention ratios as the theorem stage
    folded them one sample at a time, from ``fit_nullity`` at single points:
    each sample's sewn fit against the fits at its projections into the k
    cells, mu and mu' where both are determinate, and the mean mu' of the
    sewn and the first cell's fits, raw and times alpha."""
    cells = product.cells
    k = len(cells)
    fit_residuals = Residual("nullity_fit_residuals", tol)
    kappa, mu, muprime = (Residual(name, tol) for name in ("kappa_transfer", "mu_transfer", "muprime_transfer"))
    embedding = embedding_matrix(product, sewn)
    sewn_muprime, cell_muprime = [], []
    for point in samples.coords:
        sewn_fit = fit_nullity(sewn, point)
        projected = point @ embedding.T
        row = [fit_nullity(cell, projected[list(block)]) for cell, block in zip(cells, product.blocks)]
        fit_residuals.add(sewn_fit.residual)
        for cf in row:
            fit_residuals.add(cf.residual)
            kappa.add(sewn_fit.kappa - cf.kappa / k)
            if cf.determinate_mu and sewn_fit.determinate_mu:
                mu.add(sewn_fit.mu - cf.mu / math.sqrt(k))
                muprime.add(sewn_fit.muprime - cf.muprime / math.sqrt(k))
        sewn_muprime.append(float(sewn_fit.muprime))
        cell_muprime.append(float(row[0].muprime))
    residuals = {r.name: r.value for r in (fit_residuals, kappa, mu, muprime)}
    comp = report.convention_comparison
    cell_raw, sewn_raw = np.mean(cell_muprime), np.mean(sewn_muprime)
    cell_norm = np.mean([comp.alpha_cell * m for m in cell_muprime])
    sewn_norm = np.mean([comp.alpha_sewn * m for m in sewn_muprime])
    if abs(cell_raw) <= 1e-8 or abs(cell_norm) <= 1e-8:
        return residuals, (math.nan, math.nan)
    return residuals, (float(sewn_raw / cell_raw), float(sewn_norm / cell_norm))


class TestColumnarTransfer:
    """The theorem stage reduces the fits' columns under the
    ``determinate_mu`` mask with the same IEEE operations that a loop over
    the samples took, so its residuals and ratios equal those of the loop
    bit for bit."""

    @pytest.mark.parametrize("cell, copies, points", [
        (kenmotsu_warped_cell(alpha=1.2, kappa0=-3.0, c=1.5, cprime=0.7), 2, 25),
        (kenmotsu_warped_cell(alpha=1.2, kappa0=-3.0, c=1.5, cprime=0.7), 3, 25),
        # the cell sweep reads 4 column sets in fold batches of 45, 45 and 10 samples (at most 182 rows)
        (halfspace_kenmotsu_cell(), 4, 100),
    ], ids=["warped-k2", "warped-k3", "halfspace-k4-p100"])
    def test_transfer_matches_the_loop_over_single_points(self, cell, copies, points, sewing_inputs):
        product, sewn, _, grouped = sewing_inputs([cell] * copies, points)
        report = verify_sewing_theorems(product, sewn, grouped, 1e-8)
        assert report.passed and len(grouped) == points
        residuals, ratios = _transfer_by_rows(report, product, sewn, grouped, 1e-8)
        assert {name: report.check(name).residual for name in residuals} == residuals
        comp = report.convention_comparison
        np.testing.assert_array_equal([comp.muprime_ratio_raw, comp.muprime_ratio_normalized], ratios)
        assert len(report.generalized.order) == points

    def test_generalized_order_is_the_grouping_by_adapted_value(self, halfspace_cell):
        """5 groups of 200 samples over fold batches of 182: the stable sort
        by the adapted column lists the rows as grouping them by value in a
        dict, with the values sorted, did."""
        from sewcells.charts import batch_size, nullity_samples
        from sewcells.nullity import _spread, check_generalized

        samples = nullity_samples(halfspace_cell.chart, 1000, 7)
        assert batch_size(3, (halfspace_cell.metric,)) == 182
        ((_, fits),) = classify_and_fit(halfspace_cell, samples, 1e-8, True)
        report = check_generalized(halfspace_cell, samples, fits, 1e-8)
        groups = {}
        for row, t in enumerate(samples.coords[:, 2].tolist()):
            groups.setdefault(t, []).append(row)
        assert [len(rows) for rows in groups.values()] == [200] * 5
        assert report.order.tolist() == [row for t in sorted(groups) for row in groups[t]]
        spread = Residual("eta_aligned", 1e-8)
        for rows in groups.values():
            determinate = [row for row in rows if fits.determinate_mu[row]]
            for column, members in ((fits.kappa, rows), (fits.mu, determinate), (fits.muprime, determinate)):
                spread.add(_spread(column[members]))
        assert report.group_spread_max == spread.value

def _spy(monkeypatch, module, name, calls, record):
    """Rebind ``module.name`` so that each call also appends ``record(args, kwargs, result)`` to ``calls``."""
    original = getattr(module, name)

    def spied(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(record(args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, spied)


class TestTheoremSweeps:
    """The theorem stage sweeps the sewn chart once, in the batches of its
    metric's Hessian fold, then the same samples once per group of blocks
    (``ProductDefinition._groups``), reading the group's cell at the sewn
    columns of all its blocks, stacked sample by sample; the rows j::s of
    that stack are block j's (``nullity.classify_and_fit``)."""

    @pytest.fixture
    def layer_calls(self, monkeypatch):
        """(layer, dimension, stack shape) of every ``classify_layers`` and
        ``fit_nullity`` call of ``classify_and_fit``."""
        calls = []
        for name in ("fit_nullity", "classify_layers"):
            _spy(monkeypatch, nullity, name, calls, lambda args, _, __, name=name: (name, args[0].dim, args[1].shape))
        return calls

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """(structure, fit, columns, results) of every ``classify_and_fit``
        call of the theorem stage."""
        calls = []
        _spy(monkeypatch, sewing, "classify_and_fit", calls,
             lambda args, kwargs, result: (args[0], args[3], kwargs.get("columns"), result))
        return calls

    @staticmethod
    def assert_blocks_are_their_own(product, sewn, samples, sweeps):
        """After the sewn sweep, one sweep per group of blocks, on the
        group's cell at its blocks' sewn columns; each block's classification
        and fits equal those of the cell's own sweep (``classify_and_fit``)
        and ``fit_nullity`` at the block's own projected samples, field by
        field and bit for bit."""
        projected = samples.coords @ embedding_matrix(product, sewn).T
        (sewn_struct, fit, columns, _), *cell_sweeps = sweeps
        assert sewn_struct is sewn and columns is None
        assert len(cell_sweeps) == len(product._groups)
        for (first, members), (cell, group_fit, columns, results) in zip(product._groups.items(), cell_sweeps):
            assert cell is product.cells[first] and group_fit == fit
            np.testing.assert_array_equal(columns, sewn_columns(product, sewn)[members])
            assert len(results) == len(members)
            for b, (classification, fits) in zip(members, results):
                own = Samples(projected[:, list(product.blocks[b])], samples.draws)
                assert classification == classify_and_fit(cell, own, 1e-8, False)[0][0]
                if not fit:
                    assert fits is None
                    continue
                reference = fit_nullity(cell, own.coords)
                assert len(fits.kappa) == len(samples)
                for name, got in vars(fits).items():
                    np.testing.assert_array_equal(got, getattr(reference, name), err_msg=name)

    def test_sew_walks_the_sewn_chart_then_the_stacked_cells(self, kenmotsu_cell, layer_calls, sweeps, tmp_path,
                                                             monkeypatch, capsys):
        """``sew --copies 4`` at 25 points: the sewn chart (n = 9) in one
        batch of its layout's four sets, which holds 151 samples (22 on the
        full grid), then the cell at the four blocks' columns of all 25
        samples as one (100, 3) stack, each batch fitted and classified
        once."""
        from sewcells import cli
        from sewcells.charts import batch_size, nullity_samples

        monkeypatch.chdir(tmp_path)
        save_manifold(kenmotsu_cell, "warped.json")
        assert cli.main(["sew", "warped.json", "--copies", "4", "--out", "sewn.json"]) == cli.EXIT_PASS
        sewn, cell = sweeps[0][0], sweeps[1][0]  # the command's own, loaded from the file
        assert batch_size(9, (sewn.metric,)) == 22 and batch_size(9, (sewn.metric,), sewn.layout) == 151
        assert layer_calls == [("fit_nullity", 9, (25, 9)), ("classify_layers", 9, (25, 9)),
                               ("fit_nullity", 3, (100, 3)), ("classify_layers", 3, (100, 3))]
        self.assert_blocks_are_their_own(build_product([cell] * 4), sewn, nullity_samples(sewn.chart, 25, 7), sweeps)

    def test_blocks_straddling_fold_batches(self, halfspace_cell, layer_calls):
        """16 halfspace blocks at 25 sewn samples: a fold batch of 182 rows
        holds 11 samples of 16 rows, so the stacks are (176, 3), (176, 3)
        and (48, 3), and every block has rows in all three batches."""
        from sewcells.charts import batch_size, nullity_samples

        cells = [halfspace_cell] * 16
        product, sewn = build_product(cells), sew(cells)
        samples = nullity_samples(sewn.chart, 25, 7)
        columns = sewn_columns(product, sewn)
        swept = classify_and_fit(halfspace_cell, samples, 1e-8, True, columns=columns)
        assert batch_size(3, (halfspace_cell.metric,)) == 182
        assert layer_calls == [(name, 3, (rows, 3)) for rows in (176, 176, 48)
                               for name in ("fit_nullity", "classify_layers")]
        self.assert_blocks_are_their_own(product, sewn, samples, [(sewn, True, None, None),
                                                                  (halfspace_cell, True, columns, swept)])

    def test_each_distinct_cell_is_swept_once(self, model_cell, flat_cell, sewing_inputs, layer_calls, sweeps):
        """Model/flat/model: the blocks of distinct cells are not copies, so
        nothing is fitted, and the cell of each group sweeps the stacked
        columns of its own blocks, (50, 3) and (25, 3) at 25 samples."""
        product, sewn, _, grouped = sewing_inputs([model_cell, flat_cell, model_cell], 25)
        verify_sewing_theorems(product, sewn, grouped, 1e-8)
        assert product._groups == {0: [0, 2], 1: [1]}
        assert layer_calls[-2:] == [("classify_layers", 3, (50, 3)), ("classify_layers", 3, (25, 3))]
        self.assert_blocks_are_their_own(product, sewn, grouped, sweeps)

    def test_a_perturbed_block_is_swept_as_a_group_of_its_own(self, model_cell, sewing_inputs, sweeps):
        """Four model copies with block 3's metric perturbed: the cells are
        copies, so the stage fits, and it sweeps the cell twice, once for
        the blocks 1, 2 and 4 and once for block 3."""
        product, sewn, _, grouped = sewing_inputs([model_cell] * 4, 25)
        perturbed = _with_x3_metric_perturbed(product)
        verify_sewing_theorems(perturbed, sewn, grouped, 1e-8)
        assert perturbed._groups == {0: [0, 1, 3], 2: [2]}
        self.assert_blocks_are_their_own(perturbed, sewn, grouped, sweeps)


class TestTransformedFrameTables:
    """The sewn halfspace pair in the rotated frame.

    With X_i = d/dx_i and phi X_i = d/dy_i, the rotated fields
    Xbar_i = (X_i + phi X_i)/sqrt(2) and Ybar_i = (-X_i + phi X_i)/sqrt(2)
    diagonalize the brackets with the Reeb field:
    [Xbar_i, xi] = c-(s) Xbar_i and [Ybar_i, xi] = c+(s) Ybar_i with
    c-+(s) = (1 -++ e^{-2s})/sqrt(2).
    """

    @pytest.fixture
    def sewn(self, halfspace_cell):
        return sew([halfspace_cell, halfspace_cell])

    @staticmethod
    def _frames(sewn):
        chart = sewn.chart

        def const_field(values):
            return TensorField.build(chart, 1, 0, [repr(float(v)) for v in values])

        # Xbar_i = (e_{x_i} + e_{y_i})/sqrt(2), Ybar_i = (-e_{x_i} + e_{y_i})/sqrt(2)
        r = 1.0 / math.sqrt(2.0)
        xbar = [const_field([0.0, r, r, 0.0, 0.0]), const_field([0.0, 0.0, 0.0, r, r])]
        ybar = [const_field([0.0, -r, r, 0.0, 0.0]), const_field([0.0, 0.0, 0.0, -r, r])]
        return xbar, ybar

    def test_phi_rotates_xbar_to_ybar(self, sewn):
        xbar, ybar = self._frames(sewn)
        for point in sample_points(sewn.chart, 5, 7).coords:
            phi = sewn.phi.evaluate(point)
            for xb, yb in zip(xbar, ybar):
                assert np.allclose(phi @ xb.evaluate(point), yb.evaluate(point), atol=1e-14)

    def test_lie_bracket_table(self, sewn):
        xbar, ybar = self._frames(sewn)
        for point in sample_points(sewn.chart, 10, 7).coords:
            s = point[0]
            c_minus = (1.0 - math.exp(-2.0 * s)) / math.sqrt(2.0)
            c_plus = (1.0 + math.exp(-2.0 * s)) / math.sqrt(2.0)
            for field, coeff in [(xbar[0], c_minus), (xbar[1], c_minus), (ybar[0], c_plus), (ybar[1], c_plus)]:
                bracket = lie_bracket(field, sewn.xi, point)
                expected = coeff * field.evaluate(point)
                assert float(np.max(np.abs(bracket - expected))) <= 1e-10
            # all other frame brackets vanish
            for a, b in [(xbar[0], xbar[1]), (xbar[0], ybar[0]), (xbar[0], ybar[1]), (ybar[0], ybar[1])]:
                assert float(np.max(np.abs(lie_bracket(a, b, point)))) <= 1e-12

    def test_covariant_derivative_table(self, sewn):
        xbar, ybar = self._frames(sewn)
        for point in sample_points(sewn.chart, 10, 7).coords:
            s = point[0]
            c_minus = (1.0 - math.exp(-2.0 * s)) / math.sqrt(2.0)
            c_plus = (1.0 + math.exp(-2.0 * s)) / math.sqrt(2.0)
            xi_vals = sewn.xi.evaluate(point)
            for field, coeff in [(xbar[0], c_minus), (xbar[1], c_minus), (ybar[0], c_plus), (ybar[1], c_plus)]:
                vals = field.evaluate(point)
                nabla_field_xi = covariant_derivative_vector(sewn.metric, field, sewn.xi, point)
                assert float(np.max(np.abs(nabla_field_xi - coeff * vals))) <= 1e-9
                nabla_field_field = covariant_derivative_vector(sewn.metric, field, field, point)
                assert float(np.max(np.abs(nabla_field_field + coeff * xi_vals))) <= 1e-9
                nabla_xi_field = covariant_derivative_vector(sewn.metric, sewn.xi, field, point)
                assert float(np.max(np.abs(nabla_xi_field))) <= 1e-9
