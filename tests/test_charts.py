import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sewcells import charts
from sewcells.charts import (
    _MAX_REJECTIONS,
    BATCH_BYTES,
    Chart,
    ChartError,
    Constraint,
    ContactStructure,
    Residual,
    SampleEvaluationError,
    Samples,
    SamplingError,
    TensorField,
    batch_size,
    evaluate_batches,
    sample_points,
    sample_points_grouped,
    sampling_box,
    stack_columns,
    validate_structure,
)
from sewcells.expressions import EvaluationDomainError, to_source
from sewcells.geometry import fundamental_form_with_derivative, h_tensor, riemann
from sewcells.sewing import sew


def _with_constraint(chart, src):
    """``chart`` with one more constraint, which ``sampling_box`` leaves unshifted."""
    return Chart(chart.coords, chart.constraints + (Constraint.from_source(src, chart.coords),), chart.adapted_index)


def _holds(chart, point) -> bool:
    """Whether one point meets every constraint of ``chart``, tested with
    scalar arithmetic (the samplers test stacks with ``Chart.inside``)."""
    return all(c.holds(point, chart.coord_index) for c in chart.constraints)


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
        first, second = sample_points(chart, 5, 42), sample_points(chart, 5, 42)
        assert np.array_equal(first.coords, second.coords) and np.array_equal(first.draws, second.draws)

    def test_samples_count_slice_and_stay_read_only(self):
        samples = Samples(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.array([0, 2, 3]))
        assert len(samples) == 3
        assert len(Samples(np.zeros((0, 2)), np.zeros(0, dtype=np.intp))) == 0
        tail = samples[1:]
        assert tail.coords.tolist() == [[3.0, 4.0], [5.0, 6.0]] and tail.draws.tolist() == [2, 3]
        picked = samples[np.array([2, 0])]
        assert picked.coords.tolist() == [[5.0, 6.0], [1.0, 2.0]] and picked.draws.tolist() == [3, 0]
        with pytest.raises(ValueError):
            samples.coords[0, 0] = 0.0
        with pytest.raises(TypeError):
            iter(samples)

    def test_constraints_are_satisfied(self):
        chart = Chart(("x", "y", "z"), (Constraint.from_source("z > 0", ("x", "y", "z")),))
        for point in sample_points(chart, 100, 3).coords:
            assert point[2] > 0

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_points(Chart(("x",)), 0, 1)

    def test_thin_domain_fails_loudly(self):
        chart = Chart(("x",), (Constraint.from_source("x - 10 > 0", ("x",)),))
        with pytest.raises(SamplingError):
            sample_points(chart, 1, 0)

    @staticmethod
    def _scalar_reference(chart, count, seed, limit=_MAX_REJECTIONS):
        """One candidate at a time, one coordinate at a time."""
        intervals = sampling_box(chart)
        rng = np.random.default_rng(seed)
        points, draws, draw = [], [], 0
        for _ in range(count):
            for _ in range(limit):
                point = [float(rng.uniform(lo, hi)) for lo, hi in intervals]
                draw += 1
                if _holds(chart, point):
                    points.append(point)
                    draws.append(draw - 1)
                    break
            else:
                raise SamplingError("reference gave up")
        return points, draws

    def test_block_draws_match_the_scalar_loop(self, halfspace_cell, monkeypatch):
        xy = ("x", "y")
        logarithmic = Chart(xy, (Constraint.from_source("log(x) + y > -0.5", xy),))
        fallbacks = []
        holds = Constraint.holds

        def counted(constraint, point, index):
            fallbacks.append(point)
            return holds(constraint, point, index)

        monkeypatch.setattr(Constraint, "holds", counted)
        cases = [
            (Chart(("t", "x", "y")), False),              # unconstrained: every draw is kept
            # z - 0.5 > 0 rejects about one draw in five of the box (0.1, 2.1)
            (_with_constraint(halfspace_cell.chart, "z - 0.5 > 0"), True),
            (logarithmic, False),                         # the stack leaves the domain of log
        ]
        for chart, rejects in cases:
            row_tests = 0
            for seed in range(12):
                for count in (1, 5, 40):
                    expected = self._scalar_reference(chart, count, seed)
                    fallbacks.clear()
                    got = sample_points(chart, count, seed)
                    row_tests += len(fallbacks)
                    assert (got.coords.tolist(), got.draws.tolist()) == expected
                    assert got.draws.dtype == np.intp
            if rejects:
                assert (got.draws > np.arange(len(got))).any(), "the constraint must force rejections"
            # only a stack that leaves a constraint's domain is tested row by row
            assert bool(row_tests) == (chart is logarithmic)

    def test_gives_up_after_a_run_of_misses(self, monkeypatch):
        """``SamplingError`` exactly where the scalar loop gives up: after
        ``_MAX_REJECTIONS`` misses in a row (made small here, with a domain
        that keeps about two draws in five, so that runs one short of the
        limit occur as well)."""
        monkeypatch.setattr(charts, "_MAX_REJECTIONS", 6)
        chart = Chart(("x",), (Constraint.from_source("x > 0.2", ("x",)),))
        outcomes = set()
        for seed in range(60):
            try:
                expected = self._scalar_reference(chart, 8, seed, limit=6)
            except SamplingError:
                with pytest.raises(SamplingError, match="no in-domain point after 6 draws"):
                    sample_points(chart, 8, seed)
                outcomes.add("raised")
                continue
            got = sample_points(chart, 8, seed)
            assert (got.coords.tolist(), got.draws.tolist()) == expected
            outcomes.add("sampled")
        assert outcomes == {"raised", "sampled"}

    @staticmethod
    def _grouped_scalar_reference(chart, groups, per_group, seed, limit=_MAX_REJECTIONS):
        """The grouped sampler one candidate at a time, one coordinate at a time."""
        t_axis = chart.adapted_index
        intervals = sampling_box(chart)
        rng = np.random.default_rng(seed)
        points, draws, draw = [], [], 0
        for _ in range(groups):
            t_value = None
            for _ in range(per_group):
                for _ in range(limit):
                    point = [float(rng.uniform(lo, hi)) for lo, hi in intervals]
                    draw += 1
                    if t_value is not None:
                        point[t_axis] = t_value
                    if _holds(chart, point):
                        if t_value is None:
                            t_value = point[t_axis]
                        points.append(point)
                        draws.append(draw - 1)
                        break
                else:
                    raise SamplingError("reference gave up")
        return points, draws

    def test_grouped_block_draws_match_the_scalar_loop(self, catalog_cells):
        names = ("t", "x", "y")
        # the domain depends on t, so the adapted value a group shares changes the hit rate
        coupled = Chart(names, (Constraint.from_source("x + 0.8 * t > 0", names),), adapted_index=0)
        cases = [(cell.chart, False) for cell in catalog_cells] + [
            # z - 0.5 > 0 rejects about one draw in five of the box (0.1, 2.1)
            (_with_constraint(catalog_cells[-1].chart, "z - 0.5 > 0"), True),
            (coupled, True),
            (_with_constraint(sew([catalog_cells[-1]] * 3).chart, "s - 0.5 > 0"), True),
        ]
        for chart, rejects in cases:
            rejected = False
            for seed in range(8):
                for groups, per_group in ((1, 1), (5, 2), (5, 7), (3, 20)):
                    expected = self._grouped_scalar_reference(chart, groups, per_group, seed)
                    got = sample_points_grouped(chart, groups, per_group, seed)
                    assert (got.coords.tolist(), got.draws.tolist()) == expected
                    assert got.draws.dtype == np.intp
                    rejected = rejected or (got.draws > np.arange(len(got))).any()
            # the added constraints and the coupled domain must force rejections
            assert rejected == rejects

    def test_grouped_sampler_gives_up_after_a_run_of_misses(self, monkeypatch):
        monkeypatch.setattr(charts, "_MAX_REJECTIONS", 6)
        names = ("t", "x")
        chart = Chart(names, (Constraint.from_source("x + 0.5 * t > 0.3", names),), adapted_index=0)
        outcomes = set()
        for seed in range(60):
            try:
                expected = self._grouped_scalar_reference(chart, 3, 3, seed, limit=6)
            except SamplingError:
                with pytest.raises(SamplingError, match="no in-domain point after 6 draws"):
                    sample_points_grouped(chart, 3, 3, seed)
                outcomes.add("raised")
                continue
            got = sample_points_grouped(chart, 3, 3, seed)
            assert (got.coords.tolist(), got.draws.tolist()) == expected
            outcomes.add("sampled")
        assert outcomes == {"raised", "sampled"}

    def test_grouped_sampler_shares_adapted_values(self):
        chart = Chart(("t", "x", "y"), adapted_index=0)
        samples = sample_points_grouped(chart, 4, 3, 9)
        assert len(samples) == 12
        t_values = set(samples.coords[:, 0].tolist())
        assert len(t_values) == 4
        for t in t_values:
            assert np.count_nonzero(samples.coords[:, 0] == t) == 3

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
        broken = ContactStructure(
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

    def test_check_dicts_are_the_checks_fields(self, model_cell):
        """``check_dicts`` builds each dict from a check's fields, without
        the deep copy of ``dataclasses.asdict``, and gives what it gave."""
        import dataclasses

        report = validate_structure(model_cell, sample_points(model_cell.chart, 10, 2), 1e-9)
        dicts = report.check_dicts()
        assert dicts == [dataclasses.asdict(c) for c in report.checks]
        assert [list(d) for d in dicts] == [[f.name for f in dataclasses.fields(c)] for c in report.checks]

    def test_report_records_are_their_fields(self, kenmotsu_cell, tmp_path, monkeypatch):
        """The JSON report writes each record as its fields, names and values:
        ``Classification`` in ``verify``, ``nullity`` and ``sew``, the
        ``GeneralizedNullityReport`` fields but ``order`` as ``nullity``'s
        verdicts, and ``ConventionComparison`` in ``sew``."""
        import dataclasses
        import json

        from sewcells import cli
        from sewcells.manifold_io import save_manifold

        records = {}

        def spy(name, keep):
            original = getattr(cli, name)

            def recorded(*args, **kwargs):
                result = original(*args, **kwargs)
                records[name] = keep(result)
                return result

            monkeypatch.setattr(cli, name, recorded)

        spy("classify", lambda classification: classification)
        spy("classify_and_fit", lambda swept: swept[0][0])
        spy("check_generalized", lambda gen: gen)
        spy("verify_sewing_theorems", lambda theorems: theorems)

        def fields(record, leave=()):
            """The record's fields as its report writes them."""
            return json.loads(json.dumps({f.name: getattr(record, f.name) for f in dataclasses.fields(record)
                                          if f.name not in leave}))

        def subject(*argv):
            assert cli.main([*argv, "--points", "10", "--json", "report.json"]) == cli.EXIT_PASS
            (only,) = json.loads(Path("report.json").read_text())["subjects"]
            return only

        monkeypatch.chdir(tmp_path)
        save_manifold(kenmotsu_cell, "warped.json")
        assert subject("verify", "warped.json")["classification"] == fields(records["classify"])
        nullity = subject("nullity", "warped.json")
        assert nullity["classification"] == fields(records["classify_and_fit"])
        assert nullity["verdicts"] == fields(records["check_generalized"], leave=("order",))
        sewn = subject("sew", "warped.json", "--copies", "2", "--out", "sewn.json")
        theorems = records["verify_sewing_theorems"]
        assert sewn["cell_classification"] == fields(theorems.cell_classification)
        assert sewn["sewn_classification"] == fields(theorems.sewn_classification)
        assert sewn["convention_comparison"] == fields(theorems.convention_comparison)

    def test_adapted_eta_components_are_exact(self, catalog_cells):
        for cell in catalog_cells:
            t = cell.chart.adapted_index
            for point in sample_points(cell.chart, 10, 4).coords:
                eta = cell.eta.evaluate(point)
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
            for point in sample_points(cell.chart, 20, 5).coords:
                phi_form, _ = fundamental_form_with_derivative(cell, point)
                assert float(np.max(np.abs(phi_form + phi_form.T))) <= 1e-12
                xi = cell.xi.evaluate(point)
                assert float(np.max(np.abs(xi @ phi_form))) <= 1e-12


class TestIndexOperations:
    def test_h_is_trace_free_on_model_cell(self, model_cell):
        for point in sample_points(model_cell.chart, 10, 6).coords:
            h = h_tensor(model_cell, point).h
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


def _bound(field: TensorField) -> bool:
    """Whether a sweep holds ``field`` bound to the jet of a batch."""
    return bool(field._memo)


class _FieldInSweeps:
    """A field ``[log(x)*y, sin(x) + y^2]``, spies that count its program's
    runs and the stacks its tests sweep."""

    @pytest.fixture
    def field(self):
        field = TensorField.build(Chart(("x", "y")), 0, 1, ["log(x)*y", "sin(x) + y^2"])
        field._plan  # built before the walks are counted
        return field

    @pytest.fixture
    def walks(self, monkeypatch):
        """Runs of the field's program, counted by order: one run walks every
        component of the field."""
        counts = [0, 0, 0]
        value, jet = charts.evaluate, charts.evaluate_jet2

        def counted_value(program, point, index=None):
            counts[0] += 1
            return value(program, point, index)

        def counted_jet(program, point, index=None, order=2):
            counts[order] += 1
            return jet(program, point, index, order)

        monkeypatch.setattr(charts, "evaluate", counted_value)
        monkeypatch.setattr(charts, "evaluate_jet2", counted_jet)
        return counts

    points = np.array([[0.5, -0.25], [1.5, 0.75], [0.25, 2.0]])

    def samples(self, points=None) -> Samples:
        points = self.points if points is None else points
        return Samples(points.copy(), np.arange(len(points)))


class TestRememberedJet(_FieldInSweeps):
    """A sweep remembers the jet it bound for the rows of one batch: a call
    of its consumer at those rows and for no higher order returns the bound
    jet without a run, laid out once: a second call returns the same
    arrays."""

    def test_an_equal_stack_in_a_new_array_hits(self, field, walks):
        outside = field.evaluate_with_grads(self.points)
        walks[:] = [0, 0, 0]
        calls = []

        def layer(points):
            calls.append(field.evaluate_with_grads(points.copy()))
            return field.evaluate_with_grads(points)

        ((_, bound),) = evaluate_batches(self.samples(), 2, layer, [(field, 1)])
        assert walks == [0, 1, 0]
        ((vals, grads),) = calls
        assert vals is bound[0] and grads is bound[1]
        assert all(np.array_equal(a, b) for a, b in zip(outside, bound))

    def test_order_one_serves_values_and_gradients_but_not_hessians(self, field, walks):
        """Values and gradients come from the bound order-1 jet; a call for
        the Hessians, which the sweep does not read, runs the program."""
        calls = []

        def layer(points):
            calls.append((field.evaluate(points), field.evaluate_with_grads(points)))
            return field.evaluate_with_grads(points)

        ((_, bound),) = evaluate_batches(self.samples(), 2, layer, [(field, 1)])
        assert walks == [0, 1, 0]
        ((values, (vals, grads)),) = calls
        assert values is vals is bound[0] and grads is bound[1]
        for _, points in evaluate_batches(self.samples(), 2, lambda p: p, [(field, 1)]):
            field.evaluate_with_jets(points)
        assert walks == [0, 2, 1]


class TestSweepBindings(_FieldInSweeps):
    """A sweep binds each field it reads to the rows of the batch that its
    consumer runs on; outside a sweep a field is a pure function."""

    def test_outside_a_sweep_every_call_runs_the_program(self, field, walks):
        first = field.evaluate_with_grads(self.points)
        again = field.evaluate_with_grads(self.points.copy())
        field.evaluate(self.points)
        field.evaluate_with_jets(self.points)
        field.evaluate_with_grads(self.points)
        assert walks == [1, 3, 1]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert not _bound(field)

    def test_returned_arrays_are_read_only(self, field):
        def writable(points):
            return [array for array in (field.evaluate(points), *field.evaluate_with_jets(points))
                    if array.flags.writeable]

        assert writable(self.points) == []
        inside = [writable(points) for _, points in evaluate_batches(self.samples(), 2, lambda p: p, [(field, 2)])]
        assert inside == [[]]

    def test_a_block_column_view_reads_the_bound_rows(self, field, walks):
        """A field read at columns of a wider stack is bound at those columns,
        and a stack of the same shape with other columns runs the program."""
        wide = np.zeros((3, 4))
        wide[:, [2, 0]] = self.points
        wide[:, 1] = 0.5

        def layer(points):
            bound = field.evaluate_with_grads(points[:, [2, 0]])
            assert walks == [0, 1, 0]
            other = field.evaluate_with_grads(points[:, [2, 1]])
            assert walks == [0, 2, 0]
            return bound, other

        ((_, ((vals, _), (other, _))),) = evaluate_batches(self.samples(wide), 4, layer, [(field, 1, [2, 0])])
        np.testing.assert_array_equal(vals, field.evaluate(self.points))
        assert other[0, 0] == math.log(0.5) * 0.5

    def test_a_read_at_column_sets_binds_their_stacked_rows(self, field, walks):
        """A read at an (s, m) array of column sets binds the field to the
        rows of all of them, the s rows of each sample after one another,
        and the batch size counts those rows: 10 samples of 13 columns read
        at 2 column sets make batches of 3 samples, 6 rows of the 7 that
        ``batch_size(13)`` allows, and one program run for the chunk."""
        rng = np.random.default_rng(5)
        wide = rng.uniform(0.5, 1.5, (10, 13))
        sets = np.array([[2, 0], [7, 11]])
        seen = []

        def layer(points):
            stacked = stack_columns(points, sets)
            assert stacked.shape == (2 * len(points), 2)
            np.testing.assert_array_equal(stacked[1::2], points[:, [7, 11]])
            values, _ = field.evaluate_with_grads(stacked)
            seen.append(len(points))
            return values

        batches = list(evaluate_batches(self.samples(wide), 13, layer, [(field, 1, sets)]))
        assert batch_size(13) == 7 and seen == [3, 3, 3, 1] and walks == [0, 1, 0]
        values = np.concatenate([bound for _, bound in batches])
        np.testing.assert_array_equal(values, field.evaluate(stack_columns(wide, sets)))
        assert not _bound(field)

    def test_bindings_last_for_one_batch(self, field, walks):
        """20 samples in batches of 7 (the batch size of 13 dimensions) make
        one chunk: the field's program runs once, each batch reads its own
        rows of that run, also in the loop body, and no longer once the
        sweep has moved on to the next batch or has ended."""
        rng = np.random.default_rng(3)
        samples = self.samples(rng.uniform(0.5, 1.5, (20, 2)))
        assert batch_size(13) == 7
        seen = []
        for batch, bound in evaluate_batches(samples, 13, field.evaluate_with_grads, [(field, 1)]):
            assert field.evaluate(batch.coords) is bound[0]
            if seen:
                field.evaluate(seen[-1])  # the previous batch's rows, a run
            seen.append(batch.coords)
        assert [len(points) for points in seen] == [7, 7, 6] and walks == [2, 1, 0]
        assert not _bound(field)
        field.evaluate(seen[-1])
        assert walks == [3, 1, 0]

    def test_no_binding_outlives_a_sweep_that_stops(self, field):
        """Whether the consumer raises, the loop body raises or leaves the
        loop, the sweep leaves the fields it read unbound."""
        samples = self.samples(np.tile(self.points, (10, 1)))

        seen = []

        def failing(points):
            seen.append(len(points))
            if len(seen) == 2:
                raise ValueError("second batch")
            return points

        with pytest.raises(ValueError, match="second batch"):
            for _ in evaluate_batches(samples, 13, failing, [(field, 1)]):
                assert _bound(field)
        assert seen == [7, 7] and not _bound(field)
        with pytest.raises(KeyError):
            for _ in evaluate_batches(samples, 13, lambda points: points, [(field, 1)]):
                raise KeyError("body")
        assert not _bound(field)
        for _ in evaluate_batches(samples, 13, lambda points: points, [(field, 1)]):
            break
        assert not _bound(field)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_the_first_component_in_row_major_order_raises(order):
    """exp(x) and sqrt(x) read x, log(y) reads y; at x < 0 and y < 0 the second
    and the third component leave their domains, and the error is the second
    one's, where a run column set by column set would give the third's."""
    field = TensorField.build(Chart(("x", "y", "z")), 1, 0, ["exp(x)", "log(y)", "sqrt(x)"])
    points = np.array([[0.5, 0.5, 0.0], [-0.5, -0.25, 0.0]])
    with pytest.raises(EvaluationDomainError, match=r"^log of non-positive argument -0\.25$"):
        field._jet(points, order)
    points[:, 1] = 1.0  # log(y) is defined
    with pytest.raises(EvaluationDomainError, match=r"^sqrt of non-positive argument -0\.5$"):
        field._jet(points, order)


def _subtrees(node):
    yield node
    for child in (getattr(node, name, None) for name in ("operand", "arg", "left", "right")):
        if child is not None:
            yield from _subtrees(child)


@pytest.fixture
def program_runs(monkeypatch):
    """Counts the runs of every program as (program id, stack bytes, order):
    the field programs and the samplers' constraint programs (a bare tree,
    a constant component of a plan, is not counted)."""
    from sewcells.expressions import Program

    runs = Counter()
    value, jet = charts.evaluate, charts.evaluate_jet2

    def counted_value(program, point, index=None):
        if isinstance(program, Program):
            runs[id(program), point.tobytes(), 0] += 1
        return value(program, point, index)

    def counted_jet(program, point, index=None, order=2):
        runs[id(program), point.tobytes(), order] += 1
        return jet(program, point, index, order)

    monkeypatch.setattr(charts, "evaluate", counted_value)
    monkeypatch.setattr(charts, "evaluate_jet2", counted_jet)
    return runs


def _captured(monkeypatch, module, name):
    """Rebind ``module.name`` so that what it returns is also appended to the list returned."""
    made, original = [], getattr(module, name)

    def capture(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(module, name, capture)
    return made


def _chunk_stacks(samples, fields, order: int = 1) -> list[bytes]:
    """The stacks, as bytes, of the program chunks of a sweep in batches of
    ``batch_size`` over ``samples`` that reads ``fields`` at ``order`` (below
    2): the most whole batches whose compact jets, the values and gradient
    entries of the non-constant components, fit ``BATCH_BYTES``, and at
    least one batch."""
    size = batch_size(samples.coords.shape[1])
    width = sum(f._plan.positions.size + order * f._plan.grad_slots.size for f in fields)
    rows = size
    while 8 * (rows + size) * width <= BATCH_BYTES:
        rows += size
    return [samples.coords[start:start + rows].tobytes()
            for start in range(0, len(samples), rows)]


def test_verify_walks_each_component_once_per_chunk(tmp_path, monkeypatch, capsys, program_runs):
    """``verify`` runs the program of each field of g, phi, xi and eta exactly
    once per chunk of batches, at order 1 only: the axioms read the values of
    those jets, and the layers of ``classify`` read the jets that the sweep
    bound.  A program holds one instruction per distinct
    (subtree, column set) pair of its field's components, a constant subtree
    one across column sets.  On the 7-dim sewn chart 100 points make 3
    batches, and the compact jets of all of them fit one chunk."""
    from sewcells import cli
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.expressions import Num, free_variables
    from sewcells.manifold_io import save_manifold

    path = tmp_path / "sewn.json"
    save_manifold(sew([halfspace_kenmotsu_cell()] * 3), path)
    structures = _captured(monkeypatch, cli, "load_manifold")
    program_runs.clear()
    assert cli.main(["verify", str(path), "--points", "100"]) == cli.EXIT_PASS
    (struct,) = structures
    fields = (struct.metric, struct.phi, struct.xi, struct.eta)
    run = [field for field in fields if field._plan.program.roots]  # eta = sqrt(3) ds has none
    programs = {id(field._plan.program) for field in run}
    constraints = {id(program) for program in struct.chart._constraint_programs}  # the sampler's
    assert {program for program, _, _ in program_runs} == programs | constraints
    field_runs = {key: count for key, count in program_runs.items() if key[0] in programs}
    assert set(field_runs.values()) == {1}
    assert Counter(order for _, _, order in field_runs) == {1: len(run)}
    samples = sample_points(struct.chart, 100, 7)
    assert batch_size(7) < 100 and _chunk_stacks(samples, run) == [samples.coords.tobytes()]
    assert {stack for _, stack, _ in field_runs} == set(_chunk_stacks(samples, run))
    for field in fields:
        pairs = set()
        for pos in field._plan.positions:
            node = field.component(np.unravel_index(pos, field.shape))
            columns = frozenset(free_variables(node))
            pairs.update((sub, columns if free_variables(sub) else frozenset())
                         for sub in _subtrees(node) if not isinstance(sub, Num))
        assert len(field._plan.program) == len(pairs)


def test_verify_runs_each_program_once_per_chunk_and_reports_as_batch_by_batch(tmp_path, monkeypatch, capsys,
                                                                               program_runs):
    """On the 13-dim sewn chart (k = 6) 100 points make 15 batches of 7.  Each
    non-constant field's program runs once per chunk, on the chunk's whole
    batches, and the report is byte-identical to that of a run in which
    every chunk is one batch, so that every batch runs the programs alone."""
    from sewcells import cli
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.manifold_io import save_manifold

    path = tmp_path / "sewn.json"
    save_manifold(sew([halfspace_kenmotsu_cell()] * 6), path)
    structures = _captured(monkeypatch, cli, "load_manifold")

    def verify(report: str) -> dict:
        """The runs of each non-constant field's program, by stack and order."""
        program_runs.clear()
        assert cli.main(["verify", str(path), "--points", "100", "--json", str(tmp_path / report)]) == cli.EXIT_PASS
        struct = structures[-1]
        return {field: {(stack, order): count for (program, stack, order), count in program_runs.items()
                        if program == id(field._plan.program)}
                for field in (struct.metric, struct.phi, struct.xi, struct.eta) if field._plan.program.roots}

    chunked = verify("chunked.json")
    samples = sample_points(structures[-1].chart, 100, 7)
    stacks = _chunk_stacks(samples, chunked)
    assert batch_size(13) == 7 and 1 < len(stacks) < 15
    assert len(chunked) == 3 and all(runs == {(stack, 1): 1 for stack in stacks} for runs in chunked.values())

    monkeypatch.setattr(charts, "chunk_size", lambda size, fields: size)
    alone = verify("alone.json")
    assert all(len(runs) == 15 and set(runs.values()) == {1} for runs in alone.values())
    assert (tmp_path / "chunked.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


def test_nullity_walks_each_component_once_per_batch_and_order(tmp_path, monkeypatch, capsys, program_runs):
    """``nullity`` sweeps its samples once, for the axioms, ``classify``'s
    layers and the fits together, so each field's program runs once per
    chunk, at the highest order the sweep reads: the metric's at 2, phi's,
    xi's and eta's at 1.  On a cell the 25 samples are one batch of one
    chunk."""
    from sewcells import cli
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.manifold_io import save_manifold

    path = tmp_path / "halfspace.json"
    save_manifold(halfspace_kenmotsu_cell(), path)
    structures = _captured(monkeypatch, cli, "load_manifold")
    program_runs.clear()
    assert cli.main(["nullity", str(path)]) == cli.EXIT_PASS
    (struct,) = structures
    run = [field for field in (struct.metric, struct.phi, struct.xi, struct.eta) if field._plan.program.roots]
    assert struct.metric in run and struct.phi in run and struct.xi in run
    for field in run:
        stacks = {stack for program, stack, _ in program_runs if program == id(field._plan.program)}
        assert len(stacks) == 1
        runs = Counter()
        for (program, _, order), count in program_runs.items():
            if program == id(field._plan.program):
                runs[order] += count
        assert runs == ({2: 1} if field is struct.metric else {1: 1})


def _assert_no_field_stays_bound_after_commands(tmp_path, monkeypatch, forget=None):
    """Run ``verify``, ``nullity`` and ``sew --copies 3`` at 100 points (the
    sewn chart's 100 samples are 3 batches of one chunk) on one file, calling
    ``forget`` before each command if given, and check that no field of the
    loaded structures, the sewn manifold, the product or its blocks holds a
    binding.  Returns the structures that ``load_manifold`` made."""
    from sewcells import cli
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.manifold_io import save_manifold

    path = tmp_path / "halfspace.json"
    save_manifold(halfspace_kenmotsu_cell(), path)
    structures = _captured(monkeypatch, cli, "load_manifold")
    sewn = _captured(monkeypatch, cli, "sew")
    products = _captured(monkeypatch, cli, "build_product")
    for argv in (["verify", str(path)], ["nullity", str(path)],
                 ["sew", str(path), "--copies", "3", "--out", str(tmp_path / "sewn.json"), "--points", "100"]):
        if forget is not None:
            forget()
        assert cli.main(argv) == cli.EXIT_PASS
    assert len(sewn) == len(products) == 1
    (product,) = products
    assert -(-100 // batch_size(7)) == 3 and len(_chunk_stacks(sample_points(sewn[0].chart, 100, 7), [sewn[0].phi])) == 1
    fields = [field for struct in (*structures, *sewn, *product.cells)
              for field in (struct.metric, struct.phi, struct.xi, struct.eta)]
    fields += [product.metric, product.f, *product.framing, *product.coframing]
    fields += [field for block in product._split[1] for field in block[1:]]
    assert len(product._split[1]) == 3
    assert not any(_bound(field) for field in fields)
    return structures


def test_no_field_stays_bound_after_a_command(tmp_path, monkeypatch, capsys, forget_kept_definition):
    """No binding is left after each of three commands that load their own
    structure."""
    assert len(_assert_no_field_stays_bound_after_commands(tmp_path, monkeypatch, forget_kept_definition)) == 3


def test_no_field_of_the_kept_structure_stays_bound_after_commands(tmp_path, monkeypatch, capsys):
    """The three commands share the one structure that ``cli._load`` keeps,
    and none of its fields holds a binding after ``sew``."""
    from sewcells import cli

    (struct,) = _assert_no_field_stays_bound_after_commands(tmp_path, monkeypatch)
    assert cli._kept[1] is struct
    assert all(field._memo == () for field in (struct.metric, struct.phi, struct.xi, struct.eta))


def test_sew_induced_stage_walks_each_component_once_per_chunk(tmp_path, monkeypatch, capsys, program_runs):
    """The induced stage of ``sew`` runs each sewn field's program once per
    chunk of batches of the sewn samples, at order 1 only, for the axioms and
    nabla phi.  On the 7-dim sewn chart 100 points make 3 batches, and one
    chunk."""
    from sewcells import cli
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.manifold_io import save_manifold

    path = tmp_path / "halfspace.json"
    save_manifold(halfspace_kenmotsu_cell(), path)
    sewn = _captured(monkeypatch, cli, "sew")
    induced = Counter()
    build_product = cli.build_product

    def product(cells):  # the induced stage has ended
        induced.update(program_runs)
        return build_product(cells)

    monkeypatch.setattr(cli, "build_product", product)
    argv = ["sew", str(path), "--copies", "3", "--out", str(tmp_path / "sewn.json"), "--points", "100"]
    program_runs.clear()
    assert cli.main(argv) == cli.EXIT_PASS
    (struct,) = sewn
    samples = sample_points(struct.chart, 100, 7)
    fields = (struct.metric, struct.phi, struct.xi)
    stacks = set(_chunk_stacks(samples, fields))
    assert len(stacks) == 1 and -(-100 // batch_size(7)) == 3
    for field in fields:
        runs = {key: count for key, count in induced.items() if key[0] == id(field._plan.program)}
        assert {stack for _, stack, _ in runs} == stacks
        assert set(runs.values()) == {1} and {order for _, _, order in runs} == {1}


def test_a_jet_that_leaves_its_domain_where_its_value_does_not_stops_the_axioms(model_cell):
    """The axioms take order-1 jets, so a component whose value is defined
    at a sample and whose derivative is not stops the axiom sweep there: the
    derivative of x^-2 overflows at x = 1e-154, where x^-2 is 1e308."""
    entries = [[to_source(model_cell.metric.component((i, j))) for j in range(3)] for i in range(3)]
    entries[0][0] = "1 + 0*x^-2"
    metric = TensorField.build(model_cell.chart, 0, 2, entries)
    cell = ContactStructure("jet_overflow", model_cell.chart, metric, model_cell.phi, model_cell.xi, model_cell.eta)
    x = model_cell.chart.index_of("x")
    coords = [0.3, 0.3, 0.3]
    coords[x] = 1e-154
    samples = Samples(np.array([[0.1, 0.2, 0.3], coords]), np.array([0, 1]))
    assert np.isfinite(metric.evaluate(np.array(coords))).all()
    with pytest.raises(SampleEvaluationError, match="overflow in power") as err:
        validate_structure(cell, samples, 1e-9)
    assert (err.value.coords, err.value.draw) == (tuple(coords), 1)


class TestStacks:
    def test_field_over_a_stack_matches_its_rows(self, catalog_cells):
        for cell in (*catalog_cells, sew([catalog_cells[-1]] * 3)):
            points = sample_points(cell.chart, 6, 4).coords
            for field in (cell.metric, cell.phi, cell.xi, cell.eta):
                stacked = (field.evaluate(points),) + field.evaluate_with_jets(points)
                rows = [(field.evaluate(p),) + field.evaluate_with_jets(p) for p in points]
                for got, expected in zip(stacked, zip(*rows)):
                    assert np.array_equal(got, np.array(expected))
                assert all(np.array_equal(a, b) for a, b in zip(field.evaluate_with_grads(points), stacked[1:]))

    def test_constant_components_fold_once(self, model_cell):
        # the model metric has constant entries; their derivatives are exact zeros,
        # and their Hessians have no entry: (x, x) and (y, y) depend on t alone
        metric = model_cell.metric
        vals, grads, hess = metric.evaluate_with_jets(np.array([0.3, -0.2, 0.5]))
        assert vals[0, 0] == 1.0 and not grads[0, 0].any()
        n = 3
        assert list(metric._plan.hess_slots) == [((1 * n + 1) * n + 0) * n + 0, ((2 * n + 2) * n + 0) * n + 0]
        assert hess.shape == (2,) and hess.all()
        assert model_cell.metric.evaluate(np.zeros((0, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("dim", [1, 3, 5, 7, 13, 18, 40])
    def test_batch_stays_within_budget(self, dim):
        size = batch_size(dim)
        assert size >= 1
        assert size == 1 or size * 8 * dim**3 <= BATCH_BYTES

    @pytest.mark.parametrize("dim", [1, 3, 5, 6, 7, 9, 12, 13, 18, 40])
    def test_curvature_batch_stays_within_budget(self, dim):
        # at a full batch of the sweep that folds its Hessians, riemann holds a few
        # arrays of the budget's width per sample and never one of size n^4 (156
        # budgets at n = 40): on a diagonal metric whose components read two
        # coordinates, and on one whose components read every coordinate, which
        # has n^4 Hessian entries (up to n = 18, where the fold holds 1.7 MB a sample)
        names = tuple(f"x{i}" for i in range(dim))
        diagonal = [["0"] * dim for _ in range(dim)]
        for i in range(dim):
            diagonal[i][i] = f"exp(0.1*{names[i]}*{names[(i + 1) % dim]})"
        everywhere = f"exp(0.01*({'+'.join(names)}))"
        full = [[f"{2 if i == j else 0.1}*{everywhere}" for j in range(dim)] for i in range(dim)]
        rng = np.random.default_rng(dim)
        for grid in (diagonal, full) if dim <= 18 else (diagonal,):
            metric = TensorField.build(Chart(names), 0, 2, grid)
            size = batch_size(dim, (metric,))
            width = max(dim**3, 2 * len(metric._plan.hess_slots))
            assert size == 1 or size * 8 * width <= BATCH_BYTES
            points, v = rng.uniform(-1.0, 1.0, (2, size, dim))
            riemann(metric, points[:1], v[:1])  # the field plan is built once, outside the peak
            tracemalloc.start()
            try:
                riemann(metric, points, v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 20 * max(BATCH_BYTES, 8 * width)

    def test_batches_name_the_first_failing_sample(self):
        dim = 13
        size = batch_size(dim)
        coords = np.zeros((3 * size, dim))
        coords[:, 0] = np.arange(3 * size)
        samples = Samples(coords, np.arange(3 * size))
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
        assert err.value.draw == size + 2 and err.value.coords == (float(size + 2),) + (0.0,) * (dim - 1)
        # two whole batches, then the failing batch again row by row up to the bad row
        assert seen == [size, size] + [1] * 3


def test_a_plan_walks_each_distinct_tree_once(monkeypatch):
    """A tree at several positions of a grid is walked for its columns once;
    each position still becomes a root of the program, or a constant."""
    chart = Chart(("x", "y"))
    tree, constant = TensorField.build(chart, 0, 1, ["exp(x)*y", "2^3"]).components
    field = TensorField(chart, 0, 2, ((tree, constant), (tree, tree)))
    walked = []
    original = charts.free_variables
    monkeypatch.setattr(charts, "free_variables", lambda node: walked.append(node) or original(node))
    plan = charts._FieldPlan.build(field)
    assert walked == [tree, constant]
    np.testing.assert_array_equal(plan.positions, [0, 2, 3])
    np.testing.assert_array_equal(plan.constant, [0.0, 8.0, 0.0, 0.0])
    assert plan.program.roots == 3 and len(plan.program) == 4  # x, exp(x), y and the product
    np.testing.assert_array_equal(field.evaluate(np.array([0.0, 2.0])), [[2.0, 8.0], [2.0, 2.0]])


class TestStarLayout:
    """A structure's layout is proved from the structurally non-zero entries
    of its field plans (``TensorField.nonzero_entries``); a chart that does
    not split into its adapted coordinate and two blocks of one size at
    least is one set, the whole chart."""

    def test_nonzero_entries_are_the_plan_entries_that_are_not_the_literal_zero(self):
        chart = Chart(("x", "y"))
        field = TensorField.build(chart, 0, 2, [["0*x", "-0"], ["exp(400)*exp(400)*0", "2 - 2"]])
        values, grads = field.nonzero_entries
        # 0*x reads x, so it is not the literal zero; the NaN constant is not zero either
        assert values.tolist() == [[0, 0], [1, 0]] and grads.tolist() == [[0, 0, 0]]
        assert TensorField.build(chart, 1, 0, ["0", "0"]).nonzero_entries[0].shape == (0, 1)

    @staticmethod
    def sewn_doc(copies: int = 3):
        from sewcells.catalog import model_cosymplectic_cell
        from sewcells.manifold_io import structure_to_dict

        return structure_to_dict(sew([model_cosymplectic_cell(1.0)] * copies))

    @staticmethod
    def layout_of(doc):
        from sewcells.manifold_io import structure_from_dict

        layout = structure_from_dict(doc).layout
        return layout.sets.tolist() if layout.hub else None

    def test_the_sewn_model_chart_splits_into_s_and_its_blocks(self):
        assert self.layout_of(self.sewn_doc()) == [[0, 1, 2], [0, 3, 4], [0, 5, 6]]

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc["metric"][0].__setitem__(1, "0.1") or doc["metric"][1].__setitem__(0, "0.1"),
                     id="g couples s to a block"),
        pytest.param(lambda doc: doc["metric"][0].__setitem__(0, "1 + 0.01*x1^2"), id="g_ss reads a block"),
        pytest.param(lambda doc: doc["phi"][0].__setitem__(1, "0.1"), id="phi's s row"),
        pytest.param(lambda doc: doc["phi"][1].__setitem__(0, "0.1*y1"), id="phi's s column"),
        pytest.param(lambda doc: doc["eta"].__setitem__(0, f"{doc['eta'][0]} + 0*s"), id="eta reads s"),
        pytest.param(lambda doc: doc["eta"].__setitem__(1, "0.1"), id="eta off s"),
    ])
    def test_a_chart_that_fails_a_condition_is_one_set(self, edit):
        doc = self.sewn_doc()
        edit(doc)
        assert self.layout_of(doc) is None

    def test_coupled_blocks_are_one_block(self):
        doc = self.sewn_doc(4)
        doc["phi"][2][4] = "0.01*x1"  # phi^y1_y2 couples blocks 1 and 2
        doc["phi"][6][8] = "0.01*x3"  # phi^y3_y4 couples blocks 3 and 4
        assert self.layout_of(doc) == [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]]
        doc = self.sewn_doc()
        doc["phi"][2][4] = "0.01*x1"  # blocks of 4 and 2 coordinates are unequal: no split
        assert self.layout_of(doc) is None
        doc = self.sewn_doc()
        doc["xi"][1] = "0.1*x2*x3"  # xi^x1 reads blocks 2 and 3: one block, and so no split
        assert self.layout_of(doc) is None

    def test_small_charts_are_one_set_without_a_proof(self, catalog_cells, monkeypatch):
        """The cells and their sewn k = 2 charts (5 coordinates)."""
        from sewcells.manifold_io import structure_from_dict, structure_to_dict

        docs = [structure_to_dict(sew([cell] * 2)) for cell in catalog_cells]
        monkeypatch.setattr(TensorField, "nonzero_entries", property(lambda field: pytest.fail("proved")))
        for cell in catalog_cells:
            assert not cell.layout.hub and cell.layout.sets.tolist() == [[0, 1, 2]]
        for doc in docs:
            layout = structure_from_dict(doc).layout
            assert not layout.hub and layout.sets.tolist() == [[0, 1, 2, 3, 4]]
