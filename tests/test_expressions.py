import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fuzz_cases, gradient_hessian_fd, random_expression, value_gradient_fd
from sewcells.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    EvaluationDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    Neg,
    Num,
    Program,
    UnknownIdentifierError,
    Var,
    evaluate,
    evaluate_jet2,
    free_variables,
    parse_expression,
    rename_variables,
    to_source,
)

TXY = ("t", "x", "y")
XYZ = ("x", "y", "z")
IDX_TXY = {"t": 0, "x": 1, "y": 2}
IDX_XYZ = {"x": 0, "y": 1, "z": 2}


class TestParsing:
    def test_function_call_tree(self):
        tree = parse_expression("exp(2*t)", TXY)
        assert tree == Call("exp", BinOp("*", Num(2.0), Var("t")))

    def test_truncated_input_reports_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("t + ", TXY)
        assert err.value.position == 4

    def test_reeb_component_expression(self):
        tree = parse_expression("x - y*exp(-2*z)", XYZ)
        expected = BinOp(
            "-",
            Var("x"),
            BinOp("*", Var("y"), Call("exp", BinOp("*", Num(-2.0), Var("z")))),
        )
        assert tree == expected

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("t + q", TXY)
        assert err.value.name == "q"
        assert err.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("tan(x)", TXY)

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ", TXY)

    def test_precedence_and_associativity(self):
        # ^ binds tighter than unary minus, which binds tighter than *
        assert evaluate(parse_expression("-2^2", TXY), np.zeros(3), IDX_TXY) == -4.0
        assert evaluate(parse_expression("2^3^2", TXY), np.zeros(3), IDX_TXY) == 512.0
        assert evaluate(parse_expression("5-3-1", TXY), np.zeros(3), IDX_TXY) == 1.0
        assert evaluate(parse_expression("6/3/2", TXY), np.zeros(3), IDX_TXY) == 1.0

    def test_exponent_must_be_constant(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x^t", TXY)

    def test_constant_exponent_folds(self):
        assert parse_expression("x^(1+1)", TXY) == parse_expression("x^2", TXY)

    def test_unary_minus_folds_into_literal(self):
        assert parse_expression("-2", TXY) == Num(-2.0)
        assert parse_expression("-x", TXY) == Neg(Var("x"))


class TestJets:
    def test_exponential_derivatives(self):
        jet = evaluate_jet2(parse_expression("exp(2*t)", TXY), np.zeros(3), IDX_TXY)
        assert jet.value == pytest.approx(1.0, abs=0)
        assert jet.grad[0] == pytest.approx(2.0, abs=0)
        assert jet.hess[0, 0] == pytest.approx(4.0, abs=0)

    def test_bilinear_case(self):
        jet = evaluate_jet2(parse_expression("x*y", ("x", "y")), np.array([3.0, 5.0]), {"x": 0, "y": 1})
        assert jet.value == 15.0
        assert np.array_equal(jet.grad, [5.0, 3.0])
        assert jet.hess[0, 1] == 1.0 and jet.hess[1, 0] == 1.0

    def test_exact_power_of_two(self):
        jet = evaluate_jet2(parse_expression("exp(-4*z)", XYZ), np.array([0.0, 0.0, math.log(2.0)]), IDX_XYZ)
        assert jet.value == pytest.approx(0.0625, rel=1e-14)

    def test_hessian_exactly_symmetric(self):
        src = "sin(x*y)/cosh(x) + (y - x*exp(-2*z))^3 - sqrt(1 + x^2)"
        jet = evaluate_jet2(parse_expression(src, XYZ), np.array([0.7, -0.4, 0.9]), IDX_XYZ)
        assert np.array_equal(jet.hess, jet.hess.T)

    def test_constant_expression_has_zero_jet(self):
        jet = evaluate_jet2(parse_expression("3.5 + 2^2", TXY), np.ones(3), IDX_TXY)
        assert jet.value == 7.5
        assert not jet.grad.any() and not jet.hess.any()

    @pytest.mark.parametrize(
        "src, point",
        [("log(x)", [-1.0, 0.0, 0.0]), ("sqrt(x)", [0.0, 0.0, 0.0]), ("1/x", [0.0, 0.0, 0.0]), ("x^-1", [0.0, 0.0, 0.0])],
    )
    def test_domain_errors(self, src, point):
        expr = parse_expression(src, XYZ)
        with pytest.raises(EvaluationDomainError):
            evaluate(expr, np.asarray(point), IDX_XYZ)
        with pytest.raises(EvaluationDomainError):
            evaluate_jet2(expr, np.asarray(point), IDX_XYZ)

    def test_negative_base_integer_exponent(self):
        jet = evaluate_jet2(parse_expression("x^3", XYZ), np.array([-2.0, 0.0, 0.0]), IDX_XYZ)
        assert jet.value == -8.0
        assert jet.grad[0] == 12.0


def _power_forms(e: float):
    return lambda u: (np.power(u, e), e * np.power(u, e - 1.0),
                      np.full_like(u, 2.0) if e == 2.0 else e * (e - 1.0) * np.power(u, e - 2.0))


class TestDerivativeTable:
    """The jet of each function and of constant powers of a coordinate u
    equals the closed forms (f, f', f'') in numpy bit for bit, at order 2,
    and order 1 gives the same value and gradient.  A finite-difference
    bound cannot see a reordered expression, which would change the report
    bytes."""

    U = np.array([0.3, 0.7, 1.6, 2.9])  # no closed form is zero here
    POWERS = (2.0, 0.5, -1.0, 3.0)
    CLOSED_FORMS = {
        "exp(u)": lambda u: (np.exp(u), np.exp(u), np.exp(u)),
        "log(u)": lambda u: (np.log(u), 1.0 / u, -1.0 / (u * u)),
        "sin(u)": lambda u: (np.sin(u), np.cos(u), -np.sin(u)),
        "cos(u)": lambda u: (np.cos(u), -np.sin(u), -np.cos(u)),
        "sinh(u)": lambda u: (np.sinh(u), np.cosh(u), np.sinh(u)),
        "cosh(u)": lambda u: (np.cosh(u), np.sinh(u), np.cosh(u)),
        "sqrt(u)": lambda u: (np.sqrt(u), 0.5 / np.sqrt(u), -0.5 * (0.5 / np.sqrt(u)) / u),
        **{f"u^{e:g}": _power_forms(e) for e in POWERS},
    }

    @pytest.mark.parametrize("src", [f"{func}(u)" for func in FUNCTIONS] + [f"u^{e:g}" for e in POWERS])
    def test_jets_are_the_closed_forms(self, src):
        def bits(array):
            return np.ascontiguousarray(array, dtype=float).tobytes()

        expr = parse_expression(src, ("u",))
        stack = self.U[:, None]
        second, first = (evaluate_jet2(expr, stack, {"u": 0}, order=order) for order in (2, 1))
        value, grad, hess = self.CLOSED_FORMS[src](self.U)
        assert bits(second.value) == bits(value)
        assert bits(second.grad[:, 0]) == bits(grad)
        assert bits(second.hess[:, 0, 0]) == bits(hess)
        assert bits(first.value) == bits(value) and bits(first.grad) == bits(second.grad) and first.hess is None


class TestSubstitution:
    """``rename_variables`` is the substitution ``t_i := s`` that sewing uses."""

    def test_single_variable_rename(self):
        expr = parse_expression("exp(2*t1)", ("t1",))
        assert rename_variables(expr, {"t1": "s"}) == parse_expression("exp(2*s)", ("s",))

    def test_absent_variable_is_identity(self):
        expr = parse_expression("x", XYZ)
        assert rename_variables(expr, {"t": "s"}) == expr

    def test_diagonal_identification(self):
        expr = parse_expression("exp(-2*z1)*y1+z2", ("z1", "y1", "z2"))
        renamed = rename_variables(expr, {"z1": "s", "z2": "s"})
        assert renamed == parse_expression("exp(-2*s)*y1+s", ("s", "y1"))

    def test_commutes_with_evaluation(self):
        rng = np.random.default_rng(11)
        coords = ("u", "v", "w")
        index = {name: i for i, name in enumerate(coords)}
        checked = 0
        while checked < 200:
            expr = random_expression(rng, coords, 3)
            point = rng.uniform(-1.2, 1.2, size=3)
            target, source = (coords[int(i)] for i in rng.choice(3, size=2, replace=False))
            try:
                identified = point.copy()
                identified[index[target]] = point[index[source]]
                direct = evaluate(expr, identified, index)
                via_rename = evaluate(rename_variables(expr, {target: source}), point, index)
            except EvaluationDomainError:
                continue
            assert via_rename == direct
            checked += 1


class TestSerialization:
    def test_round_trip_examples(self):
        for src in ("x - y*exp(-2*z)", "1 + (x - y*exp(-2*z))^2", "-(x*y)/z", "x^-2", "2*-3"):
            tree = parse_expression(src, XYZ)
            assert parse_expression(to_source(tree), XYZ) == tree

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(5)
        coords = ("u", "v", "w")
        for _ in range(500):
            tree = random_expression(rng, coords, 4)
            assert parse_expression(to_source(tree), coords) == tree

    def test_free_variables(self):
        tree = parse_expression("x - y*exp(-2*z)", XYZ)
        assert free_variables(tree) == {"x", "y", "z"}


class TestParseTotality:
    @given(st.text(max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_any_text_parses_or_raises_positioned_error(self, src):
        try:
            parse_expression(src, TXY)
        except ExpressionError:
            pass

    @given(st.binary(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_parse_or_raise(self, raw):
        try:
            parse_expression(raw.decode("latin-1"), TXY)
        except ExpressionError:
            pass


class TestFiniteDifferenceAgreement:
    def test_gradient_and_hessian_match_central_differences(self):
        coords = ("u", "v", "w")
        index = {name: i for i, name in enumerate(coords)}
        for expr, point in fuzz_cases(250, seed=101, coords=coords):
            jet = evaluate_jet2(expr, point, index)
            fd_grad = value_gradient_fd(expr, point, index)
            scale_g = max(1.0, float(np.max(np.abs(jet.grad))))
            assert float(np.max(np.abs(fd_grad - jet.grad))) <= 1e-6 * scale_g
            fd_hess = gradient_hessian_fd(expr, point, index)
            scale_h = max(1.0, float(np.max(np.abs(jet.hess))))
            assert float(np.max(np.abs(fd_hess - jet.hess))) <= 1e-5 * scale_h


class TestStacks:
    """A stack of points (P, n) evaluates as its rows do one at a time."""

    COORDS = ("u", "v", "w")
    INDEX = {"u": 0, "v": 1, "w": 2}

    @staticmethod
    def _rows(fn, expr, points, index):
        out = []
        for point in points:
            try:
                out.append(fn(expr, point, index))
            except EvaluationDomainError:
                out.append(None)
        return out

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_stack_matches_rows_and_raises_when_a_row_does(self, seed, count):
        rng = np.random.default_rng(seed)
        expr = random_expression(rng, self.COORDS, 4)
        points = rng.uniform(-1.5, 1.5, size=(count, 3))
        for fn in (evaluate_jet2, evaluate):
            rows = self._rows(fn, expr, points, self.INDEX)
            if any(row is None for row in rows):
                with pytest.raises(EvaluationDomainError):
                    fn(expr, points, self.INDEX)
                continue
            stacked = fn(expr, points, self.INDEX)
            pairs = (
                [(stacked.value, [r.value for r in rows]), (stacked.grad, [r.grad for r in rows]),
                 (stacked.hess, [r.hess for r in rows])]
                if fn is evaluate_jet2 else [(stacked, rows)]
            )
            for got, expected in pairs:
                expected = np.array(expected, dtype=float)
                assert got.shape == expected.shape
                np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0, equal_nan=True)

    @pytest.mark.parametrize("src", ["exp(1000*x)", "sinh(1000*x)", "cosh(1000*x)", "(10*x)^400"])
    def test_overflow_in_a_function_or_power_raises(self, src):
        expr = parse_expression(src, XYZ)
        points = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for fn in (evaluate, evaluate_jet2):
            fn(expr, points[0], IDX_XYZ)
            for bad in (points[1], points):
                with pytest.raises(EvaluationDomainError, match="overflow"):
                    fn(expr, bad, IDX_XYZ)

    def test_overflowing_product_stays_silent(self):
        expr = parse_expression("exp(700*x)*exp(700*x)", XYZ)
        points = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert evaluate(expr, points[1], IDX_XYZ) == math.inf
        assert list(evaluate(expr, points, IDX_XYZ) == math.inf) == [False, True]
        jet = evaluate_jet2(expr, points, IDX_XYZ)
        assert jet.value[1] == math.inf and jet.grad.shape == (2, 3) and jet.hess.shape == (2, 3, 3)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_order_one_matches_order_two(self, seed, count):
        """Values and gradients bit for bit, at a point and at a stack, and a
        domain error in one order is a domain error in the other."""
        rng = np.random.default_rng(seed)
        expr = random_expression(rng, self.COORDS, 4)
        points = rng.uniform(-1.5, 1.5, size=(count, 3))
        for point in (points[0], points):
            try:
                second = evaluate_jet2(expr, point, self.INDEX)
            except EvaluationDomainError:
                with pytest.raises(EvaluationDomainError):
                    evaluate_jet2(expr, point, self.INDEX, order=1)
                continue
            first = evaluate_jet2(expr, point, self.INDEX, order=1)
            assert first.hess is None and second.hess is not None
            for got, expected in ((first.value, second.value), (first.grad, second.grad)):
                assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_point_is_its_stack_of_one_where_a_derivative_overflows(self):
        """At x = 1e-200 the Hessian of log(x) is -1/x^2 = -inf; a point gives
        what its stack of one gives instead of a Python ZeroDivisionError."""
        expr = parse_expression("log(x)", XYZ)
        point = np.array([1e-200, 0.0, 0.0])
        jet, stacked = evaluate_jet2(expr, point, IDX_XYZ), evaluate_jet2(expr, point[None], IDX_XYZ)
        assert jet.hess[0, 0] == -math.inf
        for got, expected in ((jet.value, stacked.value), (jet.grad, stacked.grad), (jet.hess, stacked.hess)):
            assert np.asarray(got).tobytes() == expected[0].tobytes()

    def test_order_must_be_one_or_two(self):
        with pytest.raises(ValueError, match="order"):
            evaluate_jet2(parse_expression("x", XYZ), np.zeros(3), IDX_XYZ, order=3)

    def test_constant_expression_over_a_stack(self):
        jet = evaluate_jet2(parse_expression("3.5 + 2^2", TXY), np.ones((4, 3)), IDX_TXY)
        assert np.array_equal(jet.value, np.full(4, 7.5))
        assert jet.grad.shape == (4, 3) and not jet.grad.any() and not jet.hess.any()



class TestConstantSubtrees:
    """A constant subtree keeps every domain rule of the walk, at a point, at a
    stack and at every jet order."""

    POINTS = np.array([[0.5, 0.0, 0.0], [1.0, -2.0, 3.0]])

    @pytest.mark.parametrize(
        "src, match",
        [
            ("x + exp(1000)", "overflow in exp"),
            ("x*sinh(800)", "overflow in sinh"),
            ("x + cosh(800)", "overflow in cosh"),
            ("x + 10^400", "overflow in power"),
            ("x + log(0 - 1)", "log of non-positive argument -1.0"),
            ("x + sqrt(0 - 1)", "sqrt of non-positive argument -1.0"),
            ("x/(1 - 1)", "division by zero"),
            ("x + (1 - 1)^-1", "zero raised to a negative power"),
            ("x + (0 - 2)^0.5", "non-integer power of non-positive base -2.0"),
        ],
    )
    def test_leaving_the_domain_raises(self, src, match):
        expr = parse_expression(src, XYZ)
        for point in (self.POINTS[0], self.POINTS):
            with pytest.raises(EvaluationDomainError, match=match):
                evaluate(expr, point, IDX_XYZ)
            for order in (1, 2):
                with pytest.raises(EvaluationDomainError, match=match):
                    evaluate_jet2(expr, point, IDX_XYZ, order=order)

    def test_sine_of_an_infinite_constant_is_nan_without_a_warning(self):
        expr = parse_expression("x + sin(1e300*1e300)", XYZ)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(evaluate(expr, self.POINTS[0], IDX_XYZ))
            assert np.isnan(evaluate(expr, self.POINTS, IDX_XYZ)).all()

class TestProgram:
    """A program over several roots gives each root what the root gives alone,
    and raises what evaluating the roots one after another raises first."""

    COORDS = ("u", "v", "w")

    @staticmethod
    def _roots(rng, coords):
        """Roots that share subtrees: a few drawn subtrees, combined and
        repeated, with a constant and a root that is a subtree of another."""
        parts = [random_expression(rng, coords, 3) for _ in range(3)]
        roots = [BinOp(str(rng.choice(["+", "-", "*", "/"])), parts[int(rng.integers(3))], parts[int(rng.integers(3))])
                 for _ in range(4)]
        roots += [Call("exp", parts[0]), parts[1], roots[0], Num(float(rng.uniform(-2.0, 2.0)))]
        return [roots[i] for i in rng.permutation(len(roots))]

    def _groups(self, roots, own_columns):
        """(tree, group) pairs and groups: each root over the coordinates it
        reads, as a field plan groups them, or every root over all of them."""
        if not own_columns:
            return [(root, 0) for root in roots], [(range(3), {name: i for i, name in enumerate(self.COORDS)})]
        sets: dict = {}
        trees = []
        for root in roots:
            columns = tuple(sorted(self.COORDS.index(name) for name in free_variables(root)))
            trees.append((root, sets.setdefault(columns, len(sets))))
        return trees, [(columns, {self.COORDS[c]: j for j, c in enumerate(columns)}) for columns in sets]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_each_root_gives_what_it_gives_alone(self, seed, count, own_columns):
        rng = np.random.default_rng(seed)
        roots = self._roots(rng, self.COORDS)
        trees, groups = self._groups(roots, own_columns)
        program = Program(trees, groups)
        assert program.roots == len(roots)
        points = rng.uniform(-1.5, 1.5, size=(count, 3))
        for point in (points[0], points):
            for order in (0, 1, 2):
                alone, first_error = [], None
                for tree, group in trees:
                    columns, index = groups[group]
                    local = point[..., list(columns)]
                    try:
                        alone.append(evaluate(tree, local, index) if order == 0
                                     else evaluate_jet2(tree, local, index, order))
                    except EvaluationDomainError as exc:
                        first_error = str(exc)
                        break
                if first_error is not None:
                    with pytest.raises(EvaluationDomainError) as err:
                        evaluate(program, point) if order == 0 else evaluate_jet2(program, point, order=order)
                    assert str(err.value) == first_error
                    continue
                if order == 0:
                    values = evaluate(program, point)
                    for root, expected in enumerate(alone):
                        assert np.asarray(values[..., root]).tobytes() == np.asarray(expected).tobytes()
                    continue
                jet = evaluate_jet2(program, point, order=order)
                assert (jet.hess is None) == (order == 1)
                gradient = hessian = 0
                for root, expected in enumerate(alone):
                    m = len(groups[trees[root][1]][0])
                    assert np.asarray(jet.value[..., root]).tobytes() == np.asarray(expected.value).tobytes()
                    assert jet.grad[..., gradient:gradient + m].tobytes() == expected.grad.tobytes()
                    gradient += m
                    if order == 2:
                        entries = jet.hess[..., hessian:hessian + m * m]
                        assert entries.tobytes() == expected.hess.reshape(entries.shape).tobytes()
                        hessian += m * m
                assert gradient == jet.grad.shape[-1]

    def test_shared_subtrees_are_one_instruction_per_group(self):
        index = {"x": 0, "y": 1}
        a, b = parse_expression("exp(x)*sin(x)", ("x", "y")), parse_expression("exp(x)*sin(x) + y", ("x", "y"))
        one_group = Program([(a, 0), (b, 0), (a, 0)], [(range(2), index)])
        # x, exp, sin, the product, y and the sum
        assert len(one_group) == 6
        # a over {x} and b over {x, y}: the coordinate x differs, and so does all above it
        two_groups = Program([(a, 0), (b, 1)], [((0,), {"x": 0}), ((0, 1), index)])
        assert len(two_groups) == 4 + 6

    def test_a_constant_subtree_is_one_instruction_across_groups(self):
        a = parse_expression("x*exp(2)", ("x", "y"))
        b = parse_expression("y*exp(2)", ("x", "y"))
        program = Program([(a, 0), (b, 1)], [((0,), {"x": 0}), ((1,), {"y": 0})])
        assert len(program) == 5  # x, exp(2), x*exp(2), y, y*exp(2)

    def test_unbound_variable_raises_where_the_walk_reaches_it(self):
        # the domain error of the first root comes before the unbound name of the second
        first, second = parse_expression("log(x)", ("x", "y")), parse_expression("y", ("x", "y"))
        program = Program([(first, 0), (second, 0)], [(range(1), {"x": 0})])
        with pytest.raises(EvaluationDomainError, match="log of non-positive"):
            evaluate(program, np.array([-1.0]))
        with pytest.raises(ExpressionError, match="unbound variable 'y'"):
            evaluate(program, np.array([1.0]))


def test_verify_on_a_sewn_file_propagates_no_hessian(tmp_path, monkeypatch, capsys):
    """``verify`` reads no second derivative, so every jet it takes is of order 1."""
    from sewcells import charts, cli
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.manifold_io import save_manifold
    from sewcells.sewing import sew

    path = tmp_path / "sewn.json"
    save_manifold(sew([halfspace_kenmotsu_cell()] * 3), path)
    original = charts.evaluate_jet2
    runs = []

    def spy(program, point, index=None, order=2):
        jet = original(program, point, index, order)
        runs.append((type(program), jet.hess is not None))
        return jet

    monkeypatch.setattr(charts, "evaluate_jet2", spy)
    assert cli.main(["verify", str(path)]) == cli.EXIT_PASS
    # every jet is a field program's run, and none carries a Hessian
    assert runs and set(runs) == {(Program, False)}
