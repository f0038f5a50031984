import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fuzz_cases, gradient_hessian_fd, random_expression, value_gradient_fd
from sewcells.expressions import (
    BinOp,
    Call,
    EvaluationDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    Neg,
    Num,
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

    def test_constant_expression_over_a_stack(self):
        jet = evaluate_jet2(parse_expression("3.5 + 2^2", TXY), np.ones((4, 3)), IDX_TXY)
        assert np.array_equal(jet.value, np.full(4, 7.5))
        assert jet.grad.shape == (4, 3) and not jet.grad.any() and not jet.hess.any()
