"""Closed-form scalar expressions over chart coordinates.

Every tensor component in this package is an immutable expression tree over
the coordinates of a chart.  The grammar is plain infix:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right-associative
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

so ``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
Exponents must be constant (no variables); this keeps every expression
single-valued and avoids branch cuts.  The parser canonicalises two things:
a unary minus applied to a literal folds into the literal, and constant
exponent subtrees fold to a single number.  With that, ``parse(to_source(e))``
reproduces ``e`` node for node.

Evaluation is pure.  ``evaluate`` returns the value; ``evaluate_jet2``
propagates order-2 jets and returns the value together with the exact
gradient and Hessian (no finite differencing).  Both take one point of shape
(n,) or a stack of P points of shape (P, n).  At a point the value is a float,
the gradient (n,) and the Hessian (n, n); at a stack each of them gains a
leading P axis, and one call evaluates the whole stack with numpy.

Leaving the real domain raises ``EvaluationDomainError``: log or sqrt of a
non-positive argument, division by zero, zero to a negative power, a
non-integer power of a non-positive base, and overflow in exp, sinh, cosh or a
power.  A stack raises exactly when one of its rows would.  Arithmetic that
overflows (a product reaching inf, then ``inf * 0``) is not a domain error: it
stays silent and yields inf or NaN, which every residual check then fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text; carries the offending position."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} at position {position}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnknownIdentifierError(ExpressionError):
    """Identifier that is neither a chart coordinate nor a function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r} at position {position}")
        self.name = name
        self.position = position


class EvaluationDomainError(ExpressionError):
    """The expression left its real domain at the evaluation point."""


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ExpressionError(f"non-finite constant {self.value!r}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExpressionNode"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExpressionNode"
    right: "ExpressionNode"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/", "^"):
            raise ExpressionError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExpressionNode"

    def __post_init__(self) -> None:
        if self.func not in FUNCTIONS:
            raise ExpressionError(f"unknown function {self.func!r}")


ExpressionNode = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, coords: tuple[str, ...]):
        self.src = src
        self.coords = coords
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, at = self.peek()
        if kind == "op" and text == op:
            self.advance()
            return
        raise ExpressionSyntaxError(
            f"unexpected {'end of input' if kind == 'end' else text!r}", at, expected=repr(op)
        )

    def parse(self) -> ExpressionNode:
        node = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {text!r}", at, expected="end of input")
        return node

    def expr(self) -> ExpressionNode:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("+", "-"):
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> ExpressionNode:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("*", "/"):
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> ExpressionNode:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand = self.factor()
            if isinstance(operand, Num):
                return Num(-operand.value)
            return Neg(operand)
        return self.power()

    def power(self) -> ExpressionNode:
        base = self.atom()
        kind, text, at = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.factor()
            if free_variables(exponent):
                raise ExpressionSyntaxError("exponent must be a constant", at)
            try:
                folded = evaluate(exponent, np.empty(0), {})
            except EvaluationDomainError as exc:
                raise ExpressionSyntaxError(f"invalid constant exponent ({exc})", at) from exc
            return BinOp("^", base, Num(folded))
        return base

    def atom(self) -> ExpressionNode:
        kind, text, at = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, at)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.coords:
                return Var(text)
            raise UnknownIdentifierError(text, at)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = "end of input" if kind == "end" else repr(text)
        raise ExpressionSyntaxError(f"unexpected {shown}", at, expected="a value")


def parse_expression(src: str, coords) -> ExpressionNode:
    """Parse ``src`` over the given coordinate names into an expression tree."""
    if not src or not src.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(src, tuple(coords)).parse()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _level(node: ExpressionNode) -> int:
    if isinstance(node, Num):
        return _LEVEL_ATOM if node.value >= 0 else _LEVEL_NEG
    if isinstance(node, (Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}[node.op]


def _wrap(node: ExpressionNode, need_parens: bool) -> str:
    text = to_source(node)
    return f"({text})" if need_parens else text


def to_source(node: ExpressionNode) -> str:
    """Serialize to the same infix grammar accepted by :func:`parse_expression`."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _level(node.operand) < _LEVEL_NEG)
    if node.op in ("+", "-"):
        left = _wrap(node.left, _level(node.left) < _LEVEL_ADD)
        right = _wrap(node.right, _level(node.right) <= _LEVEL_ADD)
        return f"{left} {node.op} {right}"
    if node.op in ("*", "/"):
        left = _wrap(node.left, _level(node.left) < _LEVEL_MUL)
        right = _wrap(node.right, _level(node.right) <= _LEVEL_MUL)
        return f"{left}{node.op}{right}"
    # '^': the base slot is atom-level, the exponent slot is factor-level
    left = _wrap(node.left, _level(node.left) < _LEVEL_ATOM)
    right = _wrap(node.right, _level(node.right) < _LEVEL_NEG)
    return f"{left}^{right}"


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------

def free_variables(node: ExpressionNode) -> set[str]:
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return free_variables(node.operand)
    if isinstance(node, Call):
        return free_variables(node.arg)
    return free_variables(node.left) | free_variables(node.right)


def rename_variables(node: ExpressionNode, mapping: Mapping[str, str]) -> ExpressionNode:
    """Rename variables wholesale; names absent from ``mapping`` pass through."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return Var(mapping.get(node.name, node.name))
    if isinstance(node, Neg):
        return Neg(rename_variables(node.operand, mapping))
    if isinstance(node, Call):
        return Call(node.func, rename_variables(node.arg, mapping))
    return BinOp(node.op, rename_variables(node.left, mapping), rename_variables(node.right, mapping))




# ---------------------------------------------------------------------------
# Value evaluation
# ---------------------------------------------------------------------------
#
# One recursion serves a single point and a stack of points.  A single point
# goes down as a list of Python floats, so its values are floats; a stack goes
# down transposed, one (P,) column per coordinate, so its values are arrays.
# A constant subtree is a float in both.  Both take their elementary functions
# from the same numpy ufuncs, so a stack gives bit for bit what its rows give
# one at a time.  Every domain check asks whether any row violates it, so a
# stack raises exactly when one of its rows would.

_NUMPY = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
          "sinh": np.sinh, "cosh": np.cosh, "sqrt": np.sqrt}
# math raises OverflowError where numpy would only warn, so a single value is
# checked with math first
_OVERFLOWING = {"exp": math.exp, "sinh": math.sinh, "cosh": math.cosh}
_POSITIVE_ARGUMENT = ("log", "sqrt")


def _anywhere(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _first(values, mask) -> float:
    """The first offending value, for error messages."""
    return float(values[mask][0]) if isinstance(values, np.ndarray) else values


def _raise_on_overflow(out: np.ndarray, arg: np.ndarray, what: str) -> None:
    """An infinite result of a finite argument is an overflow, as ``math`` reports it."""
    infinite = np.isinf(out)
    if infinite.any() and (infinite & np.isfinite(arg)).any():
        raise EvaluationDomainError(f"overflow in {what}")


def _pow_value(base, exponent: float):
    if exponent == int(exponent):
        if exponent < 0 and _anywhere(base == 0.0):
            raise EvaluationDomainError("zero raised to a negative power")
    else:
        bad = base <= 0.0
        if _anywhere(bad):
            raise EvaluationDomainError(f"non-integer power of non-positive base {_first(base, bad)!r}")
    if isinstance(base, np.ndarray):
        out = np.power(base, exponent)
        _raise_on_overflow(out, base, "power")
        return out
    try:
        math.pow(base, exponent)
    except OverflowError as exc:
        raise EvaluationDomainError("overflow in power") from exc
    return float(np.power(base, exponent))


def _call_value(func: str, v):
    if func in _POSITIVE_ARGUMENT:
        bad = v <= 0.0
        if _anywhere(bad):
            raise EvaluationDomainError(f"{func} of non-positive argument {_first(v, bad)!r}")
    if isinstance(v, np.ndarray):
        out = _NUMPY[func](v)
        if func in _OVERFLOWING:
            _raise_on_overflow(out, v, func)
        return out
    if func in _OVERFLOWING:
        try:
            _OVERFLOWING[func](v)
        except OverflowError as exc:
            raise EvaluationDomainError(f"overflow in {func}") from exc
    elif math.isinf(v) and func in ("sin", "cos"):
        return math.nan  # what numpy gives, without its warning
    return float(_NUMPY[func](v))


def _divide(left, right):
    divisor = right.value if isinstance(right, _Jet) else right
    if _anywhere(divisor == 0.0):
        raise EvaluationDomainError("division by zero")
    return left / right


def _exponent(node: ExpressionNode) -> float:
    """The value of a constant exponent subtree."""
    if isinstance(node, Num):
        return node.value
    if free_variables(node):
        raise ExpressionError("variable exponents are not supported")
    return _value(node, [], {})


def _coordinate(node: Var, point, index: Mapping[str, int]):
    try:
        return index[node.name], point[index[node.name]]
    except KeyError as exc:
        raise ExpressionError(f"unbound variable {node.name!r}") from exc


def evaluate(node: ExpressionNode, point, index: Mapping[str, int]):
    """Evaluate at ``point`` (coordinates resolved through ``index``).

    A point of shape (n,) gives a float; a stack of shape (P, n) gives an
    array of shape (P,).
    """
    point = np.asarray(point, dtype=float)
    if point.ndim != 2:
        return _value(node, point.tolist(), index)
    out = np.empty(point.shape[0])
    with np.errstate(all="ignore"):
        out[...] = _value(node, point.T, index)
    return out


def _value(node: ExpressionNode, point, index: Mapping[str, int]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return _coordinate(node, point, index)[1]
    if isinstance(node, Neg):
        return -_value(node.operand, point, index)
    if isinstance(node, Call):
        return _call_value(node.func, _value(node.arg, point, index))
    left = _value(node.left, point, index)
    if node.op == "^":
        return _pow_value(left, _exponent(node.right))
    right = _value(node.right, point, index)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return _divide(left, right)


# ---------------------------------------------------------------------------
# Order-2 jets
# ---------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value, gradient and Hessian of a scalar at a point or a stack of points.

    At a point of shape (n,): a float, (n,) and (n, n).  At a stack of shape
    (P, n) each gains a leading P axis.  The Hessian is exactly symmetric.
    """

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray


class _Jet:
    """A jet under propagation; constants stay plain floats beside it.

    At a point: a float, (n,) and (n, n).  At a stack the sample axis comes
    last - (P,), (n, P) and (n, n, P) - so a value broadcasts against its
    derivatives and one rule serves both.  Every rule assembles the Hessian
    from elementwise-symmetric terms, so ``hess == hess.T`` bit for bit.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def variable(cls, i: int, value, n: int, lead: tuple[int, ...]) -> "_Jet":
        grad = np.zeros((n,) + lead)
        grad[i] = 1.0
        return cls(value, grad, np.zeros((n, n) + lead))

    def __add__(self, other) -> "_Jet":
        if isinstance(other, _Jet):
            return _Jet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return _Jet(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other) -> "_Jet":
        if isinstance(other, _Jet):
            return _Jet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        return _Jet(self.value - other, self.grad, self.hess)

    def __rsub__(self, other) -> "_Jet":
        return _Jet(other - self.value, -self.grad, -self.hess)

    def __neg__(self) -> "_Jet":
        return _Jet(-self.value, -self.grad, -self.hess)

    def __mul__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return _Jet(self.value * other, self.grad * other, self.hess * other)
        value = self.value * other.value
        grad = self.grad * other.value + other.grad * self.value
        hess = (
            self.hess * other.value
            + other.hess * self.value
            + _outer(self.grad, other.grad)
            + _outer(other.grad, self.grad)
        )
        return _Jet(value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Jet":
        if isinstance(other, _Jet):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other) -> "_Jet":
        return self._reciprocal() * other

    def _reciprocal(self) -> "_Jet":
        inv = 1.0 / self.value
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def _chain(self, f, fp, fpp) -> "_Jet":
        """Compose with a scalar function given f, f', f'' at ``self.value``."""
        grad = fp * self.grad
        hess = fp * self.hess + fpp * _outer(self.grad, self.grad)
        return _Jet(f, grad, hess)

    def power(self, exponent: float):
        if exponent == 0.0:
            return 1.0
        if exponent == 1.0:
            return self
        f = _pow_value(self.value, exponent)
        fp = exponent * _pow_value(self.value, exponent - 1.0)
        if exponent == 2.0:
            fpp = 2.0
        else:
            fpp = exponent * (exponent - 1.0) * _pow_value(self.value, exponent - 2.0)
        return self._chain(f, fp, fpp)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, None] * b[None]


def _jet_exp(j: _Jet) -> _Jet:
    e = _call_value("exp", j.value)
    return j._chain(e, e, e)


def _jet_log(j: _Jet) -> _Jet:
    f = _call_value("log", j.value)
    return j._chain(f, 1.0 / j.value, -1.0 / (j.value * j.value))


def _jet_sin(j: _Jet) -> _Jet:
    s = _call_value("sin", j.value)
    return j._chain(s, _call_value("cos", j.value), -s)


def _jet_cos(j: _Jet) -> _Jet:
    c = _call_value("cos", j.value)
    return j._chain(c, -_call_value("sin", j.value), -c)


def _jet_sinh(j: _Jet) -> _Jet:
    s = _call_value("sinh", j.value)
    return j._chain(s, _call_value("cosh", j.value), s)


def _jet_cosh(j: _Jet) -> _Jet:
    c = _call_value("cosh", j.value)
    return j._chain(c, _call_value("sinh", j.value), c)


def _jet_sqrt(j: _Jet) -> _Jet:
    root = _call_value("sqrt", j.value)
    fp = 0.5 / root
    return j._chain(root, fp, -0.5 * fp / j.value)


_JET_CALLS: dict[str, Callable[[_Jet], _Jet]] = {
    "exp": _jet_exp,
    "log": _jet_log,
    "sin": _jet_sin,
    "cos": _jet_cos,
    "sinh": _jet_sinh,
    "cosh": _jet_cosh,
    "sqrt": _jet_sqrt,
}


def evaluate_jet2(node: ExpressionNode, point, index: Mapping[str, int]) -> Jet2:
    """Value, gradient and Hessian at a point (n,) or a stack (P, n), by jet propagation."""
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    lead = point.shape[:-1]
    stacked = point.ndim == 2
    with np.errstate(all="ignore"):
        jet = _jet(node, point.T if stacked else point.tolist(), index, n, lead)
    if not isinstance(jet, _Jet):
        return Jet2(np.full(lead, jet) if stacked else jet, np.zeros(lead + (n,)), np.zeros(lead + (n, n)))
    if stacked:
        return Jet2(np.array(jet.value), jet.grad.T, jet.hess.transpose(2, 0, 1))
    return Jet2(jet.value, jet.grad, jet.hess)


def _jet(node: ExpressionNode, point, index: Mapping[str, int], n: int, lead: tuple[int, ...]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return _Jet.variable(*_coordinate(node, point, index), n, lead)
    if isinstance(node, Neg):
        return -_jet(node.operand, point, index, n, lead)
    if isinstance(node, Call):
        arg = _jet(node.arg, point, index, n, lead)
        return _JET_CALLS[node.func](arg) if isinstance(arg, _Jet) else _call_value(node.func, arg)
    left = _jet(node.left, point, index, n, lead)
    if node.op == "^":
        exponent = _exponent(node.right)
        return left.power(exponent) if isinstance(left, _Jet) else _pow_value(left, exponent)
    right = _jet(node.right, point, index, n, lead)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return _divide(left, right)
