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

Evaluation is pure and takes one walk for every order.  ``evaluate`` returns
the value (order 0); ``evaluate_jet2`` propagates forward-mode jets and
returns the value together with the exact gradient and, at order 2 (the
default), the exact Hessian (no finite differencing).  An order-1 jet carries
no Hessian at all, so a caller that reads none pays for none.  All three
orders share the value rules, and orders 1 and 2 the gradient rules, so they
give the same values and gradients bit for bit.  The walk runs on stacks
only: both functions take a stack of P points of shape (P, n) and evaluate it
with numpy in one call, and a point of shape (n,) is a stack of one.  At a
point the value is a float, the gradient (n,) and the Hessian (n, n); at a
stack each of them gains a leading P axis.

Leaving the real domain raises ``EvaluationDomainError``: log or sqrt of a
non-positive argument, division by zero, zero to a negative power, a
non-integer power of a non-positive base, and overflow in exp, sinh, cosh or a
power (for a jet, also in the powers its derivatives take), in constant
subtrees too.  A stack raises exactly when one of its rows would, and an
order-1 jet exactly when an order-2 one would.  Arithmetic that overflows (a
product reaching inf, then ``inf * 0``) is not a domain error: it stays
silent and yields inf or NaN, which every residual check then fails.
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
# Evaluation over stacks
# ---------------------------------------------------------------------------
#
# One walk, ``_jet``, serves orders 0, 1 and 2 over stacks only; a point is a
# stack of one.  The stack goes down transposed, one (P,) column per
# coordinate.  At order 0 a coordinate is its own column, so values are (P,)
# arrays; at orders 1 and 2 it is a jet whose value is that column.  A
# constant subtree stays a scalar, a 0-d value that goes through the same
# numpy ufuncs and domain checks.  Every rule is elementwise over the sample
# axis, so a stack gives bit for bit what its rows give one at a time, and
# every domain check asks whether any row violates it, so a stack raises
# exactly when one of its rows would.

_NUMPY = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
          "sinh": np.sinh, "cosh": np.cosh, "sqrt": np.sqrt}
_OVERFLOWING = ("exp", "sinh", "cosh")
_POSITIVE_ARGUMENT = ("log", "sqrt")


def _anywhere(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _first(values, mask) -> float:
    """The first offending value, for error messages."""
    return float(np.asarray(values)[mask][0])


def _raise_on_overflow(out, arg, what: str) -> None:
    """An infinite result of a finite argument is an overflow."""
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
    out = np.power(base, exponent)
    _raise_on_overflow(out, base, "power")
    return out


def _call_value(func: str, v):
    if func in _POSITIVE_ARGUMENT:
        bad = v <= 0.0
        if _anywhere(bad):
            raise EvaluationDomainError(f"{func} of non-positive argument {_first(v, bad)!r}")
    out = _NUMPY[func](v)
    if func in _OVERFLOWING:
        _raise_on_overflow(out, v, func)
    return out


def _divide(left, right):
    divisor = right.value if isinstance(right, _Jet1) else right
    if _anywhere(divisor == 0.0):
        raise EvaluationDomainError("division by zero")
    return left / right


def _exponent(node: ExpressionNode) -> float:
    """The value of a constant exponent subtree."""
    if isinstance(node, Num):
        return node.value
    if free_variables(node):
        raise ExpressionError("variable exponents are not supported")
    return float(_jet(node, None, {}, None))


def _coordinate(node: Var, index: Mapping[str, int]) -> int:
    try:
        return index[node.name]
    except KeyError as exc:
        raise ExpressionError(f"unbound variable {node.name!r}") from exc


def _column(i: int, columns: np.ndarray) -> np.ndarray:
    """A coordinate at order 0: its own column of the stack."""
    return columns[i]


def evaluate(node: ExpressionNode, point, index: Mapping[str, int]):
    """Evaluate at ``point`` (coordinates resolved through ``index``): the
    order-0 walk.

    A point of shape (n,) gives a float; a stack of shape (P, n) gives an
    array of shape (P,).
    """
    point = np.asarray(point, dtype=float)
    stack = point[None] if point.ndim == 1 else point
    out = np.empty(len(stack))
    with np.errstate(all="ignore"):
        out[...] = _jet(node, stack.T, index, _column)
    return out if point.ndim == 2 else float(out[0])


# ---------------------------------------------------------------------------
# Jets of order 1 and 2
# ---------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value, gradient and Hessian of a scalar at a point or a stack of points.

    At a point of shape (n,): a float, (n,) and (n, n), unwrapped from the
    stack of one that the walk took.  At a stack of shape (P, n) each gains a
    leading P axis.  The Hessian is exactly symmetric; an order-1 jet carries
    none (``hess`` is None).
    """

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None


class _Jet1:
    """An order-1 jet under propagation over a stack of P points; constants
    stay scalars beside it.

    The sample axis comes last - the value is (P,) and the gradient (n, P) -
    so a value broadcasts against its gradient.  ``_Jet2`` adds the Hessian to
    every rule and leaves the value and gradient rules as they are, so both
    orders give the same values and gradients bit for bit.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: np.ndarray):
        self.value = value
        self.grad = grad

    @classmethod
    def variable(cls, i: int, columns: np.ndarray) -> "_Jet1":
        """The jet of coordinate ``i`` over the stack's columns (n, P)."""
        grad = np.zeros(columns.shape)
        grad[i] = 1.0
        return cls(columns[i], grad)

    def __add__(self, other) -> "_Jet1":
        if isinstance(other, _Jet1):
            return _Jet1(self.value + other.value, self.grad + other.grad)
        return _Jet1(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other) -> "_Jet1":
        if isinstance(other, _Jet1):
            return _Jet1(self.value - other.value, self.grad - other.grad)
        return _Jet1(self.value - other, self.grad)

    def __rsub__(self, other) -> "_Jet1":
        return _Jet1(other - self.value, -self.grad)

    def __neg__(self) -> "_Jet1":
        return _Jet1(-self.value, -self.grad)

    def __mul__(self, other) -> "_Jet1":
        if not isinstance(other, _Jet1):
            return _Jet1(self.value * other, self.grad * other)
        return _Jet1(self.value * other.value, self.grad * other.value + other.grad * self.value)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Jet1":
        if isinstance(other, _Jet1):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other) -> "_Jet1":
        return self._reciprocal() * other

    def _reciprocal(self) -> "_Jet1":
        inv = 1.0 / self.value
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def _chain(self, f, fp, fpp) -> "_Jet1":
        """Compose with a scalar function given f, f', f'' at ``self.value``.

        f'' is taken at both orders, so that both raise on the same domain."""
        return _Jet1(f, fp * self.grad)

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


class _Jet2(_Jet1):
    """An order-2 jet, whose Hessian is (n, n, P).  Every rule assembles the
    Hessian from elementwise-symmetric terms, so it is symmetric bit for bit."""

    __slots__ = ("hess",)

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def variable(cls, i: int, columns: np.ndarray) -> "_Jet2":
        grad = np.zeros(columns.shape)
        grad[i] = 1.0
        return cls(columns[i], grad, np.zeros((len(columns),) + columns.shape))

    def __add__(self, other) -> "_Jet2":
        if isinstance(other, _Jet2):
            return _Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return _Jet2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other) -> "_Jet2":
        if isinstance(other, _Jet2):
            return _Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        return _Jet2(self.value - other, self.grad, self.hess)

    def __rsub__(self, other) -> "_Jet2":
        return _Jet2(other - self.value, -self.grad, -self.hess)

    def __neg__(self) -> "_Jet2":
        return _Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other) -> "_Jet2":
        if not isinstance(other, _Jet2):
            return _Jet2(self.value * other, self.grad * other, self.hess * other)
        value = self.value * other.value
        grad = self.grad * other.value + other.grad * self.value
        hess = (
            self.hess * other.value
            + other.hess * self.value
            + _outer(self.grad, other.grad)
            + _outer(other.grad, self.grad)
        )
        return _Jet2(value, grad, hess)

    __rmul__ = __mul__

    def _chain(self, f, fp, fpp) -> "_Jet2":
        grad = fp * self.grad
        hess = fp * self.hess + fpp * _outer(self.grad, self.grad)
        return _Jet2(f, grad, hess)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, None] * b[None]


def _jet_exp(j: _Jet1) -> _Jet1:
    e = _call_value("exp", j.value)
    return j._chain(e, e, e)


def _jet_log(j: _Jet1) -> _Jet1:
    f = _call_value("log", j.value)
    return j._chain(f, 1.0 / j.value, -1.0 / (j.value * j.value))


def _jet_sin(j: _Jet1) -> _Jet1:
    s = _call_value("sin", j.value)
    return j._chain(s, _call_value("cos", j.value), -s)


def _jet_cos(j: _Jet1) -> _Jet1:
    c = _call_value("cos", j.value)
    return j._chain(c, -_call_value("sin", j.value), -c)


def _jet_sinh(j: _Jet1) -> _Jet1:
    s = _call_value("sinh", j.value)
    return j._chain(s, _call_value("cosh", j.value), s)


def _jet_cosh(j: _Jet1) -> _Jet1:
    c = _call_value("cosh", j.value)
    return j._chain(c, _call_value("sinh", j.value), c)


def _jet_sqrt(j: _Jet1) -> _Jet1:
    root = _call_value("sqrt", j.value)
    fp = 0.5 / root
    return j._chain(root, fp, -0.5 * fp / j.value)


_JET_CALLS: dict[str, Callable[[_Jet1], _Jet1]] = {
    "exp": _jet_exp,
    "log": _jet_log,
    "sin": _jet_sin,
    "cos": _jet_cos,
    "sinh": _jet_sinh,
    "cosh": _jet_cosh,
    "sqrt": _jet_sqrt,
}


def evaluate_jet2(node: ExpressionNode, point, index: Mapping[str, int], order: int = 2) -> Jet2:
    """Value, gradient and, at ``order`` 2, Hessian at a point (n,) or a stack
    (P, n), by jet propagation; an order-1 jet propagates no Hessian.  Both
    orders give the same values and gradients bit for bit and raise alike."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    point = np.asarray(point, dtype=float)
    stack = point[None] if point.ndim == 1 else point
    p, n = stack.shape
    with np.errstate(all="ignore"):
        jet = _jet(node, stack.T, index, _Jet2.variable if order == 2 else _Jet1.variable)
    if isinstance(jet, _Jet1):
        value, grad = np.array(jet.value), jet.grad.T
        hess = jet.hess.transpose(2, 0, 1) if order == 2 else None
    else:
        value, grad = np.full(p, jet), np.zeros((p, n))
        hess = np.zeros((p, n, n)) if order == 2 else None
    if point.ndim == 2:
        return Jet2(value, grad, hess)
    return Jet2(float(value[0]), grad[0], None if hess is None else hess[0])


def _jet(node: ExpressionNode, columns, index: Mapping[str, int], variable: Callable):
    """The walk of every order over a stack's ``columns`` (n, P): ``variable(i,
    columns)`` gives coordinate ``i`` its column at order 0 and its jet at
    orders 1 and 2."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return variable(_coordinate(node, index), columns)
    if isinstance(node, Neg):
        return -_jet(node.operand, columns, index, variable)
    if isinstance(node, Call):
        arg = _jet(node.arg, columns, index, variable)
        return _JET_CALLS[node.func](arg) if isinstance(arg, _Jet1) else _call_value(node.func, arg)
    left = _jet(node.left, columns, index, variable)
    if node.op == "^":
        exponent = _exponent(node.right)
        return left.power(exponent) if isinstance(left, _Jet1) else _pow_value(left, exponent)
    right = _jet(node.right, columns, index, variable)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return _divide(left, right)
