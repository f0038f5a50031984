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
gradient and Hessian (no finite differencing).
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

def _pow_value(base: float, exponent: float) -> float:
    if exponent == int(exponent):
        power = int(exponent)
        if base == 0.0 and power < 0:
            raise EvaluationDomainError("zero raised to a negative power")
        try:
            return float(base**power)
        except OverflowError as exc:
            raise EvaluationDomainError("overflow in power") from exc
    if base <= 0.0:
        raise EvaluationDomainError(f"non-integer power of non-positive base {base!r}")
    return math.pow(base, exponent)


def evaluate(node: ExpressionNode, point, index: Mapping[str, int]) -> float:
    """Evaluate at ``point`` (coordinates resolved through ``index``)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(point[index[node.name]])
        except KeyError as exc:
            raise ExpressionError(f"unbound variable {node.name!r}") from exc
    if isinstance(node, Neg):
        return -evaluate(node.operand, point, index)
    if isinstance(node, Call):
        return _call_value(node.func, evaluate(node.arg, point, index))
    left = evaluate(node.left, point, index)
    if node.op == "^":
        return _pow_value(left, evaluate(node.right, point, index))
    right = evaluate(node.right, point, index)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0.0:
        raise EvaluationDomainError("division by zero")
    return left / right


def _call_value(func: str, v: float) -> float:
    try:
        if func == "exp":
            return math.exp(v)
        if func == "log":
            if v <= 0.0:
                raise EvaluationDomainError(f"log of non-positive argument {v!r}")
            return math.log(v)
        if func == "sin":
            return math.sin(v)
        if func == "cos":
            return math.cos(v)
        if func == "sinh":
            return math.sinh(v)
        if func == "cosh":
            return math.cosh(v)
        if v <= 0.0:
            raise EvaluationDomainError(f"sqrt of non-positive argument {v!r}")
        return math.sqrt(v)
    except OverflowError as exc:
        raise EvaluationDomainError(f"overflow in {func}") from exc


# ---------------------------------------------------------------------------
# Order-2 jets
# ---------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value, gradient and Hessian of a scalar at a point.

    The Hessian is kept exactly symmetric: every rule below assembles it from
    elementwise-symmetric terms, so ``hess == hess.T`` bit for bit.
    """

    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other: "Jet2") -> "Jet2":
        value = self.value * other.value
        grad = self.grad * other.value + other.grad * self.value
        hess = (
            self.hess * other.value
            + other.hess * self.value
            + np.outer(self.grad, other.grad)
            + np.outer(other.grad, self.grad)
        )
        return Jet2(value, grad, hess)

    def __truediv__(self, other: "Jet2") -> "Jet2":
        if other.value == 0.0:
            raise EvaluationDomainError("division by zero")
        return self * other._reciprocal()

    def _reciprocal(self) -> "Jet2":
        inv = 1.0 / self.value
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def _chain(self, f: float, fp: float, fpp: float) -> "Jet2":
        """Compose with a scalar function given f, f', f'' at ``self.value``."""
        grad = fp * self.grad
        hess = fp * self.hess + fpp * np.outer(self.grad, self.grad)
        return Jet2(f, grad, hess)

    def power(self, exponent: float) -> "Jet2":
        if exponent == 0.0:
            n = self.grad.shape[0]
            return Jet2(1.0, np.zeros(n), np.zeros((n, n)))
        if exponent == 1.0:
            return self
        f = _pow_value(self.value, exponent)
        fp = exponent * _pow_value(self.value, exponent - 1.0)
        if exponent == 2.0:
            fpp = 2.0
        else:
            fpp = exponent * (exponent - 1.0) * _pow_value(self.value, exponent - 2.0)
        return self._chain(f, fp, fpp)


def _jet_const(value: float, n: int) -> Jet2:
    return Jet2(value, np.zeros(n), np.zeros((n, n)))


def _jet_var(i: int, value: float, n: int) -> Jet2:
    grad = np.zeros(n)
    grad[i] = 1.0
    return Jet2(value, grad, np.zeros((n, n)))


def _jet_exp(j: Jet2) -> Jet2:
    e = _call_value("exp", j.value)
    return j._chain(e, e, e)


def _jet_log(j: Jet2) -> Jet2:
    f = _call_value("log", j.value)
    return j._chain(f, 1.0 / j.value, -1.0 / (j.value * j.value))


def _jet_sqrt(j: Jet2) -> Jet2:
    root = _call_value("sqrt", j.value)
    fp = 0.5 / root
    return j._chain(root, fp, -0.5 * fp / j.value)


_JET_CALLS: dict[str, Callable[[Jet2], Jet2]] = {
    "exp": _jet_exp,
    "log": _jet_log,
    "sin": lambda j: j._chain(math.sin(j.value), math.cos(j.value), -math.sin(j.value)),
    "cos": lambda j: j._chain(math.cos(j.value), -math.sin(j.value), -math.cos(j.value)),
    "sinh": lambda j: j._chain(_call_value("sinh", j.value), _call_value("cosh", j.value), _call_value("sinh", j.value)),
    "cosh": lambda j: j._chain(_call_value("cosh", j.value), _call_value("sinh", j.value), _call_value("cosh", j.value)),
    "sqrt": _jet_sqrt,
}


def evaluate_jet2(node: ExpressionNode, point, index: Mapping[str, int]) -> Jet2:
    """Evaluate value, gradient and Hessian at ``point`` by jet propagation."""
    point = np.asarray(point, dtype=float)
    return _eval_jet(node, point, index, point.shape[0])


def _eval_jet(node: ExpressionNode, point: np.ndarray, index: Mapping[str, int], n: int) -> Jet2:
    if isinstance(node, Num):
        return _jet_const(node.value, n)
    if isinstance(node, Var):
        try:
            i = index[node.name]
        except KeyError as exc:
            raise ExpressionError(f"unbound variable {node.name!r}") from exc
        return _jet_var(i, float(point[i]), n)
    if isinstance(node, Neg):
        return -_eval_jet(node.operand, point, index, n)
    if isinstance(node, Call):
        return _JET_CALLS[node.func](_eval_jet(node.arg, point, index, n))
    left = _eval_jet(node.left, point, index, n)
    if node.op == "^":
        exponent = _eval_jet(node.right, point, index, n)
        if np.any(exponent.grad != 0.0):
            raise ExpressionError("variable exponents are not supported")
        return left.power(exponent.value)
    right = _eval_jet(node.right, point, index, n)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return left / right
