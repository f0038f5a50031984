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

Evaluation is pure and runs one straight-line program for every order.  A
``Program`` compiles several trees, its roots, hash-consed: each distinct
subtree is one instruction per column set its roots read, and one run visits
each instruction once.  A bare tree is a program of one root, just as a point
is a stack of one.  ``evaluate`` returns the values (order 0);
``evaluate_jet2`` propagates forward-mode jets and returns the values together
with the exact gradients and, at order 2 (the default), the exact Hessians (no
finite differencing).  One jet class serves both orders: an order-1 jet is
the order-2 jet without its Hessian, so a caller that reads none pays for
none, and one table gives f' and f'' of each function.  All three orders
share the value rules, and orders 1 and 2 the gradient rules, so they give
the same values and gradients bit for bit.  A run takes a stack of P points
of shape (P, n) and evaluates it with numpy in one pass; for a tree, a point
of shape (n,) gives a float value, an (n,) gradient and an (n, n) Hessian,
and a stack gives each of them a leading P axis.

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
import operator
import re
from array import array
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

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
            if isinstance(exponent, Num):
                return BinOp("^", base, exponent)
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
# One program run (``Program.run``) serves orders 0, 1 and 2 over stacks only;
# a point is a stack of one.  The stack goes in transposed, one (P,) column per
# coordinate.  At order 0 a coordinate is its own column, so values are (P,)
# arrays; at orders 1 and 2 it is a jet whose value is that column.  A
# constant subtree stays a scalar, a 0-d value that goes through the same
# numpy ufuncs and domain checks.  Every rule is elementwise over the sample
# axis, so a stack gives bit for bit what its rows give one at a time, and
# every domain check asks whether any row violates it, so a stack raises
# exactly when one of its rows would.

_NUMPY = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
          "sinh": np.sinh, "cosh": np.cosh, "sqrt": np.sqrt}
# (f', f'') at v given v and f = f(v); an f' that is another function goes
# through ``_call_value``, so that it keeps that function's domain checks
_DERIVATIVES = {
    "exp": lambda v, f: (f, f),
    "log": lambda v, f: (1.0 / v, -1.0 / (v * v)),
    "sin": lambda v, f: (_call_value("cos", v), -f),
    "cos": lambda v, f: (-_call_value("sin", v), -f),
    "sinh": lambda v, f: (_call_value("cosh", v), f),
    "cosh": lambda v, f: (_call_value("sinh", v), f),
    "sqrt": lambda v, f: (fp := 0.5 / f, -0.5 * fp / v),
}
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
    divisor = right.value if isinstance(right, _Jet) else right
    if _anywhere(divisor == 0.0):
        raise EvaluationDomainError("division by zero")
    return left / right


# ---------------------------------------------------------------------------
# Jets of order 1 and 2
# ---------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value, gradient and Hessian of a scalar at a point or a stack of points.

    At a point of shape (n,): a float, (n,) and (n, n), unwrapped from the
    stack of one that the program ran on.  At a stack of shape (P, n) each
    gains a leading P axis.  The Hessian is exactly symmetric; an order-1 jet
    carries none (``hess`` is None).  The jets of a program's roots share one
    ``Jet2`` in the layout of ``Program.run``.
    """

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None


class _Jet:
    """A jet under propagation over a stack of P points; constants stay
    scalars beside it.

    The sample axis comes last - the value is (P,), the gradient (n, P) and
    the Hessian (n, n, P) - so a value broadcasts against its derivatives.
    An order-1 jet is the order-2 jet without its Hessian (``hess`` is None):
    each rule computes the value and the gradient alike at both orders, so
    they agree bit for bit, and the Hessian only where there is one.  Every
    rule assembles the Hessian from elementwise-symmetric terms, so it is
    symmetric bit for bit.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray | None = None):
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def variable(cls, i: int, columns: np.ndarray, order: int) -> "_Jet":
        """The jet of coordinate ``i`` over the stack's columns (n, P)."""
        grad = np.zeros(columns.shape)
        grad[i] = 1.0
        return cls(columns[i], grad, np.zeros((len(columns),) + columns.shape) if order == 2 else None)

    def __add__(self, other) -> "_Jet":
        if isinstance(other, _Jet):
            return _Jet(self.value + other.value, self.grad + other.grad,
                        None if self.hess is None else self.hess + other.hess)
        return _Jet(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other) -> "_Jet":
        if isinstance(other, _Jet):
            return _Jet(self.value - other.value, self.grad - other.grad,
                        None if self.hess is None else self.hess - other.hess)
        return _Jet(self.value - other, self.grad, self.hess)

    def __rsub__(self, other) -> "_Jet":
        return _Jet(other - self.value, -self.grad, None if self.hess is None else -self.hess)

    def __neg__(self) -> "_Jet":
        return _Jet(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __mul__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return _Jet(self.value * other, self.grad * other, None if self.hess is None else self.hess * other)
        value = self.value * other.value
        grad = self.grad * other.value + other.grad * self.value
        if self.hess is None:
            return _Jet(value, grad)
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
        """Compose with a scalar function given f, f', f'' at ``self.value``.

        f'' is taken at both orders, so that both raise on the same domain."""
        grad = fp * self.grad
        if self.hess is None:
            return _Jet(f, grad)
        return _Jet(f, grad, fp * self.hess + fpp * _outer(self.grad, self.grad))

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


# ---------------------------------------------------------------------------
# Straight-line programs
# ---------------------------------------------------------------------------

# Every rule takes two operands, and a unary one ignores its second.

def _coordinate(i: int, group: tuple):
    """Coordinate ``i`` of a group, bound per run to (order, columns): at
    order 0 its own column of the stack, else its jet."""
    order, columns = group
    return _Jet.variable(i, columns, order) if order else columns[i]


def _fail(message: str, _):
    raise ExpressionError(message)


def _negative(operand, _):
    return -operand


def _call_rule(func: str) -> Callable:
    derivatives = _DERIVATIVES[func]

    def rule(arg, _):
        if not isinstance(arg, _Jet):
            return _call_value(func, arg)
        f = _call_value(func, arg.value)
        return arg._chain(f, *derivatives(arg.value, f))

    return rule


def _power(base, exponent):
    exponent = float(exponent)
    return base.power(exponent) if isinstance(base, _Jet) else _pow_value(base, exponent)


_CALL_RULES = {func: _call_rule(func) for func in FUNCTIONS}
_BINARY_RULES = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}
_RULES = (_fail, _coordinate, _negative, *_BINARY_RULES.values(), *_CALL_RULES.values())
_RULE_CODES = {rule: code for code, rule in enumerate(_RULES)}
_STORE = len(_RULES)  # copies a root's results out; bound per run


class _Assembler:
    """Emits the hash-consed instructions (rule, one or two operands) of
    expression trees in post-order.  An operand is an instruction's index,
    or ``-1 - j`` for entry j of ``immediates``: a group (bound per run), a
    constant, an integer (a coordinate's position in its group, or a root)
    or an error message."""

    def __init__(self, indexes: Sequence[Mapping[str, int]]):
        self.indexes = indexes
        self.immediates: list = [None] * len(indexes)
        self.refs: dict = {}
        self.rules: list = []
        self.first: list[int] = []
        self.second: list[int | None] = []

    def immediate(self, key, value) -> int:
        ref = self.refs.get(key)
        if ref is None:
            ref = self.refs[key] = -1 - len(self.immediates)
            self.immediates.append(value)
        return ref

    def integer(self, i: int) -> int:
        return self.immediate((int, i), i)

    def instruction(self, rule, a: int, b: int | None = None) -> int:
        key = (rule, a, b)
        ref = self.refs.get(key)
        if ref is None:
            ref = self.refs[key] = len(self.rules)
            self.rules.append(rule)
            self.first.append(a)
            self.second.append(b)
        return ref

    def fail(self, message: str) -> int:
        return self.instruction(_fail, self.immediate(message, message))

    def emit(self, node: ExpressionNode, group: int) -> int:
        """The operand of ``node`` in ``group``, emitting what it needs first."""
        kind = type(node)
        if kind is BinOp:
            left = self.emit(node.left, group)
            if node.op == "^" and type(node.right) is not Num and free_variables(node.right):
                return self.fail("variable exponents are not supported")
            return self.instruction(_BINARY_RULES[node.op], left, self.emit(node.right, group))
        if kind is Num:
            value = node.value
            # the sign keeps -0.0 apart from 0.0, and the tag numbers apart from the other immediates
            return self.immediate((Num, value, math.copysign(1.0, value)), value)
        if kind is Var:
            local = self.indexes[group].get(node.name)
            if local is None:
                return self.fail(f"unbound variable {node.name!r}")
            return self.instruction(_coordinate, self.integer(local), -1 - group)
        if kind is Call:
            return self.instruction(_CALL_RULES[node.func], self.emit(node.arg, group))
        return self.instruction(_negative, self.emit(node.operand, group))


class Program:
    """A straight-line program over expression trees, its roots.

    ``trees`` holds (tree, group) pairs in root order, and ``groups`` holds
    (columns, local index) pairs: the columns of the stack that a group reads
    and the position of each coordinate name among them.  A root's jet is
    taken over its group's columns only.

    Instructions are hash-consed bottom-up, keyed by their rule and operands;
    a coordinate's operands name its group, so each distinct (subtree, group)
    pair is one instruction, and a constant subtree, whose value no group
    changes, one across groups.  A ``Num`` leaf is an immediate operand.  The
    instructions run in the order in which walking the trees one after
    another, each in post-order, first reaches them, so the first to leave its
    domain raises what that walk would have raised first.  Each writes a
    register, which is reused once its value has been read for the last time,
    and a root's results are copied out right after the instruction that
    computes them.  The code is one flat array of (rule, register, operand,
    operand) rows, so that a field's program takes little memory between
    runs.
    """

    __slots__ = ("columns", "immediates", "code", "registers", "size", "offsets")

    def __init__(self, trees: Sequence[tuple[ExpressionNode, int]],
                 groups: Sequence[tuple[Sequence[int], Mapping[str, int]]]):
        # a range reads its columns as a view of the stack, without a copy
        self.columns = tuple(slice(c.start, c.stop, c.step) if isinstance(c, range) else np.asarray(c, dtype=np.intp)
                             for c, _ in groups)
        assembler = _Assembler([index for _, index in groups])
        roots_at: dict[int, list[int]] = {}  # operand -> the roots it holds
        offsets = [0, 0]  # (gradient, Hessian) columns before each root, and after the last
        for root, (tree, group) in enumerate(trees):
            roots_at.setdefault(assembler.emit(tree, group), []).append(root)
            m = len(groups[group][0])
            offsets += [offsets[-2] + m, offsets[-1] + m * m]
        last = {}  # instruction -> the instruction that reads it last (only keys from 0 on are read)
        for k, (a, b) in enumerate(zip(assembler.first, assembler.second)):
            last[a] = last[b] = k
        # register 0 takes what a store returns; an immediate operand is read in place
        code = [field for ref in roots_at if ref < 0 for root in roots_at[ref]
                for field in (_STORE, 0, ref, assembler.integer(root))]
        register: dict[int, int] = {}
        free: list[int] = []  # registers whose value has been read for the last time
        count = 1
        for k, (rule, a, b) in enumerate(zip(assembler.rules, assembler.first, assembler.second)):
            first = register[a] if a >= 0 else a
            second = first if b is None else register[b] if b >= 0 else b
            if a >= 0 and last[a] == k:
                free.append(register.pop(a))
            if b is not None and b >= 0 and b != a and last[b] == k:
                free.append(register.pop(b))
            if free:
                target = register[k] = free.pop()
            else:
                target = register[k] = count
                count += 1
            code += [_RULE_CODES[rule], target, first, second]
            for root in roots_at.get(k, ()):
                code += [_STORE, 0, target, assembler.integer(root)]
            if k not in last:  # never read again
                free.append(register.pop(k))
        self.immediates = assembler.immediates[::-1]  # immediate j is the register -1 - j from the end
        self.code = array("i", code)
        self.registers = count
        self.size = len(assembler.rules)
        self.offsets = array("i", offsets)

    def __len__(self) -> int:
        """The number of instructions, not counting the copies out."""
        return self.size

    @property
    def roots(self) -> int:
        return len(self.offsets) // 2 - 1

    def run(self, stack: np.ndarray, order: int) -> tuple:
        """The roots' values (P, R) at a stack (P, n) and, from order 1 on,
        their gradients (P, sum of m) over their groups' m columns and at
        order 2 their row-major (m, m) Hessians (P, sum of m^2), each laid
        end to end in root order."""
        p = len(stack)
        columns = stack.T
        values = [None] * self.registers + self.immediates
        for group, cols in enumerate(self.columns):
            values[-1 - group] = (order, columns[cols])
        out = (np.empty((p, self.roots)),) + tuple(np.zeros((p, size)) for size in self.offsets[-2:][:order])
        offsets = self.offsets

        def store(result, root: int) -> None:
            if not isinstance(result, _Jet):  # a value, or a constant whose derivatives are zero
                out[0][:, root] = result
                return
            out[0][:, root] = result.value
            out[1][:, offsets[2 * root]:offsets[2 * root + 2]] = result.grad.T
            if order == 2:
                start, stop = offsets[2 * root + 1], offsets[2 * root + 3]
                out[2][:, start:stop] = result.hess.reshape(stop - start, p).T

        rules, fields = (*_RULES, store), iter(self.code)
        with np.errstate(all="ignore"):
            for rule, register, a, b in zip(fields, fields, fields, fields):
                values[register] = rules[rule](values[a], values[b])
        return out


def _program(expr, width: int, index) -> Program:
    """A program as it is, and a tree as the program of one root that reads
    every column of the stack."""
    if isinstance(expr, Program):
        return expr
    return Program([(expr, 0)], [(range(width), {} if index is None else index)])


def evaluate(expr: ExpressionNode | Program, point, index: Mapping[str, int] | None = None):
    """Values at ``point``, of shape (n,), or at each point of a stack (P, n).

    A tree, its coordinates resolved through ``index``, gives a float at a
    point and (P,) at a stack; a program gives its roots' values, (R,) and
    (P, R).
    """
    point = np.asarray(point, dtype=float)
    stack = point[None] if point.ndim == 1 else point
    (values,) = _program(expr, stack.shape[1], index).run(stack, 0)
    if isinstance(expr, Program):
        return values if point.ndim == 2 else values[0]
    return values[:, 0] if point.ndim == 2 else float(values[0, 0])


def evaluate_jet2(expr: ExpressionNode | Program, point, index: Mapping[str, int] | None = None,
                  order: int = 2) -> Jet2:
    """Value, gradient and, at ``order`` 2, Hessian at a point (n,) or a stack
    (P, n), by jet propagation; an order-1 jet propagates no Hessian.  Both
    orders give the same values and gradients bit for bit and raise alike.

    A tree's jet is taken over every coordinate; a program gives the layout of
    ``Program.run``, without the P axis at a point."""
    if order not in (1, 2):
        raise ValueError(f"jet order must be 1 or 2, got {order!r}")
    point = np.asarray(point, dtype=float)
    stack = point[None] if point.ndim == 1 else point
    p, n = stack.shape
    value, grad, *hess = _program(expr, n, index).run(stack, order)
    hess = hess[0] if hess else None
    if not isinstance(expr, Program):
        value = value[:, 0]
        hess = None if hess is None else hess.reshape(p, n, n)
    if point.ndim == 2:
        return Jet2(value, grad, hess)
    return Jet2(value[0] if isinstance(expr, Program) else float(value[0]), grad[0],
                None if hess is None else hess[0])
