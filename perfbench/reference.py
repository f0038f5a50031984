"""Reference kernel: a fixed piece of work that tracks the speed of the machine.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more within seconds, as neighbours come and go.  Between runs
minutes apart that drift, not the program, decides the raw timings.  So the
speed is sampled with this kernel around and during every timed command, and
the command's time is converted to seconds at a fixed nominal speed:

    normalized = measured * NOMINAL_S / (sampled kernel seconds per whole kernel)

A ``Meter`` runs the whole kernel just before and just after each command
and, while the command runs, a short slice of it from a SIGALRM handler every
``INTERVAL`` seconds, so a command of several seconds is normalized by the
speed it actually ran at.  The slices' time is subtracted from the command's.

The kernel resembles the program's hot path (a recursive walk over expression
trees propagating order-2 jets held in small numpy arrays) so that it slows
down the way the program does, but it shares no code with the package: no
change to sewcells can move it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Kernel time at the speed the reported seconds refer to: about the median
# kernel time measured on a 2-vCPU Intel Xeon guest of a shared host.
NOMINAL_S = 0.0060
INTERVAL = 0.02     # seconds between slices while a command runs
SLICE = 2           # points per slice; the whole kernel is len(_POINTS) points

_DIM = 3


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0.0):
        self.op, self.left, self.right, self.value = op, left, right, value


def _tree(rng: np.random.Generator, depth: int) -> _Node:
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return _Node("x", value=int(rng.integers(_DIM)))
        return _Node("c", value=float(rng.uniform(-2.0, 2.0)))
    op = ("+", "*", "sin", "exp")[int(rng.integers(4))]
    return _Node(op, _tree(rng, depth - 1), _tree(rng, depth - 1) if op in "+*" else None)


_RNG = np.random.default_rng(20120321)
_TREES = [_tree(_RNG, 7) for _ in range(6)]
_POINTS = [tuple(p) for p in _RNG.uniform(-1.0, 1.0, size=(12, _DIM))]
_ZERO_G = np.zeros(_DIM)
_ZERO_H = np.zeros((_DIM, _DIM))
_UNIT_G = np.eye(_DIM)


def _jet(node: _Node, x) -> tuple:
    op = node.op
    if op == "c":
        return node.value, _ZERO_G, _ZERO_H
    if op == "x":
        return x[node.value], _UNIT_G[node.value], _ZERO_H
    v, g, h = _jet(node.left, x)
    if op in ("sin", "exp"):
        if op == "sin":
            f0, f1, f2 = math.sin(v), math.cos(v), -math.sin(v)
        else:
            f0 = f1 = f2 = math.exp(min(v, 5.0))
        return f0, f1 * g, f1 * h + f2 * np.outer(g, g)
    w, gw, hw = _jet(node.right, x)
    if op == "+":
        return v + w, g + gw, h + hw
    return v * w, v * gw + w * g, v * hw + w * h + np.outer(g, gw) + np.outer(gw, g)


def kernel(points=None) -> float:
    """Evaluate every tree at the given points (all by default); return a
    checksum so the work cannot be skipped."""
    total = 0.0
    for point in _POINTS if points is None else points:
        for tree in _TREES:
            total += float(_jet(tree, point)[2].sum())
    return total


class Meter:
    """Times calls and samples the kernel's speed around and during each."""

    def __init__(self, during: bool = True) -> None:
        self.during = during
        self._edge = self._whole()   # shared by consecutive calls
        self._inside = 0.0
        self._inside_points = 0
        self._next = 0

    @staticmethod
    def _whole() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    def _slice(self, signum, frame) -> None:
        points = [_POINTS[(self._next + i) % len(_POINTS)] for i in range(SLICE)]
        self._next += SLICE
        t0 = time.perf_counter()
        kernel(points)
        self._inside += time.perf_counter() - t0
        self._inside_points += SLICE

    def time(self, fn):
        """Run ``fn()``.  Return its seconds as measured, less the slices taken
        inside; the factor that converts them to seconds at the nominal speed
        (nominal over sampled kernel time per point); and ``fn``'s result."""
        before = self._edge
        self._inside, self._inside_points = 0.0, 0
        if self.during:
            previous = signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._edge = self._whole()
        busy = before + self._inside + self._edge
        points = 2 * len(_POINTS) + self._inside_points
        return elapsed - self._inside, NOMINAL_S / len(_POINTS) * points / busy, result
