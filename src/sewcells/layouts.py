"""The coordinate sets a structure's geometry runs on.

The sewn chart of copies of a cell is the diagonal of a product of cells,
so on its coordinates (s, x1, y1, ..., xk, yk) every entry of g, phi, xi and
eta that is not the literal zero, and every gradient entry, lies on s plus
one cell's pair, and xi lies on s alone.  ``star_layout`` proves such a
split from the field plans (``charts.TensorField.nonzero_entries``): the
adapted coordinate, the hub, and blocks of one size.  Then g is block
diagonal, and Gamma, nabla phi, Phi, d Phi, eta ^ Phi, the normality tensor,
h, h' and the curvature along xi, R(e_i, e_j) xi, vanish off the sets "hub
plus one block", so the structure axioms, the geometry layers, the curvature
and the nullity fits compute them per set on (P, K, w, ...) arrays
(``charts.TensorField.evaluate_with_jets`` lays a field's jet out in them,
``Layout.scatter`` says where its entries go and ``Layout.fold`` where its
Hessian entries fold) and never build an (n, n, n) array; this is block
elimination (Golub & Van Loan, Matrix Computations, 4th ed., 2013) where
the hub couples to no block.  Every other chart is one set, the full grid,
and its arrays are those of the chart.
"""
from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np


class Layout:
    """K sets of w coordinates of a chart of dimension ``dim``: ``sets[b]``
    holds the chart indices of set b.  A whole-chart layout is one set, the
    chart in order, and its arrays are those of the full grid.  A star
    layout (``hub``, K >= 2 sets) is a hub coordinate and K blocks of w - 1
    coordinates, and set b is the hub, first, and block b (see
    ``star_layout``); its arrays lead with the set axis, so that a rank-r
    array is (..., K, w, .., w)."""

    def __init__(self, dim: int, sets: np.ndarray):
        self.dim, self.sets, self.hub = dim, sets, len(sets) > 1

    @staticmethod
    @cache
    def whole(dim: int) -> "Layout":
        """The one-set layout of a chart of dimension ``dim``."""
        return Layout(dim, np.arange(dim)[None, :])

    def shape(self, rank: int) -> tuple:
        """The trailing axes of a rank-``rank`` array in the layout."""
        if not self.hub:
            return (self.dim,) * rank
        return (len(self.sets),) + (self.sets.shape[1],) * rank

    @property
    def width(self) -> int:
        """Floats per sample of the largest array of a sweep in this layout,
        a (w, w, w) array per set."""
        count, size = self.sets.shape
        return count * size ** 3

    @cached_property
    def local(self) -> np.ndarray:
        """[b, c]: the slot of chart index c in set b, -1 where it is not there."""
        count, size = self.sets.shape
        local = np.full((count, self.dim), -1)
        local[np.arange(count)[:, None], self.sets] = np.arange(size)
        return local

    def _held(self, indices: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For the chart multi-indices of E entries, given as r index arrays
        (``np.unravel_index``): (blocks, entries, held) for every set b that
        holds all r indices of entry e, set by set and in entry order within
        a set, with ``held`` (r, M) the slots of the r indices in their set."""
        held = self.local[:, indices]  # (K, r, E), -1 where set b lacks an index of entry e
        blocks, entries = np.nonzero((held >= 0).all(axis=1))
        return blocks, entries, held[blocks, :, entries].T

    def slots(self, indices: tuple) -> tuple[np.ndarray, np.ndarray]:
        """For the chart multi-indices ``indices`` (r index arrays): the pairs
        (e, slot) of every set that holds all r indices of entry e, with
        ``slot`` the flat slot of the entry in the (K, w, .., w) layout."""
        size = self.sets.shape[1]
        slots, entries, held = self._held(indices)  # each slot starts as its set
        for column in held:
            slots = slots * size + column
        return entries, slots

    def scatter(self, field) -> tuple:
        """Where the compact jet of ``field`` goes in this star layout:
        (constant, shape, width, sources, slots).  The values start as
        ``constant`` (of ``shape``), and ``sources[part]`` of the compact
        values (``part`` 0) or gradient entries (1) fill the flat
        ``slots[part]``, with ``width`` slots per gradient.  A component in
        several sets (one that reads only the hub) fills a slot in each."""
        plan = field._plan
        shape, rank = field.shape, field.rank
        known = np.flatnonzero(plan.constant != 0.0)
        constants, constant_slots = self.slots(np.unravel_index(known, shape))
        constant = np.zeros(math.prod(self.shape(rank)))
        constant[constant_slots] = plan.constant[known[constants]]
        (value_sources, value_slots), (grad_sources, grad_slots) = (
            self.slots(np.unravel_index(plan.positions, shape)),
            self.slots(np.unravel_index(plan.grad_slots, shape + (self.dim,))))
        return (constant, self.shape(rank), self.sets.shape[1], (value_sources, grad_sources),
                (value_slots, grad_slots))

    def fold(self, field) -> tuple:
        """Where the Hessian entries of a rank-2 ``field`` go when
        ``TensorField.fold_hessians`` contracts them with a vector in this
        layout: (sources, weights, targets).  For every set that holds all
        four indices of an entry d_c d_d F_ab, ``sources`` names the entry
        once (None when that is every entry in order, as in a whole-chart
        layout); the first half of ``weights`` and ``targets`` adds it,
        times the laid-out vector's flat slot of v^a, into the flat slot of
        (b, c, d) of the first (K, w, w, w) contraction, and the second half,
        times v^c, into (a, b, d) of the second, laid after the first."""
        hess = field._plan.hess_slots
        count, size = self.sets.shape
        cube = size ** 3
        # a, b, c, d: the slots in its set of the indices of entry d_c d_d F_ab
        blocks, sources, (a, b, c, d) = self._held(np.unravel_index(hess, (self.dim,) * 4))
        base = blocks * cube
        weights = np.concatenate([a, c]) + np.concatenate([blocks, blocks]) * size
        targets = np.concatenate([base + (b * size + c) * size + d, count * cube + base + (a * size + b) * size + d])
        # the fold indices are below 2 K w^3, which 32 bits hold up to n = 1290 on the full grid, and take half the
        # memory there
        index = np.int32 if 2 * count * cube < 2 ** 31 else np.intp
        if sources.size == hess.size and (sources == np.arange(hess.size)).all():
            sources = None
        return sources, weights.astype(index), targets.astype(index)


def star_layout(struct) -> Layout:
    """The sets of a structure's geometry, proved from the
    field plans (``charts.TensorField.nonzero_entries``).

    The chart splits into its adapted coordinate, the hub, and blocks when
    every structurally non-zero value or gradient entry of g, phi, xi and
    eta has its indices and its derivative's coordinate in the hub plus one
    block, g has no hub-block entry and its hub entry reads no block, phi's
    hub row and hub column are the literal zero, xi is zero off the hub,
    and eta is constant and zero off the hub.  The blocks are the finest
    such partition: the sets of coordinates that the entries couple.  Then
    g is block diagonal, and Gamma, nabla phi, Phi, d Phi, eta ^ Phi and the
    normality tensor vanish outside the sets hub plus one block, so each is
    computed per set.  So do h and h', and (R(e_i, e_j) xi)^l: Gamma^l_jk
    reads only the coordinates of the set of l, j and k, and with xi on the
    hub alone every term of ``R^l_ijk xi^k`` has i, j and l in one set.  A
    quantity that xi contracts, nabla_xi xi, nabla_xi phi or h xi, then
    sums over the hub alone, so its entry of the hub alone is the same in
    every set.  The structure
    axioms read the sets too: every entry of their matrices outside the sets
    is zero (phi's hub row and column are, g is block diagonal and eta is
    c ds), and the eigenvalues of g are those of its sets.  A chart with no adapted
    coordinate, one that fails a condition, or one with fewer than two
    blocks or with blocks of unequal sizes is one set, the whole chart (a
    sewn chart whose metric couples s to the blocks, for instance; the blocks
    of a sewn chart are pairs).  So is a chart of fewer than seven
    coordinates, a 3-dimensional cell and a sewn chart of two cells among
    them, without a proof: phi squares to -1 on each block of a structure
    that meets the axioms, so a block has two coordinates at least, and a
    split of so few coordinates has two blocks at most, which save less than
    the proof, the scatter plans and the numpy calls on small arrays cost."""
    n, hub = struct.dim, struct.chart.adapted_index
    whole = Layout.whole(n)
    if hub is None or n < 7:
        return whole
    (g, dg), (phi, dphi), (xi, dxi), (eta, deta) = (
        tuple(entries.tolist() for entries in f.nonzero_entries) for f in (struct.metric, struct.phi, struct.xi,
                                                                          struct.eta))
    if (deta or any(row != [hub] for row in eta) or any(row != [hub] for row in xi) or any(hub in row for row in phi)
            or any((a == hub) != (b == hub) for a, b in g) or any(c != hub for a, b, c in dg if a == b == hub)):
        return whole
    parent = list(range(n))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for entries in (g, dg, phi, dphi, xi, dxi):
        for row in entries:
            members = [c for c in row if c != hub]
            for c in members[1:]:
                parent[root(c)] = root(members[0])
    blocks: dict[int, list[int]] = {}
    for c in range(n):
        if c != hub:
            blocks.setdefault(root(c), []).append(c)
    if len(blocks) < 2 or len({len(members) for members in blocks.values()}) > 1:
        return whole
    return Layout(n, np.array([[hub] + members for members in blocks.values()]))
