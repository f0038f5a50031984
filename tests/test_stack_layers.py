"""The curvature and bracket layers over sample stacks.

A stack (P, n) must give what its rows give one at a time: to 1e-13 relative,
or 1e-15 absolute where the row value is below 1e-10 (the batched matrix
products may sum in another order than the single-point ones).  The
curvature along a vector that ``riemann`` builds from the sparse Hessians is
checked against the dense ``einsum`` reference of ``geometry_helpers``, and
the column family of ``lie_bracket`` against brackets of (1,0) column fields
built here.  The first-order layers, which run in the sets of a structure's
layout, give per sample what the same layers give on the full grid
(``geometry_helpers.dense_verify_layers``).  Finally ``sew`` and ``verify``
keep their memory within the batch budget.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from sewcells import cli
from sewcells.catalog import halfspace_kenmotsu_cell, kenmotsu_warped_cell, model_cosymplectic_cell, standard_cells
from sewcells.charts import (
    BATCH_BYTES,
    Chart,
    ContactStructure,
    TensorField,
    batch_size,
    sample_points,
    validate_structure,
)
from geometry_helpers import (
    christoffel_reference,
    d_fundamental_form_reference,
    dense_nabla_phi,
    dense_verify_layers,
    full_pair_fits,
    in_sets,
    nabla_phi_reference,
    normality_reference,
    on_full_grid,
    product_median,
    riemann_reference,
    set_mask,
)
from sewcells.geometry import (
    christoffel,
    covariant_derivative_affinor,
    fundamental_form_with_derivative,
    h_tensor,
    lie_bracket,
    normality_tensor,
    reeb_layer,
    riemann,
    verify_layers,
)
from sewcells.charts import Residual
from sewcells.manifold_io import load_manifold, save_manifold, structure_to_dict
from sewcells.nullity import (
    H_DEGENERACY_THRESHOLD,
    OPERATOR_LAWS,
    _eta_pairs,
    classify_and_fit,
    fit_nullity,
    normalized,
)
from sewcells.sewing import build_product, extrinsic_report, sew

REL = 1e-13
ABS = 1e-15
FLOOR = 1e-10


def assert_rows_match(stacked, rows):
    stacked, rows = np.asarray(stacked, dtype=float), np.asarray(rows, dtype=float)
    assert stacked.shape == rows.shape
    gap = np.abs(stacked - rows)
    large = np.abs(rows) >= FLOOR
    assert np.all(gap[large] <= REL * np.abs(rows[large])), float(np.max(gap[large] / np.abs(rows[large])))
    assert np.all(gap[~large] <= ABS), float(np.max(gap[~large], initial=0.0))


@pytest.fixture(scope="module")
def structures(tmp_path_factory):
    """Every catalog cell, and a sewn k = 3 definition read back from its file."""
    path = tmp_path_factory.mktemp("stacks") / "sewn.json"
    save_manifold(sew([standard_cells()[-1]] * 3), path)
    return (*standard_cells(), load_manifold(path))


def _points(struct, count=6, seed=4):
    return sample_points(struct.chart, count, seed).coords


class TestStackEqualsRows:
    def test_h_tensor(self, structures):
        for struct in structures:
            points = _points(struct)
            stacked = h_tensor(struct, points)
            rows = [h_tensor(struct, p) for p in points]
            for name in ("h", "hprime"):
                assert_rows_match(getattr(stacked, name), [getattr(r, name) for r in rows])

    def test_riemann(self, structures):
        for struct in structures:
            points = _points(struct)
            xi = struct.xi.evaluate(points)
            gamma, rxi = riemann(struct.metric, points, xi)
            rows = [riemann(struct.metric, p, v) for p, v in zip(points, xi)]
            assert_rows_match(rxi, [r[1] for r in rows])
            assert_rows_match(gamma, [r[0] for r in rows])

    @pytest.mark.parametrize("alpha", [None, 1.5], ids=["raw", "kenmotsu"])
    def test_fit_nullity(self, structures, alpha):
        def fits(struct, point):
            fit = fit_nullity(struct, point)
            return fit if alpha is None else normalized(fit, alpha)

        for struct in structures:
            points = _points(struct)
            stacked = fits(struct, points)
            rows = [fits(struct, p) for p in points]
            for name in ("kappa", "mu", "muprime", "residual", "h_norm", "h", "hprime"):
                assert_rows_match(getattr(stacked, name), [getattr(f, name) for f in rows])
            assert stacked.determinate_mu.tolist() == [f.determinate_mu for f in rows]

    def test_lie_bracket(self, structures):
        for struct in structures:
            points = _points(struct)
            for v, w in ((struct.phi, struct.phi), (struct.phi, struct.xi), (struct.xi, struct.phi),
                         (struct.xi, struct.xi)):
                assert_rows_match(lie_bracket(v, w, points), [lie_bracket(v, w, p) for p in points])


def test_riemann_matches_einsum_reference(structures, model_cell, halfspace_cell):
    """The curvature along a vector, built from the sparse Hessians, against
    the dense reference contracted with the vector, on every catalog cell,
    the sewn k = 3 file and a product chart.  Both sum O(n) products of
    entries of at most the reference's magnitude, so they agree to 1e-13 of
    its largest magnitude, or of 1 where the terms cancel."""
    product = build_product([model_cell, halfspace_cell])
    fields = [(s.metric, s.chart, s.xi) for s in structures] + [(product.metric, product.chart, product_median(product))]
    for metric, chart, field in fields:
        points = sample_points(chart, 4, 9).coords
        # the Reeb field and a vector off it, so that every slot of the contraction is read
        for v in (field.evaluate(points), np.random.default_rng(3).uniform(-1.0, 1.0, points.shape)):
            gamma, rv = riemann(metric, points, v)
            for p, point in enumerate(points):
                reference = np.einsum("lijk,k->lij", riemann_reference(metric, point), v[p])
                np.testing.assert_allclose(rv[p], reference, rtol=REL, atol=REL * max(1.0, np.abs(reference).max()))
                np.testing.assert_array_equal(gamma[p], christoffel(metric, point))


def test_first_order_layers_match_einsum_references(structures, model_cell):
    """Gamma, nabla phi (with its xi-direction norms), d Phi and N, run as
    batched matrix products over a stack in the sets of the structure's
    layout, against the ``einsum`` references on the full grid at each row,
    read in the same sets (``geometry_helpers.in_sets``).  Both sum the same O(1) terms
    in another order, so they agree to 1e-13 of the reference's largest
    magnitude, or of 1 where the terms cancel (nabla phi vanishes on the
    cosymplectic cells).  Besides the whole-chart layouts of ``structures``,
    the sewn model cell splits into s and three blocks."""
    def close(got, reference):
        np.testing.assert_allclose(got, reference, rtol=REL, atol=REL * max(1.0, np.abs(reference).max()))

    split = sew([model_cell] * 3)
    assert split.layout.hub and split.layout.sets.tolist() == [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
    for struct in (*structures, split):
        layout = struct.layout
        points = _points(struct, count=8, seed=13)
        gamma = christoffel(struct.metric, points, layout)
        derivative = covariant_derivative_affinor(struct, points)
        d_phi = fundamental_form_with_derivative(struct, points)[1]
        torsion = normality_tensor(struct, points)
        for p, point in enumerate(points):
            close(gamma[p], in_sets(layout, christoffel_reference(struct.metric, point), 3))
            nablaphi, nabla_xi_phi, nabla_xi_xi = nabla_phi_reference(struct, point)
            close(derivative.nablaphi[p], in_sets(layout, nablaphi, 3))
            close(derivative.nabla_xi_phi_norm[p], np.abs(nabla_xi_phi).max())
            close(derivative.nabla_xi_xi_norm[p], np.abs(nabla_xi_xi).max())
            close(d_phi[p], in_sets(layout, d_fundamental_form_reference(struct, point), 3))
            close(torsion[p], in_sets(layout, normality_reference(struct, point), 3))


def _generic_structure() -> ContactStructure:
    """A structure that meets no axiom, with nonzero nabla_xi phi and
    nabla_xi xi and an eta whose first and last component are the literal
    0: the pair (t, y) is the one pair that eta does not reach."""
    chart = Chart(("t", "x", "y"))
    return ContactStructure(
        "generic", chart,
        metric=TensorField.build(chart, 0, 2, [["2 + x^2", "0.3*t*y", "0.1*y"],
                                               ["0.3*t*y", "1.5 + sin(t)", "0.2*x"],
                                               ["0.1*y", "0.2*x", "1 + t^2 + y^2"]]),
        phi=TensorField.build(chart, 1, 1, [["x*y", "1 - t", "0.5*y"], ["-1", "t*x", "cos(y)"],
                                            ["0.3", "x", "-t*y"]]),
        xi=TensorField.build(chart, 1, 0, ["1 + 0.2*x", "sin(y)", "t*x"]),
        eta=TensorField.build(chart, 0, 1, ["0", "1 + x^2", "0"]),
    )


@pytest.fixture(scope="module")
def reduced_structures():
    """Every catalog cell, each of them sewn with k = 2, 3 and 6 copies, and
    the generic structure."""
    cells = standard_cells()
    return [*cells, *(sew([cell] * k) for cell in cells for k in (2, 3, 6)), _generic_structure()]


def test_eta_row_fits_equal_the_full_design(reduced_structures):
    """The fits solve the rows that eta reaches and add the other pairs'
    curvature to the residual only.  They equal the fits over the design of
    every pair (``geometry_helpers.full_pair_fits``) to 1e-13 of the larger
    of 1 and the reference's magnitude.  On a sewn chart eta = sqrt(k) ds
    reaches the 2k pairs with s, 12 of 78 at k = 6."""
    for struct in reduced_structures:
        points = _points(struct, count=8, seed=11)
        fits = fit_nullity(struct, points)
        reference = full_pair_fits(struct, points)
        for got, want in zip((fits.kappa, fits.mu, fits.muprime, fits.residual), reference.T):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=REL * max(1.0, np.abs(want).max()))
    reached, unreached = _eta_pairs(reduced_structures[-1].eta)
    assert (len(reached[0]), unreached[0].tolist(), unreached[1].tolist()) == (2, [0], [2])
    assert np.abs(fit_nullity(reduced_structures[-1], _points(reduced_structures[-1])).residual).min() > 1e-3
    sewn_k6 = reduced_structures[len(standard_cells()) + 2]
    assert sewn_k6.dim == 13 and len(_eta_pairs(sewn_k6.eta)[0][0]) == 12


def test_contracted_reeb_norms_equal_the_full_nabla_phi(reduced_structures):
    """``reeb_layer`` reads |nabla_xi phi| and |nabla_xi xi| off
    ``xi^i Gamma^k_ij`` alone; they equal the norms read off the full nabla
    phi to 1e-13 of the larger of 1 and the reference's magnitude."""
    for struct in reduced_structures:
        points = _points(struct, count=8, seed=11)
        full = covariant_derivative_affinor(struct, points)
        for got, want in zip(reeb_layer(struct, points), (full.nabla_xi_phi_norm, full.nabla_xi_xi_norm)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=REL * max(1.0, np.abs(want).max()))
    generic = covariant_derivative_affinor(reduced_structures[-1], _points(reduced_structures[-1]))
    assert generic.nabla_xi_phi_norm.min() > 0.1 and generic.nabla_xi_xi_norm.min() > 0.1
    # a point gives what its row gives
    point = _points(reduced_structures[-1])[0]
    assert [float(v[0]) for v in reeb_layer(reduced_structures[-1], point[None])] == \
        list(reeb_layer(reduced_structures[-1], point))


def split_structure(xi=("0.5 + 0.1*t*a1", "0", "0", "0", "0", "0", "0")) -> ContactStructure:
    """A structure that meets no axiom on (t, a1, a2, a3, b1, b2, b3), which
    splits into the hub t and the blocks {a1, a2, a3} and {b1, b2, b3}:
    every entry reads t and one block at most, g_tt reads t alone, phi's t
    row and column are zero, xi lies on t and eta = 2 dt.  Its xi reads t
    and a block, so that nabla_xi xi has a nonzero hub component.  With
    components of ``xi`` off t the chart is one set."""
    names = ("t", "a1", "a2", "a3", "b1", "b2", "b3")
    chart = Chart(names, adapted_index=0)
    n = len(names)
    metric = [["0"] * n for _ in range(n)]
    phi = [["0"] * n for _ in range(n)]
    metric[0][0] = "2 + 0.5*sin(t)"
    for block, diagonal, coupling in (
            ((1, 2, 3), ("2 + a1^2*t", "1.5 + 0.3*cos(t*a2)", "2.5 + 0.5*a3^2"), "0.3*a2"),
            ((4, 5, 6), ("3 + b1^2", "2.5 + 0.2*t*b2", "2 + 0.1*b3*t"), "0.2*t + 0.1*b3")):
        for i, entry in zip(block, diagonal):
            metric[i][i] = entry
        for i, j in zip(block, block[1:]):
            metric[i][j] = metric[j][i] = coupling
            phi[i][j], phi[j][i] = f"-1 - 0.1*{names[j]}^2", f"1 + 0.2*t*{names[i]}"
        phi[block[0]][block[0]] = f"0.1*t*{names[block[-1]]}"
    return ContactStructure(
        "split", chart,
        metric=TensorField.build(chart, 0, 2, metric),
        phi=TensorField.build(chart, 1, 1, phi),
        xi=TensorField.build(chart, 1, 0, list(xi)),
        eta=TensorField.build(chart, 0, 1, ["2", "0", "0", "0", "0", "0", "0"]),
    )


def _written(struct, path):
    save_manifold(struct, path)
    return load_manifold(path)


def _coupled(path, copies, pairs):
    """The sewn model file of ``copies`` copies with g(x_b, x_b+1) = 0.1 for
    each b of ``pairs``, which couples blocks b and b + 1."""
    doc = structure_to_dict(sew([model_cosymplectic_cell(1.0)] * copies))
    for b in pairs:
        doc["metric"][2 * b - 1][2 * b + 1] = doc["metric"][2 * b + 1][2 * b - 1] = "0.1"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_manifold(path)


@pytest.fixture(scope="module")
def layout_structures(tmp_path_factory):
    """Every catalog cell, the files of each sewn with k = 2, 3, 6 and 16
    copies, the split structure with xi off t and on t alone, the sewn
    model file of k = 4 whose metric
    couples blocks 1 and 2 and blocks 3 and 4, and those of k = 3 whose
    metric couples two blocks and all three, with the sets of their layouts."""
    root = tmp_path_factory.mktemp("layouts")
    cells = standard_cells()
    structures = [(cell, None) for cell in cells]
    for c, cell in enumerate(cells):
        for k in (2, 3, 6, 16):
            sewn = _written(sew([cell] * k), root / f"{c}-{k}.json")
            # the halfspace metric couples s to every block, and 5 coordinates are one set
            sets = None if c == 3 or k == 2 else [[0, 2 * b + 1, 2 * b + 2] for b in range(k)]
            structures.append((sewn, sets))
    structures.append((split_structure(("0.5 + 0.1*t*a1", "0.2*a2*t", "sin(a1)", "0", "0.1*b2", "t*b3", "0.3*b1")),
                       None))
    structures.append((split_structure(), [[0, 1, 2, 3], [0, 4, 5, 6]]))
    structures.append((_coupled(root / "coupled-pairs.json", 4, (1, 3)), [[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]]))
    structures.append((_coupled(root / "coupled2.json", 3, (1,)), None))
    structures.append((_coupled(root / "coupled3.json", 3, (1, 2)), None))
    return structures


def test_layers_in_a_layout_give_what_the_full_grid_gives(layout_structures):
    """|nabla_xi phi|, |nabla_xi xi|, |nabla phi|, lambda, the weight fit
    residual and |N| per sample, from the layers in the sets of a star
    layout or on the whole chart, equal those of the same layers on the
    full grid within 1e-13 of max(1, |reference|) at each sample.  A chart
    splits as its layout says: the sewn cells into s and one block per copy
    but the halfspace's, whose metric couples s to the blocks; the split
    structure into two blocks of 3 coordinates, but into none when its xi
    has components off t; the sewn file of four copies
    whose metric couples blocks 1 and 2 and blocks 3 and 4 into two blocks
    of 4, and the file of three whose metric couples two blocks or all
    three into no blocks at all, since its blocks would be unequal or one;
    a sewn chart of two cells has too few coordinates to split."""
    for struct, sets in layout_structures:
        layout = struct.layout
        assert (layout.sets.tolist() if layout.hub else None) == sets, struct.name
        points = _points(struct, count=8, seed=11)
        for got, want in zip(verify_layers(struct, points), dense_verify_layers(struct, points)):
            assert got.shape == want.shape == (8,)
            assert np.all(np.abs(got - want) <= REL * np.maximum(1.0, np.abs(want))), struct.name
    # the split structure's nabla_xi xi has a hub component, and nabla_xi phi is not 0
    split = layout_structures[-4][0]
    hub, xi_phi = zip(*((abs(xi_xi[0]), np.abs(phi).max()) for _, phi, xi_xi in
                        (nabla_phi_reference(split, point) for point in _points(split, count=8, seed=11))))
    assert max(hub) > 0.05 and min(xi_phi) > 0.05


def _model_with_phi_yy(entry: str, path) -> ContactStructure:
    doc = structure_to_dict(model_cosymplectic_cell(0.8))
    doc["phi"][2][2] = entry
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_manifold(path)


def test_non_finite_samples_are_those_of_the_full_grid(tmp_path):
    """The model cell with phi^y_y NaN at every point, and with phi^y_y
    exp(400) exp(400 x), which overflows to inf where x > 0.77, and both
    sewn with k = 3 (split into s and three blocks): every output of the
    layers is NaN, infinite or finite at the samples where the full grid's
    is."""
    seen = set()
    for name, entry in (("nan", "exp(400)*exp(400)*0"), ("overflow", "exp(400)*exp(400*x)")):
        cell = _model_with_phi_yy(entry, tmp_path / f"{name}.json")
        for struct in (cell, _written(sew([cell] * 3), tmp_path / f"{name}-k3.json")):
            points = sample_points(struct.chart, 40, 3).coords
            with np.errstate(all="ignore"):
                pairs = list(zip(verify_layers(struct, points), dense_verify_layers(struct, points)))
            for got, want in pairs:
                np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
                np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
                finite = np.isfinite(want)
                assert np.all(np.abs(got[finite] - want[finite]) <= REL * np.maximum(1.0, np.abs(want[finite])))
                seen.add((name, struct.layout.hub, bool(finite.all()), bool(finite.any())))
    # non-finite everywhere, and at some samples only, on either layout
    assert {("nan", hub, False, False) for hub in (False, True)} <= seen
    assert {("overflow", hub, False, True) for hub in (False, True)} <= seen


@pytest.fixture(scope="module")
def sewn_files(tmp_path_factory):
    """(product, sewn file read back) of the model, warped and flat cells
    sewn with k = 2, 3, 6 and 16 copies, of the halfspace cell with 6
    (whose chart is one set, the control) and of the model cell with
    phi^y_y NaN at every point with 3."""
    root = tmp_path_factory.mktemp("per-set")
    flat, model, warped, halfspace = standard_cells()
    cases = [(cell, k) for cell in (model, warped, flat) for k in (2, 3, 6, 16)] + [(halfspace, 6)]
    cases.append((_model_with_phi_yy("exp(400)*exp(400)*0", root / "nan.json"), 3))
    return [(build_product([cell] * k), _written(sew([cell] * k), root / f"{c}.json"))
            for c, (cell, k) in enumerate(cases)]


def _same(got, want, name: str) -> None:
    """``got`` equals ``want`` within 1e-13 of max(1, |want|) entry by
    entry, and is NaN or infinite, of the same sign, where ``want`` is."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite, err_msg=name)
    np.testing.assert_array_equal(got[~finite], want[~finite], err_msg=name)
    assert np.all(np.abs(got[finite] - want[finite]) <= REL * np.maximum(1.0, np.abs(want[finite]))), name


def test_curvature_fits_and_stages_per_set_give_what_the_full_grid_gives(sewn_files):
    """On the sewn files, which split into s and one block per copy but at
    k = 2 (too few coordinates) and for the halfspace cell (its metric
    couples s to the blocks), per sample: R(e_i, e_j) xi per set against
    the dense ``einsum`` reference, which vanishes off the sets; kappa, mu,
    mu', the fit residual, |h| and ``determinate_mu`` against the fits over
    the design of every pair on the full grid; the Reeb norms against the
    full nabla phi; and the operator-law residuals of the theorem sweep and
    the extrinsic stage's residuals against the same sweep and stage on the
    full grid (``geometry_helpers.on_full_grid``).  Each within 1e-13 of
    max(1, |reference|), and NaN or infinite where the reference is: on the
    NaN-phi file every fit, h, Reeb norm and law is NaN."""
    splits, nan_seen = set(), set()
    for product, sewn in sewn_files:
        layout, dense = sewn.layout, on_full_grid(sewn)
        samples = sample_points(sewn.chart, 2, 5)
        points = samples.coords
        with np.errstate(all="ignore"):
            curvature = riemann(sewn.metric, points, sewn.xi.evaluate(points, layout), layout=layout)[1]
            fits, reference = fit_nullity(sewn, points), full_pair_fits(sewn, points)
            h_norms = np.abs(h_tensor(dense, points).h).max(axis=(-2, -1))
            reeb, dense_reeb = reeb_layer(sewn, points), dense_nabla_phi(sewn, points)[1:]
        xi = sewn.xi.evaluate(points)
        for p, point in enumerate(points[:1] if sewn.dim > 13 else points):  # the reference is O(n^5)
            full = np.einsum("lijk,k->lij", riemann_reference(sewn.metric, point), xi[p])
            _same(curvature[p], in_sets(layout, full, 3), sewn.name)
            assert np.abs(full[~set_mask(layout, 3)]).max(initial=0.0) <= REL * max(1.0, np.abs(full).max())
        for got, want in zip((fits.kappa, fits.mu, fits.muprime, fits.residual, fits.h_norm, *reeb),
                             (*reference.T, h_norms, *dense_reeb)):
            _same(got, want, sewn.name)
        assert fits.determinate_mu.tolist() == (~(h_norms <= H_DEGENERACY_THRESHOLD)).tolist()
        for p in range(len(samples)):
            one = samples[p:p + 1]
            laws = [[Residual(name, 1e-8) for name in OPERATOR_LAWS] for _ in range(2)]
            with np.errstate(all="ignore"):
                for struct, folded in zip((sewn, dense), laws):
                    classify_and_fit(struct, one, 1e-8, True, folded)
                stages = [extrinsic_report(product, struct, one, 1e-8).checks for struct in (sewn, dense)]
            _same([law.value for law in laws[0]], [law.value for law in laws[1]], sewn.name)
            _same([c.residual for c in stages[0]], [c.residual for c in stages[1]], sewn.name)
            nan_seen.add(bool(np.isnan([law.value for law in laws[0]]).all()))
        splits.add((sewn.dim, layout.hub))
    assert splits == {(5, False), (7, True), (13, True), (33, True), (13, False)}
    assert nan_seen == {False, True}


def _axiom_checks(struct, samples) -> list:
    """The axioms' checks of ``validate_structure`` in the structure's layout, each residual as its bytes."""
    report = validate_structure(struct, samples, 1e-8)
    return [(c.name, np.float64(c.residual).tobytes(), c.passed, c.note) for c in report.checks]


def test_axioms_in_the_sets_are_those_of_the_full_grid(layout_structures, tmp_path):
    """The structure axioms read in the sets of a star layout give the same
    checks, bit for bit, as on the full grid: on every split sewn catalog
    file (k = 3, 6 and 16) and on the sewn k = 3 files of the model cell
    with phi^y_y NaN at every point and infinite where x > 0.77, whose
    phi residuals are not finite."""
    structures = [struct for struct, sets in layout_structures
                  if sets is not None and sets == [[0, 2 * b + 1, 2 * b + 2] for b in range(len(sets))]]
    assert sorted(struct.dim for struct in structures) == [7] * 3 + [13] * 3 + [33] * 3
    for name, entry in (("nan", "exp(400)*exp(400)*0"), ("overflow", "exp(400)*exp(400*x)")):
        cell = _model_with_phi_yy(entry, tmp_path / f"{name}.json")
        structures.append(_written(sew([cell] * 3), tmp_path / f"{name}-k3.json"))
    seen = set()
    for struct in structures:
        assert struct.layout.hub
        samples = sample_points(struct.chart, 40, 3)
        checks = _axiom_checks(struct, samples)
        assert checks == _axiom_checks(on_full_grid(struct), samples), struct.name
        seen.add(all(passed for _, _, passed, _ in checks))
    assert seen == {True, False}


def _column(affinor: TensorField, a: int) -> TensorField:
    """The (1,0) field ``affinor(e_a)``."""
    return TensorField(affinor.chart, 1, 0, tuple(row[a] for row in affinor.components))


def test_bracket_of_affinor_columns(structures, model_cell, kenmotsu_cell):
    product = build_product([model_cell, kenmotsu_cell])
    median = product_median(product)
    for f, w in [(s.phi, s.xi) for s in structures] + [(product.f, median)]:
        n = f.chart.dim
        points = sample_points(f.chart, 3, 5).coords
        pairs = lie_bracket(f, f, points)
        with_w = lie_bracket(f, w, points)
        assert pairs.shape == (3, n, n, n) and with_w.shape == (3, n, n)
        columns = [_column(f, a) for a in range(n)]
        for p, point in enumerate(points):
            for a in range(n):
                assert_rows_match(with_w[p, :, a], lie_bracket(columns[a], w, point))
                for b in range(n):
                    assert_rows_match(pairs[p, :, a, b], lie_bracket(columns[a], columns[b], point))


class TestSewMemory:
    @pytest.fixture
    def cell_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_manifold(model_cosymplectic_cell(1.0), "model.json")
        save_manifold(kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0), "warped.json")

    def test_every_curvature_batch_fits_the_budget(self, cell_files, monkeypatch):
        # a sweep has two sizes.  Its layer batches: the curvature reads every Hessian
        # stack through contractions per sample, (n, n, n) on the full grid and K
        # (w, w, w) in a star layout, and its fold holds two entries per Hessian entry
        # and set.  Its program chunks: a field's program runs on whole batches whose
        # compact jets fit the budget, or on one batch
        original = TensorField.evaluate_with_jets
        stacks, runs = [], []

        def spy(field, point, hessians=True, layout=None):
            if hessians:
                width = field.chart.dim ** 3 if layout is None else layout.width
                stacks.append((np.shape(point), max(width, field._fold_plan(layout)[2].size)))
            return original(field, point, hessians, layout)

        run = TensorField._run

        def counted_run(field, point, order):
            compact = run(field, point, order)
            runs.append((np.shape(point), sum(array.nbytes for array in compact)))
            return compact

        monkeypatch.setattr(TensorField, "evaluate_with_jets", spy)
        monkeypatch.setattr(TensorField, "_run", counted_run)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sew", "warped.json", "--copies", "4", "--out", "out.json"]) == cli.EXIT_PASS
        dims = {shape[-1] for shape, _ in stacks}
        # the cells and the product's blocks, and the sewn manifold; never the 12-dim product chart
        assert dims == {3, 9} and {shape[-1] for shape, _ in runs} == dims
        for shape, width in stacks:
            count = shape[0] if len(shape) == 2 else 1
            assert count == 1 or count * 8 * width <= BATCH_BYTES, shape
        layout = load_manifold("out.json").layout
        for shape, nbytes in runs:
            count = shape[0] if len(shape) == 2 else 1
            assert count <= batch_size(shape[-1], layout=layout if shape[-1] == 9 else None) or nbytes <= BATCH_BYTES
        # the sewn chart splits into s and four blocks: its 25 samples make one batch, of
        # up to 151 samples in the sets (22 on the full grid), and one chunk
        assert layout.sets.shape == (4, 3) and layout.width == 4 * 3 ** 3
        assert batch_size(9) == 22 and batch_size(9, layout=layout) == 151
        assert (25, 9) in {shape for shape, _ in runs}

    @pytest.mark.parametrize("cell, copies, limit", [("warped", 4, 1.38e6), ("model", 6, 5.10e6)])
    def test_peak_stays_below_the_point_by_point_stages(self, cell_files, cell, copies, limit):
        # the limits are the tracemalloc peaks of the stages when they ran point by point
        argv = ["sew", f"{cell}.json", "--copies", str(copies), "--out", "out.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)  # warm: the peak below is the command's own, not the first import's
            tracemalloc.start()
            try:
                assert cli.main(argv) == cli.EXIT_PASS
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= limit


def test_nullity_keeps_its_fits_per_set(tmp_path, monkeypatch):
    """``nullity --points 500`` on the sewn model file of 16 copies: the
    sweep keeps each sample's h and h' as (16, 3, 3) arrays of its sets,
    not (33, 33), and its curvature runs per set.  The limit is the
    tracemalloc peak measured with the fits per set, 3.50e6 bytes, plus
    about 15%; on the full grid the same command peaked at 18.8e6 (and
    76.1e6 at 2000 points)."""
    monkeypatch.chdir(tmp_path)
    save_manifold(sew([model_cosymplectic_cell(1.0)] * 16), "sewn.json")
    argv = ["nullity", "sewn.json", "--points", "500"]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)  # warm: the peak below is the command's own
        tracemalloc.start()
        try:
            assert cli.main(argv) == cli.EXIT_PASS
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4.02e6


class TestVerifyMemory:
    @pytest.mark.parametrize("cell, limit", [("model", 1.40e6), ("halfspace", 2.50e6)])
    def test_layout_sized_batches_stay_within_the_budget(self, cell, limit, tmp_path, monkeypatch):
        """``verify --points 100`` on the sewn file of 16 copies: the model
        chart's batches are sized by its layout, whose largest array of a
        sample is a (16, 3, 3, 3) array of its sets (37 samples), and the
        halfspace chart's by its full grid (one sample, a (33, 33, 33)
        array).  The limits are the tracemalloc peaks measured when the
        model's batches held 15 samples, sized by the (33, 33) metric that
        the axioms read in the full grid, and the halfspace's one, 1.20e6
        and 2.16e6 bytes, plus about 15%; verify on the full grid took 2.09e6
        and 2.30e6, and the model's batches of 37 peak at about 1.35e6."""
        monkeypatch.chdir(tmp_path)
        build = model_cosymplectic_cell(1.0) if cell == "model" else halfspace_kenmotsu_cell()
        save_manifold(sew([build] * 16), "sewn.json")
        argv = ["verify", "sewn.json", "--points", "100"]
        layout = load_manifold("sewn.json").layout
        assert batch_size(33, layout=layout) == (37 if cell == "model" else 1)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)  # warm: the peak below is the command's own
            tracemalloc.start()
            try:
                assert cli.main(argv) == cli.EXIT_PASS
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= limit
