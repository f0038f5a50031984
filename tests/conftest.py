import pytest

from sewcells.catalog import (
    flat_cosymplectic_cell,
    halfspace_kenmotsu_cell,
    kenmotsu_warped_cell,
    model_cosymplectic_cell,
    standard_cells,
)
from sewcells.charts import nullity_samples, sample_points
from sewcells.sewing import build_product, sew


@pytest.fixture(scope="session")
def flat_cell():
    return flat_cosymplectic_cell()


@pytest.fixture(scope="session")
def model_cell():
    return model_cosymplectic_cell(1.0)


@pytest.fixture(scope="session")
def kenmotsu_cell():
    return kenmotsu_warped_cell(alpha=1.0, kappa0=-2.0)


@pytest.fixture(scope="session")
def halfspace_cell():
    return halfspace_kenmotsu_cell()


@pytest.fixture(scope="session")
def catalog_cells():
    return standard_cells()


@pytest.fixture(scope="session")
def sewing_inputs():
    """What ``sew`` hands its stages: ``build(cells, count, seed=7)`` returns the
    product, the sewn manifold, its plain samples (induced and extrinsic
    checks) and its grouped nullity samples (theorem checks)."""
    def build(cells, count, seed=7):
        sewn = sew(cells)
        return (build_product(cells), sewn, sample_points(sewn.chart, count, seed),
                nullity_samples(sewn.chart, count, seed))
    return build
