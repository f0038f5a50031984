"""The traced benchmark wraps package functions by name; every name must resolve.

``perfbench/run.py --trace 1`` rebinds each entry of ``perfbench/spans.py``
``FUNCTIONS`` and exits 1 when a wrapped layer never runs, so a rename in the
package would first show up as a failed benchmark run.  These tests fail first:
one resolves every name, one runs the tracer around a short command of each kind.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up the module of their class
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(_load("spans").FUNCTIONS))
def test_traced_function_resolves(name):
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"sewcells.{module_name}")
    owner, _, method = attr.rpartition(".")
    if owner:
        target = vars(getattr(module, owner)).get(method)
    else:
        target = getattr(module, attr, None)
    assert callable(target), f"{name} does not name a function in sewcells"


def test_traced_commands_run_every_predicted_layer(tmp_path, monkeypatch):
    import numpy as np

    from sewcells import cli, geometry
    from sewcells.catalog import model_cosymplectic_cell
    from sewcells.charts import nullity_samples, sample_points
    from sewcells.manifold_io import load_manifold, save_manifold

    spans, workloads = _load("spans"), _load("workloads")
    monkeypatch.chdir(tmp_path)
    save_manifold(model_cosymplectic_cell(1.0), "model.json")
    commands = [
        ["verify", "model.json"],
        ["nullity", "model.json"],
        ["sew", "model.json", "--copies", "2", "--points", "5", "--out", "sewn.json"],
    ]
    # The tracer keys a call by the whole stack it receives, so the spy counts
    # nabla-phi rows at a (structure, point) already seen in the same command.
    original = geometry.covariant_derivative_affinor
    seen: set = set()
    structures = []  # keeps the ids in ``seen`` from being reused
    repeats = []

    def spy(struct, points, **kwargs):
        structures.append(struct)
        for row in np.atleast_2d(points):
            key = (id(struct), row.tobytes())
            repeats[-1] += key in seen
            seen.add(key)
        return original(struct, points, **kwargs)

    monkeypatch.setattr(geometry, "covariant_derivative_affinor", spy)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for index, argv in enumerate(commands):
            tracer.begin_command(index)
            seen.clear()
            repeats.append(0)
            assert cli.main(argv) == cli.EXIT_PASS, argv
    finally:
        tracer.uninstall()

    for name, workload in workloads.WORKLOADS.items():
        missing = workload.exercised - tracer.called()
        assert not missing, f"{name}: predicted layers never called: {sorted(missing)}"
    # sew draws its plain and its grouped samples from one seed, so the two sets
    # share their group-leading points; nabla phi runs at the grouped ones only,
    # since the induced stage reads nabla_xi phi and nabla_xi xi off xi Gamma
    chart = load_manifold("sewn.json").chart
    shared = ({tuple(point) for point in sample_points(chart, 5, 7).coords.tolist()}
              & {tuple(point) for point in nullity_samples(chart, 5, 7).coords.tolist()})
    assert shared and repeats == [0, 0, 0]
