import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sewcells
from sewcells.catalog import flat_cosymplectic_cell, model_cosymplectic_cell
from sewcells.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from sewcells.charts import sample_points
from sewcells.manifold_io import load_manifold, save_manifold, structure_to_dict


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_manifold(model_cosymplectic_cell(1.0), path)
    return path


@pytest.fixture
def flat_file(tmp_path):
    path = tmp_path / "flat.json"
    save_manifold(flat_cosymplectic_cell(), path)
    return path


class TestVerify:
    def test_model_cell_passes(self, model_file, capsys):
        assert main(["verify", str(model_file)]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "almost cosymplectic" in out
        assert "PASS" in out and "FAIL" not in out

    def test_asymmetric_metric_is_an_input_error(self, tmp_path, capsys):
        doc = structure_to_dict(flat_cosymplectic_cell())
        doc["metric"][0][1] = "x"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_INPUT
        assert "metric[0][1]" in capsys.readouterr().err

    def test_broken_structure_fails_verification(self, tmp_path, capsys):
        doc = structure_to_dict(flat_cosymplectic_cell())
        doc["phi"][1][2] = "1"  # breaks phi^2 = -Id + eta (x) xi
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_is_an_input_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_json_report_is_byte_stable(self, model_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["verify", str(model_file), "--json", str(out1)]) == EXIT_PASS
        assert main(["verify", str(model_file), "--json", str(out2)]) == EXIT_PASS
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert report["tool"]["name"] == "sewcells"
        assert "timing" not in json.dumps(report)


class TestNullity:
    def test_model_cell_table(self, model_file, capsys):
        assert main(["nullity", str(model_file)]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "-1" in out
        assert "constant_kappa: True" in out
        assert "eta_aligned: True" in out

    def test_flat_cell_flags_undetermined(self, flat_file, capsys):
        assert main(["nullity", str(flat_file)]) == EXIT_PASS
        assert "mu undetermined" in capsys.readouterr().out

    def test_halfspace_kenmotsu_convention(self, tmp_path, capsys):
        from sewcells.catalog import halfspace_kenmotsu_cell

        path = tmp_path / "halfspace.json"
        save_manifold(halfspace_kenmotsu_cell(), path)
        assert main(["verify", str(path)]) == EXIT_PASS
        assert "alpha = 1.0" in capsys.readouterr().out
        assert main(["nullity", str(path), "--convention", "kenmotsu"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "kenmotsu-h'" in out
        assert "constant_kappa: False" in out
        assert "eta_aligned: True" in out

    def test_sewn_halfspace_nullity_table(self, tmp_path, capsys):
        from sewcells.catalog import halfspace_kenmotsu_cell

        path = tmp_path / "halfspace.json"
        save_manifold(halfspace_kenmotsu_cell(), path)
        out_file = tmp_path / "sewn.json"
        assert main(["sew", str(path), "--copies", "2", "--out", str(out_file), "--points", "10"]) == EXIT_PASS
        capsys.readouterr()
        assert main(["nullity", str(out_file), "--points", "10"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "constant_kappa: False" in out
        assert "eta_aligned: True" in out

    def test_kenmotsu_convention_rejected_for_cosymplectic(self, model_file, capsys):
        assert main(["nullity", str(model_file), "--convention", "kenmotsu"]) == EXIT_INPUT

    def test_unadapted_file_gets_plain_fits(self, tmp_path, capsys):
        doc = structure_to_dict(flat_cosymplectic_cell())
        doc["adapted_coordinate"] = None
        path = tmp_path / "unadapted.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["nullity", str(path), "--points", "6"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "constant_kappa" not in out  # no grouping without an adapted chart


class TestSew:
    def test_model_pair_full_pipeline(self, model_file, tmp_path, capsys):
        out_file = tmp_path / "sewn.json"
        report_file = tmp_path / "report.json"
        code = main([
            "sew", str(model_file), "--copies", "2", "--out", str(out_file),
            "--points", "10", "--json", str(report_file),
        ])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "kappa -> kappa/2" in out
        sewn = load_manifold(out_file)
        assert sewn.dim == 5

        # re-verification of the emitted file reproduces the residual tables
        r1 = tmp_path / "v1.json"
        r2 = tmp_path / "v2.json"
        assert main(["verify", str(out_file), "--points", "10", "--json", str(r1)]) == EXIT_PASS
        assert main(["verify", str(out_file), "--points", "10", "--json", str(r2)]) == EXIT_PASS
        assert r1.read_bytes() == r2.read_bytes()

    def test_copies_must_be_at_least_two(self, model_file, tmp_path):
        assert main(["sew", str(model_file), "--copies", "1", "--out", str(tmp_path / "x.json")]) == EXIT_INPUT
        assert not (tmp_path / "x.json").exists()

    def test_sewing_a_sewn_file_is_an_input_error(self, model_file, tmp_path):
        out_file = tmp_path / "sewn.json"
        assert main(["sew", str(model_file), "--copies", "2", "--out", str(out_file), "--points", "6"]) == EXIT_PASS
        assert main(["sew", str(out_file), "--copies", "2", "--out", str(tmp_path / "y.json")]) == EXIT_INPUT


COMMANDS = pytest.mark.parametrize(
    "command",
    [["verify"], ["nullity"], ["sew", "--copies", "2", "--out", "sewn.json"]],
    ids=["verify", "nullity", "sew"],
)


NAN_PHI_ENTRY = "exp(400)*exp(400)*0"  # inf * 0: a NaN component at every point


@COMMANDS
def test_nan_phi_fails_every_command(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(model_cosymplectic_cell(1.0))
    doc["phi"][1][1] = NAN_PHI_ENTRY
    Path("nan.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [command[0], "nan.json", *command[1:], "--points", "6", "--json", "report.json"]
    assert main(argv) == EXIT_FAIL
    report = json.loads(Path("report.json").read_text(encoding="utf-8"))
    assert report["passed"] is False
    subject = report["subjects"][0]
    checks = subject.get("checks") or subject["sections"]["induced structure axioms"]
    phi_square = next(c for c in checks if c["name"] == "phi_square_identity")
    assert phi_square["passed"] is False and math.isnan(phi_square["residual"])
    captured = capsys.readouterr()
    assert "FAIL  phi_square_identity" in captured.out
    assert "RuntimeWarning" not in captured.err


def test_domain_error_names_the_first_failing_sample(tmp_path, monkeypatch, capsys):
    """A metric entry defined only for x > 0, on a file without that domain."""
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(model_cosymplectic_cell(1.0))
    doc["metric"][0][0] = "0*log(x) + 1"
    Path("partial.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "partial.json", "--points", "40"]) == EXIT_FAIL
    struct = load_manifold("partial.json")
    x = struct.chart.index_of("x")
    first = next(s for s in sample_points(struct.chart, 40, 7) if s.coords[x] <= 0.0)
    err = capsys.readouterr().err
    assert f"verification error: evaluation failed at sample {first.coords}: log of non-positive" in err


def test_closed_stdout_exits_quietly(tmp_path, model_file):
    """``sewcells nullity cell.json | head -2``: the reader goes away before the output."""
    env = dict(os.environ, PYTHONPATH=str(Path(sewcells.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sewcells.cli", "nullity", str(model_file), "--points", "200"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=120, text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_FAIL
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


@COMMANDS
@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_is_a_usage_error(command, points, model_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [command[0], str(model_file), *command[1:], "--points", points, "--json", "report.json"]
    assert main(argv) == EXIT_INPUT
    assert "--points: must be at least 1" in capsys.readouterr().err
    assert not Path("sewn.json").exists() and not Path("report.json").exists()


@COMMANDS
def test_unsampleable_domain_is_an_input_error(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(model_cosymplectic_cell(1.0))
    doc["domain"] = ["x > 5"]  # the sampling box of x is [-1, 1]
    Path("far.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main([command[0], "far.json", *command[1:], "--json", "report.json"]) == EXIT_INPUT
    assert "input error: no in-domain point" in capsys.readouterr().err
    assert not Path("sewn.json").exists() and not Path("report.json").exists()


class TestCatalogCommand:
    def test_export_and_verify(self, tmp_path):
        path = tmp_path / "kenmotsu.json"
        code = main([
            "catalog", "kenmotsu_warped", "--param", "alpha=1", "--param", "kappa0=-2",
            "--out", str(path),
        ])
        assert code == EXIT_PASS
        assert main(["verify", str(path)]) == EXIT_PASS

    def test_unknown_entry(self, tmp_path):
        assert main(["catalog", "nope", "--out", str(tmp_path / "x.json")]) == EXIT_INPUT

    def test_bad_parameter(self, tmp_path):
        assert main(["catalog", "model_cosymplectic", "--param", "lam=zero", "--out", str(tmp_path / "x.json")]) == EXIT_INPUT
        assert main(["catalog", "model_cosymplectic", "--param", "lam=-1", "--out", str(tmp_path / "x.json")]) == EXIT_INPUT
