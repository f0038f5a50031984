import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sewcells
from sewcells.catalog import flat_cosymplectic_cell, model_cosymplectic_cell
from sewcells.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from sewcells.charts import sample_points
from sewcells.expressions import ExpressionError
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

    def test_sewn_nullity_runs_each_program_once_per_sweep(self, tmp_path, monkeypatch, capsys):
        """``nullity`` of the sewn halfspace k = 4 file: on its 9 dimensions the
        25 samples make 2 batches of the Hessian fold in one chunk, and one
        sweep takes the axioms, ``classify``'s layers and the fits.  So the
        metric's program runs once, at order 2, and phi's and xi's once, at
        order 1, where a sweep for the axioms and another for the fits made
        two runs each, and a run per batch four."""
        import sewcells.charts as charts
        import sewcells.cli as cli
        from sewcells.catalog import halfspace_kenmotsu_cell
        from sewcells.charts import batch_size
        from sewcells.sewing import sew

        path = tmp_path / "sewn.json"
        save_manifold(sew([halfspace_kenmotsu_cell()] * 4), path)
        loaded, load = [], cli.load_manifold
        monkeypatch.setattr(cli, "load_manifold", lambda *args: loaded.append(load(*args)) or loaded[-1])
        runs, jet = [], charts.evaluate_jet2

        def spy(program, point, index=None, order=2):
            runs.append((id(program), order))
            return jet(program, point, index, order)

        monkeypatch.setattr(charts, "evaluate_jet2", spy)
        assert main(["nullity", str(path)]) == EXIT_PASS
        (struct,) = loaded
        assert batch_size(9) == batch_size(9, (struct.metric,)) == 22
        orders = {name: Counter(order for program, order in runs if program == id(field._plan.program))
                  for name, field in (("g", struct.metric), ("phi", struct.phi), ("xi", struct.xi))}
        assert orders == {"g": {2: 1}, "phi": {1: 1}, "xi": {1: 1}}

    @pytest.mark.parametrize("cell, determinate", [("flat", False), ("halfspace", True)])
    def test_json_table_holds_json_bools(self, cell, determinate, tmp_path, capsys):
        """The table is built from the fits' columns as Python numbers: every
        ``determinate_mu`` is a JSON bool, also on the flat cell, where h = 0."""
        from sewcells.catalog import halfspace_kenmotsu_cell

        path, report_file = tmp_path / "cell.json", tmp_path / "report.json"
        save_manifold(flat_cosymplectic_cell() if cell == "flat" else halfspace_kenmotsu_cell(), path)
        assert main(["nullity", str(path), "--json", str(report_file)]) == EXIT_PASS
        [subject] = json.loads(report_file.read_text(encoding="utf-8"))["subjects"]
        table = subject["nullity_table"]
        assert len(table) == 25 and all(row["determinate_mu"] is determinate for row in table)
        assert all(type(row[key]) is float for row in table for key in ("kappa", "mu", "muprime", "h_norm"))

    def test_kenmotsu_convention_rejected_for_cosymplectic(self, model_file, capsys):
        assert main(["nullity", str(model_file), "--convention", "kenmotsu"]) == EXIT_INPUT

    def test_rejected_kenmotsu_convention_still_writes_the_report(self, model_file, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        argv = ["nullity", str(model_file), "--convention", "kenmotsu", "--json", str(report_file)]
        assert main(argv) == EXIT_INPUT
        assert "needs an almost alpha-Kenmotsu structure" in capsys.readouterr().out
        report = json.loads(report_file.read_text(encoding="utf-8"))
        assert report["passed"] is False
        [subject] = report["subjects"]
        assert subject["passed"] is False
        assert subject["classification"]["kind"] == "almost_cosymplectic"
        assert subject["classification"]["alpha"] is None

    def test_unadapted_file_gets_plain_fits(self, tmp_path, capsys):
        doc = structure_to_dict(flat_cosymplectic_cell())
        doc["adapted_coordinate"] = None
        path = tmp_path / "unadapted.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["nullity", str(path), "--points", "6"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "constant_kappa" not in out  # no grouping without an adapted chart


class TestNullityFitError:
    """A degenerate fit (``nullity.NullityFitError``) is a verification
    error: exit 1 with one ``verification error:`` line, no traceback.  A
    failing axiom outranks it: ``nullity`` fits in the same sweep as the
    axioms, and still reports the failing axioms alone."""

    MESSAGE = "degenerate nullity fit (rank 2) with |h| = 1.000e+00"

    @pytest.fixture
    def raising(self, monkeypatch):
        from sewcells import nullity

        calls = []

        def solve(*args):
            calls.append(len(args[0]))
            raise nullity.NullityFitError(self.MESSAGE)

        monkeypatch.setattr(nullity, "_solve_stack", solve)
        return calls

    @pytest.mark.parametrize("command", [["nullity"], ["sew", "--copies", "2", "--out", "sewn.json"]],
                             ids=["nullity", "sew"])
    def test_is_a_verification_error(self, command, raising, tmp_path, monkeypatch, capsys):
        from sewcells.catalog import halfspace_kenmotsu_cell

        monkeypatch.chdir(tmp_path)
        save_manifold(halfspace_kenmotsu_cell(), "halfspace.json")
        assert main([command[0], "halfspace.json", *command[1:], "--json", "report.json"]) == EXIT_FAIL
        assert raising and capsys.readouterr().err.splitlines() == [f"verification error: {self.MESSAGE}"]
        assert not Path("report.json").exists()

    def test_failing_axioms_outrank_it(self, tmp_path, monkeypatch, capsys):
        """phi^y_y = 0.5 on the model cell breaks phi^2 = -Id + xi (x) eta
        but keeps the metric positive definite, so the sweep fits, and the
        fit raises; the command still prints the axioms' table and writes
        the report it writes without the error."""
        from sewcells import nullity

        monkeypatch.chdir(tmp_path)
        doc = structure_to_dict(model_cosymplectic_cell(1.0))
        doc["phi"][2][2] = "0.5"
        Path("broken.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["nullity", "broken.json", "--json", "report.json"]
        assert main(argv) == EXIT_FAIL
        plain, plain_report = capsys.readouterr().out, Path("report.json").read_bytes()
        calls = []

        def raising(*args):
            calls.append(len(args[0]))
            raise nullity.NullityFitError(self.MESSAGE)

        monkeypatch.setattr(nullity, "_solve_stack", raising)
        assert main(argv) == EXIT_FAIL
        captured = capsys.readouterr()
        assert calls == [25] and captured.err == ""
        assert "FAIL  phi_square_identity" in captured.out
        assert "structure axioms fail; nullity fit skipped" in captured.out
        assert captured.out.splitlines()[:-1] == plain.splitlines()[:-1]  # all but the elapsed time
        assert Path("report.json").read_bytes() == plain_report
        report = json.loads(plain_report)
        assert report["passed"] is False and "nullity_table" not in report["subjects"][0]


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

    def test_eight_copies(self, model_file, tmp_path, capsys):
        out_file = tmp_path / "sewn.json"
        assert main(["sew", str(model_file), "--copies", "8", "--out", str(out_file)]) == EXIT_PASS
        assert load_manifold(out_file).dim == 17

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


@COMMANDS
def test_singular_metric_stops_after_the_axioms(command, tmp_path, monkeypatch, capsys):
    """No connection without an invertible metric: the axioms run first, and a
    metric that is not positive definite ends the command with its report."""
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(flat_cosymplectic_cell())
    doc["metric"][1][1] = "0"
    Path("singular.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [command[0], "singular.json", *command[1:], "--json", "report.json"]
    assert main(argv) == EXIT_FAIL
    report = json.loads(Path("report.json").read_text(encoding="utf-8"))
    assert report["passed"] is False
    subject = report["subjects"][0]
    checks = subject.get("checks") or subject["sections"]["induced structure axioms"]
    assert {c["name"]: c["passed"] for c in checks}["metric_positive_definite"] is False
    captured = capsys.readouterr()
    assert "FAIL  metric_positive_definite" in captured.out
    assert "Traceback" not in captured.err and "Error" not in captured.err


@COMMANDS
@pytest.mark.parametrize("zero", ["phi", "eta"])
def test_vanishing_eta_wedge_phi_fails_with_a_report(command, zero, tmp_path, monkeypatch, capsys):
    """With phi = 0 or eta = 0, eta ^ Phi vanishes and the weight fit has no
    weight: it gives NaN, the checks fail and the command writes its report.
    ``sew`` refuses the eta = 0 cell as not adapted."""
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(model_cosymplectic_cell(1.0))
    doc[zero] = [["0"] * 3] * 3 if zero == "phi" else ["0"] * 3
    Path("zero.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [command[0], "zero.json", *command[1:], "--json", "report.json"]
    refused = command[0] == "sew" and zero == "eta"
    assert main(argv) == (EXIT_INPUT if refused else EXIT_FAIL)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    if refused:
        assert "not adapted" in captured.err
        return
    subject = json.loads(Path("report.json").read_text(encoding="utf-8"))["subjects"][0]
    assert subject["passed"] is False
    if command[0] == "verify":
        assert math.isnan(next(c for c in subject["checks"] if c["name"] == "weight_fit_residual")["residual"])
        assert subject["classification"]["kind"] == "none"


def test_domain_error_names_the_first_failing_sample(tmp_path, monkeypatch, capsys):
    """A metric entry defined only for x > 0, on a file without that domain."""
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(model_cosymplectic_cell(1.0))
    doc["metric"][0][0] = "0*log(x) + 1"
    Path("partial.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "partial.json", "--points", "40"]) == EXIT_FAIL
    struct = load_manifold("partial.json")
    x = struct.chart.index_of("x")
    first = next(point for point in sample_points(struct.chart, 40, 7).coords if point[x] <= 0.0)
    err = capsys.readouterr().err
    assert f"verification error: evaluation failed at sample {tuple(first.tolist())}: log of non-positive" in err


@pytest.mark.parametrize("command", [["verify"], ["nullity"], ["sew", "--copies", "2", "--out", "sewn.json"]],
                         ids=["verify", "nullity", "sew"])
def test_domain_error_in_a_later_batch_of_a_chunk(command, tmp_path, monkeypatch, capsys):
    """The flat cell with 1 + 0*log(x + 0.999) on its metric diagonal leaves
    its domain only where x <= -0.999.  At 3000 points and seed 7 the first
    such sample is past the first batch of the chunk it lies in, so the chunk's
    program run raises, and the batches evaluated alone name that sample, as
    the samples evaluated one at a time in draw order find it."""
    from sewcells.charts import batch_size, chunk_size, nullity_samples
    from sewcells.sewing import sew

    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(flat_cosymplectic_cell())
    doc["metric"][1][1] = "1 + 0*log(x + 0.999)"
    Path("late.json").write_text(json.dumps(doc), encoding="utf-8")
    struct = load_manifold("late.json")
    if command[0] == "sew":
        struct = sew([struct] * 2)
    draw = nullity_samples if command[0] == "nullity" else sample_points
    fields = (struct.eta, struct.metric, struct.phi, struct.xi)  # in the order the axioms evaluate them
    for index, point in enumerate(draw(struct.chart, 3000, 7).coords):
        try:
            for field in fields:
                field.evaluate_with_grads(point)
        except ExpressionError as exc:
            error = exc
            break
    else:
        pytest.fail("no sample leaves the domain")
    size = batch_size(struct.dim)
    assert size <= index < chunk_size(size, [(field, 1) for field in fields])
    assert main([command[0], "late.json", *command[1:], "--points", "3000"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.splitlines() == [f"verification error: evaluation failed at sample {tuple(point.tolist())}: {error}"]
    assert str(error).startswith("log of non-positive argument")


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


@pytest.mark.parametrize("argv", [
    ["verify", "blocked"],
    ["sew", "cell.json", "--copies", "2", "--out", "blocked"],
    ["catalog", "flat_cosymplectic", "--out", "blocked"],
    ["verify", "cell.json", "--json", "blocked"],
    ["sew", "cell.json", "--copies", "2", "--out", "sewn.json", "--json", "blocked"],
    ["verify", "cell.json", "--json", "missing/report.json"],
], ids=["verify-input", "sew-out", "catalog-out", "verify-json", "sew-json", "verify-json-parent"])
def test_directory_path_is_an_input_error(argv, tmp_path, monkeypatch, capsys):
    """A directory where a file is read or written exits 2 without a traceback.
    An unusable ``--json`` path is refused before the command runs: no check
    is printed and ``sew`` writes no definition file."""
    monkeypatch.chdir(tmp_path)
    save_manifold(flat_cosymplectic_cell(), "cell.json")
    Path("blocked").mkdir()
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert "input error" in err and "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out
    assert not Path("sewn.json").exists()


@COMMANDS
@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_is_a_usage_error(command, points, model_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [command[0], str(model_file), *command[1:], "--points", points, "--json", "report.json"]
    assert main(argv) == EXIT_INPUT
    assert "--points: must be at least 1" in capsys.readouterr().err
    assert not Path("sewn.json").exists() and not Path("report.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["sew", "--copies", "17", "--out", "sewn.json"], "--copies: must be at most 16, got 17"),
    (["sew", "--copies", str(10**12), "--out", "sewn.json"], f"--copies: must be at most 16, got {10**12}"),
    (["sew", "--copies", "2", "--out", "sewn.json", "--points", "10001"], "--points: must be at most 10000, got 10001"),
    (["verify", "--points", str(10**15)], f"--points: must be at most 10000, got {10**15}"),
    (["nullity", "--points", str(10**15)], f"--points: must be at most 10000, got {10**15}"),
], ids=["copies-17", "copies-huge", "sew-points", "verify-points", "nullity-points"])
def test_huge_counts_are_usage_errors(argv, message, model_file, tmp_path, monkeypatch, capsys):
    """Rejected while parsing: nothing is sampled, sewn or written."""
    import sewcells.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a rejected count reached the command")

    monkeypatch.chdir(tmp_path)
    for name in ("load_manifold", "sample_points", "nullity_samples", "sew", "build_product"):
        monkeypatch.setattr(cli, name, refuse)
    full = [argv[0], str(model_file), *argv[1:], "--json", "report.json"]
    assert main(full) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "usage:" in err and message in err
    assert not Path("sewn.json").exists() and not Path("report.json").exists()


def test_largest_counts_parse(model_file):
    from sewcells.cli import MAX_COPIES, MAX_POINTS, build_parser

    argv = ["sew", str(model_file), "--copies", "16", "--out", "sewn.json", "--points", "10000"]
    args = build_parser().parse_args(argv)  # parsed only: a run at these counts takes minutes
    assert (args.copies, args.points) == (MAX_COPIES, MAX_POINTS) == (16, 10_000)


@COMMANDS
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_not_negative(command, tol, model_file, tmp_path, monkeypatch, capsys):
    """A NaN or negative tolerance fails every check of a valid cell, and an
    infinite one passes every check of a broken one: all are usage errors."""
    monkeypatch.chdir(tmp_path)
    argv = [command[0], str(model_file), *command[1:], "--tol", tol, "--json", "report.json"]
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert "usage:" in err and f"--tol: must be a finite number at least 0, got {tol}" in err
    assert "Traceback" not in err and not out
    assert not Path("sewn.json").exists() and not Path("report.json").exists()


def test_zero_tolerance_is_accepted(model_file, capsys):
    from sewcells.cli import build_parser

    assert build_parser().parse_args(["verify", str(model_file), "--tol", "0"]).tol == 0.0
    # roundoff residuals fail against 0, but the command runs
    assert main(["verify", str(model_file), "--tol", "0"]) in (EXIT_PASS, EXIT_FAIL)
    assert "usage:" not in capsys.readouterr().err


DEEP_ENTRIES = pytest.mark.parametrize(
    "key, index, src",
    [("metric", 1, "(" * 300 + "1" + ")" * 300), ("metric", 1, "+".join(["t"] * 5000)), ("phi", 0, "-" * 3000 + "t")],
    ids=["parentheses", "sum", "minus"],
)


@COMMANDS
@DEEP_ENTRIES
def test_deeply_nested_entries_are_input_errors(command, key, index, src, tmp_path, monkeypatch, capsys):
    """An entry nested deeper than the parser or the walks over its tree can
    recurse is refused when the file loads, with no traceback."""
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(model_cosymplectic_cell(1.0))
    doc[key][index][index] = src
    Path("deep.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main([command[0], "deep.json", *command[1:], "--json", "report.json"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: " in err and "nested" in err and "Traceback" not in err
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


@COMMANDS
@pytest.mark.parametrize("entry", ["exp(400)*exp(400)*0", "exp(400)*exp(400)"], ids=["nan", "inf"])
def test_non_finite_metric_fails_positive_definiteness(command, entry, tmp_path, monkeypatch, capsys):
    """A NaN or infinite metric entry fails ``metric_positive_definite`` with
    a report: no eigenvalue is taken of it (LAPACK need not converge there),
    and the axioms' arithmetic on it warns of nothing."""
    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(model_cosymplectic_cell(1.0))
    doc["metric"][1][1] = entry
    Path("metric.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [command[0], "metric.json", *command[1:], "--points", "6", "--json", "report.json"]
    assert main(argv) == EXIT_FAIL
    subject = json.loads(Path("report.json").read_text(encoding="utf-8"))["subjects"][0]
    checks = subject.get("checks") or subject["sections"]["induced structure axioms"]
    spd = next(c for c in checks if c["name"] == "metric_positive_definite")
    assert spd["passed"] is False and math.isnan(spd["residual"])
    captured = capsys.readouterr()
    assert "FAIL  metric_positive_definite" in captured.out
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err


def test_derivative_layers_stop_at_the_first_batch_without_a_positive_definite_metric(tmp_path, monkeypatch,
                                                                                      capsys):
    """The derivative layers run in the axioms' sweep only while every batch
    so far has had a positive definite metric; once one has not, what they
    gave is dropped and ``verify`` reports the axioms alone.  The flat cell's
    leaf block scaled by x + 0.999 is negative only for x < -0.999: of 3000
    samples at seed 7 the first there is sample 2848, in the fifth batch of
    606, so the first four batches have a positive definite metric."""
    import sewcells.cli as cli
    from sewcells import geometry
    from sewcells.charts import batch_size

    monkeypatch.chdir(tmp_path)
    doc = structure_to_dict(flat_cosymplectic_cell())
    for i in (1, 2):
        doc["metric"][i][i] = f"(x + 0.999)*{doc['metric'][i][i]}"
    Path("partly.json").write_text(json.dumps(doc), encoding="utf-8")
    struct = load_manifold("partly.json")
    samples = sample_points(struct.chart, 3000, 7)
    size = batch_size(3)
    x = struct.chart.index_of("x")
    first_bad = int(np.flatnonzero(samples.coords[:, x] + 0.999 <= 0.0)[0]) // size
    assert first_bad == 4 and len(samples) > first_bad * size
    stacks = {name: [] for name in ("covariant_derivative_affinor", "normality_tensor", "weight_fit")}
    for name, seen in stacks.items():
        layer = getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda s, points, layer=layer, seen=seen, **kwargs:
                            seen.append(points) or layer(s, points, **kwargs))

    assert cli.main(["verify", "partly.json", "--points", "3000", "--json", "report.json"]) == EXIT_FAIL
    before = [samples.coords[start:start + size] for start in range(0, first_bad * size, size)]
    for seen in stacks.values():
        assert len(seen) == first_bad and all(np.array_equal(a, b) for a, b in zip(seen, before))
    out = capsys.readouterr().out
    assert "metric not positive definite; derivative checks skipped" in out
    assert "classification" not in out
    subject = json.loads(Path("report.json").read_text(encoding="utf-8"))["subjects"][0]
    assert set(subject) == {"name", "dimension", "checks", "passed"} and subject["passed"] is False
    assert [c["name"] for c in subject["checks"] if not c["passed"]] == ["metric_positive_definite"]


def test_curvature_sweeps_share_one_connection_per_batch(tmp_path, monkeypatch, capsys):
    """Each batch of ``classify_and_fit`` builds (g^-1, Gamma) once, and the
    fits' curvature and nabla phi both read it: as many ``_connection``
    calls as ``classify_layers`` calls, in ``nullity`` at 1000 points (6
    batches) and in the theorem stage of ``sew --copies 4`` at 100 points
    (5 sewn batches and 3 of the stacked cell).  ``nullity`` and ``sew``
    never take the normality tensor, which only ``verify`` reports, and the
    induced stage of ``sew`` reads nabla_xi phi and nabla_xi xi without
    ``christoffel`` or ``covariant_derivative_affinor``."""
    from sewcells import cli, geometry, nullity, sewing
    from sewcells.catalog import halfspace_kenmotsu_cell

    monkeypatch.chdir(tmp_path)
    save_manifold(halfspace_kenmotsu_cell(), "halfspace.json")
    calls, phase = Counter(), ["outside"]

    def counted(module, name):
        original = getattr(module, name)

        def spied(*args, **kwargs):
            calls[phase[0], name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, spied)

    def marked(module, name, label):
        original = getattr(module, name)

        def spied(*args, **kwargs):
            outer, phase[0] = phase[0], label
            try:
                return original(*args, **kwargs)
            finally:
                phase[0] = outer
        monkeypatch.setattr(module, name, spied)

    for name in ("_connection", "normality_tensor", "christoffel", "covariant_derivative_affinor"):
        counted(geometry, name)
    counted(nullity, "classify_layers")
    counted(cli, "reeb_layer")
    for module in (cli, sewing):
        marked(module, "classify_and_fit", "sweep")
    marked(cli, "validate_structure", "induced")  # in sew, the induced stage's sweep
    runs = {}
    for argv in (["nullity", "halfspace.json", "--points", "1000"],
                 ["sew", "halfspace.json", "--copies", "4", "--points", "100", "--out", "sewn.json"],
                 ["verify", "halfspace.json"]):
        calls.clear()
        assert main(argv) == EXIT_PASS
        runs[argv[0]] = dict(calls)
    for command, batches in (("nullity", 6), ("sew", 8)):
        assert runs[command][("sweep", "_connection")] == runs[command][("sweep", "classify_layers")] == batches
        assert not any(name == "normality_tensor" for _, name in runs[command])
    induced = {name: count for (where, name), count in runs["sew"].items() if where == "induced"}
    assert induced == {"reeb_layer": 5}  # 100 samples make 5 batches of 22 on the 9-dim sewn chart
    assert sum(count for (_, name), count in runs["verify"].items() if name == "normality_tensor") == 1


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_parser_is_built_once(self):
        from sewcells.cli import build_parser

        assert build_parser() is build_parser()

    def test_convention_does_not_carry_over(self, tmp_path, capsys):
        from sewcells.catalog import halfspace_kenmotsu_cell

        path = tmp_path / "halfspace.json"
        save_manifold(halfspace_kenmotsu_cell(), path)
        assert main(["nullity", str(path), "--convention", "kenmotsu"]) == EXIT_PASS
        assert "kenmotsu-h'" in capsys.readouterr().out
        assert main(["nullity", str(path)]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "raw-h'" in out and "kenmotsu-h'" not in out

    def test_params_do_not_carry_over(self, tmp_path, capsys):
        assert main(["catalog", "model_cosymplectic", "--param", "lam=1", "--out", str(tmp_path / "a.json")]) == EXIT_PASS
        # without --param the entry gets no parameter, so its required lam is missing
        assert main(["catalog", "model_cosymplectic", "--out", str(tmp_path / "b.json")]) == EXIT_INPUT
        assert "missing 1 required positional argument: 'lam'" in capsys.readouterr().out
        warped = ["catalog", "kenmotsu_warped", "--param", "alpha=1", "--param", "kappa0=-2"]
        assert main([*warped, "--param", "c=1.5", "--out", str(tmp_path / "c.json")]) == EXIT_PASS
        assert main([*warped, "--out", str(tmp_path / "d.json")]) == EXIT_PASS
        provenance = [json.loads((tmp_path / name).read_text(encoding="utf-8"))["provenance"]
                      for name in ("a.json", "c.json", "d.json")]
        assert [p["parameters"] for p in provenance] == [
            {"lam": 1.0}, {"alpha": 1.0, "kappa0": -2.0, "c": 1.5}, {"alpha": 1.0, "kappa0": -2.0}]

    def test_help_version_and_usage_errors_change_nothing(self, model_file, tmp_path, capsys):
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", str(model_file), "--json", str(first)]) == EXIT_PASS
        before = capsys.readouterr().out
        for argv, status in ((["--help"], 0), (["verify", "--help"], 0), (["--version"], 0),
                             (["verify", str(model_file), "--points", "x"], 2), (["frobnicate"], 2)):
            assert main(argv) == status
        capsys.readouterr()
        assert main(["verify", str(model_file), "--json", str(second)]) == EXIT_PASS
        after = capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()
        drop_elapsed = lambda text: [line for line in text.splitlines() if not line.startswith(("elapsed", "machine"))]
        assert drop_elapsed(before) == drop_elapsed(after)

    def test_command_is_looked_up_when_it_runs(self, model_file, monkeypatch, capsys):
        import sewcells.cli as cli

        assert cli.main(["verify", str(model_file)]) == EXIT_PASS
        calls = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.files) or 42)
        assert cli.main(["verify", str(model_file)]) == 42
        assert calls == [[model_file]]


def test_verify_runs_the_layers_of_a_split_chart_in_batches_sized_by_its_sets(tmp_path, monkeypatch, capsys):
    """``verify --points 100``: on the sewn model file of 6 copies, which
    splits into s and 6 blocks of two, a sample's largest array of the
    sweep is a (6, 3, 3, 3) array of its sets, so the axioms and the layers
    run on one batch of 100 samples, and nothing lays out a field in the
    full grid; on the sewn halfspace file of 6 copies, whose metric couples
    s to every block, they run on the full grid in 15 batches of 7, as
    before there were layouts."""
    from sewcells import charts, cli
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.charts import TensorField, batch_size
    from sewcells.sewing import sew

    monkeypatch.chdir(tmp_path)
    batches, grids = [], []
    layers = cli.verify_layers
    monkeypatch.setattr(cli, "verify_layers", lambda struct, points: batches.append(len(points)) or
                        layers(struct, points))
    lay_out = TensorField._lay_out

    def spied(field, layout, lead, order, compact):
        jet = lay_out(field, layout, lead, order, compact)
        if layout is None:
            grids.extend(array.shape for array in jet[:2])
        return jet

    monkeypatch.setattr(TensorField, "_lay_out", spied)
    for name, cell, sizes, cubes in (
            ("model", model_cosymplectic_cell(1.0), [100], set()),
            ("halfspace", halfspace_kenmotsu_cell(), [7] * 14 + [2], {(7, 13, 13, 13), (2, 13, 13, 13)})):
        sewn = sew([cell] * 6)
        save_manifold(sewn, f"{name}.json")
        batches.clear(), grids.clear()
        assert main(["verify", f"{name}.json", "--points", "100"]) == EXIT_PASS
        assert batches == sizes and {shape for shape in grids if len(shape) == 4} == cubes
        assert bool(grids) == (name == "halfspace")
    layout = load_manifold("model.json").layout
    assert layout.hub and layout.sets.shape == (6, 3) and layout.width == 6 * 3 ** 3
    assert batch_size(13, layout=layout) == 101 and batch_size(13) == 7 == charts.BATCH_BYTES // (8 * 13 ** 3)


def test_sew_and_nullity_of_a_split_chart_lay_out_no_full_grid(tmp_path, monkeypatch, capsys):
    """``sew --copies 6 --points 100`` of the model cell and ``nullity
    --points 100`` of the sewn file it writes: the sewn chart splits into s
    and 6 blocks of two, and every stage, the curvature and the fits among
    them, runs in its sets, so nothing lays out a field of the sewn chart in
    its full grid, where 0.24.0 laid out 75 (P, 13, 13, 13) arrays in the
    ``sew``.  The halfspace cell's sewn chart, whose metric couples s to
    every block, is one set, and both commands lay out its full grid."""
    from sewcells.catalog import halfspace_kenmotsu_cell
    from sewcells.charts import TensorField

    monkeypatch.chdir(tmp_path)
    grids = Counter()
    lay_out = TensorField._lay_out

    def spied(field, layout, lead, order, compact):
        jet = lay_out(field, layout, lead, order, compact)
        if layout is None and field.chart.dim == 13:
            grids.update(array.shape[len(lead):] for array in jet[:2])
        return jet

    monkeypatch.setattr(TensorField, "_lay_out", spied)
    for name, cell in (("model", model_cosymplectic_cell(1.0)), ("halfspace", halfspace_kenmotsu_cell())):
        save_manifold(cell, f"{name}.json")
        for argv in (["sew", f"{name}.json", "--copies", "6", "--points", "100", "--out", f"{name}-k6.json"],
                     ["nullity", f"{name}-k6.json", "--points", "100"]):
            grids.clear()
            assert main(argv) == EXIT_PASS
            assert load_manifold(f"{name}-k6.json").layout.hub == (name == "model")
            assert (grids[(13, 13, 13)] > 0) == (name == "halfspace") == bool(grids), (name, argv[0])
    capsys.readouterr()


class TestKeptDefinitions:
    """``cli._load`` keeps the structure of the last definition it loaded
    under the digest of its bytes: a command on the same bytes reuses the
    structure and what was built on it, and its report is the one a fresh
    load gives.  Each runs 3-dimensional cells at the default 25 points."""

    def test_a_hit_builds_nothing(self, model_file, tmp_path, monkeypatch, capsys):
        import sewcells.charts as charts

        reports = [tmp_path / "first.json", tmp_path / "second.json"]
        assert main(["verify", str(model_file), "--seed", "3", "--json", str(reports[0])]) == EXIT_PASS
        builds, build = [], charts._FieldPlan.build
        monkeypatch.setattr(charts._FieldPlan, "build", lambda field: builds.append(field) or build(field))
        assert main(["verify", str(model_file), "--seed", "3", "--json", str(reports[1])]) == EXIT_PASS
        assert builds == []
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_new_bytes_are_parsed_again(self, model_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["verify", str(model_file)]) == EXIT_PASS
        doc = structure_to_dict(model_cosymplectic_cell(1.0))
        doc["phi"][2][2] = "0.5"  # breaks phi^2 = -Id + eta (x) xi
        model_file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(model_file), "--json", str(report)]) == EXIT_FAIL
        (subject,) = json.loads(report.read_text(encoding="utf-8"))["subjects"]
        assert not next(c for c in subject["checks"] if c["name"] == "phi_square_identity")["passed"]

    def test_failures_are_never_kept(self, tmp_path, capsys):
        path = tmp_path / "cell.json"
        path.write_text("{not json", encoding="utf-8")
        for _ in range(2):
            assert main(["verify", str(path)]) == EXIT_INPUT
            assert str(path) in capsys.readouterr().err
        save_manifold(model_cosymplectic_cell(1.0), path)
        assert main(["verify", str(path)]) == EXIT_PASS

    def test_no_binding_survives_an_error(self, tmp_path, capsys):
        """A metric entry that leaves its domain wherever x <= 0 stops the
        sweep with a ``verification error:``; the kept structure holds no
        binding, and the next run stops with the same line."""
        import sewcells.cli as cli

        doc = structure_to_dict(model_cosymplectic_cell(1.0))
        doc["metric"][0][0] = "0*log(x) + 1"
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        errors = []
        for _ in range(2):
            assert main(["verify", str(path)]) == EXIT_FAIL
            errors.append(capsys.readouterr().err)
            struct = cli._kept[1]
            assert all(field._memo == () for field in (struct.metric, struct.phi, struct.xi, struct.eta))
        assert errors[0] == errors[1] and errors[0].startswith("verification error: ")

    def test_another_definition_in_between_is_parsed_again(self, tmp_path, monkeypatch, capsys):
        """Only the last definition loaded is kept: a command on the bytes
        loaded last is served from it, and a different definition loaded in
        between makes the first be parsed again."""
        import sewcells.cli as cli

        paths = []
        for i in range(2):
            doc = structure_to_dict(flat_cosymplectic_cell())
            doc["name"] = f"flat {i}"
            paths.append(tmp_path / f"flat{i}.json")
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        first, second = paths
        loads, load = [], cli.load_manifold
        monkeypatch.setattr(cli, "load_manifold", lambda path, data: loads.append(path) or load(path, data))
        for argv in (["verify", str(first)], ["nullity", str(first)], ["verify", str(second), str(first)],
                     ["verify", str(first), str(first)]):
            assert main(argv) == EXIT_PASS
        assert loads == [first, second, first]
