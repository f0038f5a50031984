"""Batch entry point: load definitions, run verification sweeps, emit reports.

Exit status: 0 all checks passed, 1 verification failure (or standard output
closed before everything was written), 2 input error.
The human-readable table goes to stdout; ``--json`` writes a machine report
that is byte-stable for fixed inputs, seed and version (wall-clock timing is
only ever printed, never serialized).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import CATALOG
from .charts import (
    ContactStructure,
    Residual,
    SampleEvaluationError,
    SamplingError,
    StructureAxioms,
    ValidationReport,
    nullity_samples,
    sample_points,
    validate_structure,
)
from .expressions import ExpressionError
from .geometry import classify, reeb_layer, verify_layers
from .manifold_io import ManifoldFileError, file_digest, load_manifold, save_manifold
from .nullity import NullityFitError, check_generalized, classify_and_fit, normalized
from .sewing import (
    SewingError,
    build_product,
    extrinsic_report,
    sew,
    verify_f_structure,
    verify_lift_laws,
    verify_sewing_theorems,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

DEFAULT_POINTS = 25
DEFAULT_SEED = 7
DEFAULT_TOL = 1e-8
# The sewn curvature holds a few arrays of 8 (2k+1)^3 bytes per sample (0.29 MB
# each at k = 16), and its time per sample grows about as k^3.  verify's layers
# work per block of a sewn chart that splits (layouts.star_layout), k arrays of
# 8 * 27 bytes per sample, in batches that its (2k+1)^2 metric sizes; the nullity
# fits and sew's curvature stay on the full grid.
MAX_COPIES = 16
MAX_POINTS = 10_000

INDUCED = "induced structure axioms"


def _classification_dict(classification) -> dict:
    return {
        "kind": classification.kind,
        "alpha": classification.alpha,
        "is_cosymplectic": classification.is_cosymplectic,
        "weight_fit_residual_max": classification.fit_residual_max,
        "weights": list(classification.weights),
    }


def _with_reeb_checks(report: ValidationReport, columns, tol: float) -> ValidationReport:
    """``report`` with the Reeb-parallelism facts that hold on any cell, from
    a sweep's first two ``columns``: |nabla_xi phi| and |nabla_xi xi| per sample."""
    nabla_xi_phi, nabla_xi_xi, *_ = columns
    return _with_checks(report, Residual("xi_geodesic", tol).add(nabla_xi_xi),
                        Residual("phi_parallel_along_xi", tol).add(nabla_xi_phi))


def _with_checks(report: ValidationReport, *residuals: Residual) -> ValidationReport:
    return replace(report, checks=report.checks + tuple(r.result() for r in residuals))


def _axioms_and_layers(struct: ContactStructure, samples, tol: float, layer,
                       layout=None) -> tuple[ValidationReport, list]:
    """The structure axioms and ``layer``'s results, one (P,) column each,
    from one sweep over ``samples`` in batches sized by the ``layout`` that
    ``layer`` works in: ``validate_structure`` runs ``layer`` on each batch,
    from the jets the axioms took, while the metric is positive definite.
    Where it is not, the caller drops the columns."""
    results = []
    report = validate_structure(struct, samples, tol, lambda points: results.append(layer(struct, points)), layout)
    return report, [np.concatenate(column) for column in zip(*results)]


def _verify_subject(struct: ContactStructure, args) -> dict:
    samples = sample_points(struct.chart, args.points, args.seed)
    # one sweep: the axioms, classify's layers (nabla phi and the weight fit) and the normality tensor, in the
    # sets of the structure's layout
    report, columns = _axioms_and_layers(struct, samples, args.tol, verify_layers, struct.layout)
    header = f"{struct.name}  (dimension {struct.dim}, {len(samples)} samples)"
    # without a positive definite metric there is no Levi-Civita connection: the layers' results go
    if not report.check("metric_positive_definite").passed:
        print(report.format_table(header))
        print("  metric not positive definite; derivative checks skipped")
        return _failed_subject(struct, {"checks": report.check_dicts()})
    classification = classify(struct, args.tol, columns)
    normality = Residual("normality", args.tol).add(columns[-1])  # verify_layers gives the largest |N| last
    report = _with_reeb_checks(report, columns, args.tol)
    if struct.dim == 3:
        weight_fit = Residual("weight_fit_residual", args.tol).add(classification.fit_residual_max)
        report = _with_checks(report, weight_fit)
    subject = {
        "name": struct.name,
        "dimension": struct.dim,
        "checks": report.check_dicts(),
        "classification": _classification_dict(classification),
        "normality_max": normality.value,
        "passed": report.passed,
    }
    print(report.format_table(header))
    print(f"  classification: {classification.describe()}")
    print(f"  normality tensor max |N|: {normality.value:.3e}")
    return subject


def cmd_verify(args) -> int:
    report = _base_report("verify", args)
    subjects = []
    for path in args.files:
        struct = load_manifold(path)
        report["inputs"].append({"path": str(path), "sha256": file_digest(path)})
        subjects.append(_verify_subject(struct, args))
    report["subjects"] = subjects
    report["passed"] = all(s["passed"] for s in subjects)
    _finish(report, args)
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def cmd_nullity(args) -> int:
    report = _base_report("nullity", args)
    struct = load_manifold(args.file)
    report["inputs"].append({"path": str(args.file), "sha256": file_digest(args.file)})
    samples = nullity_samples(struct.chart, args.points, args.seed)

    # the axioms, classify's layers and the fits, in one sweep in the batches of the Hessian fold
    axioms = StructureAxioms(struct, args.tol)
    try:
        swept = classify_and_fit(struct, samples, args.tol, fit=True, axioms=axioms)
        validation = axioms.report(len(samples))
    except NullityFitError:
        # a failing axiom outranks a fit error, which may have ended the sweep early
        validation = validate_structure(struct, samples, args.tol)
        if validation.passed:
            raise
    if not validation.passed:
        print(validation.format_table())
        print("structure axioms fail; nullity fit skipped")
        return _stop(report, args, struct, {"checks": validation.check_dicts()}, EXIT_FAIL)
    ((classification, fits),) = swept
    alpha = classification.alpha
    kenmotsu = args.convention == "kenmotsu"
    if kenmotsu and alpha is None:
        print("the normalized h' convention needs an almost alpha-Kenmotsu structure")
        return _stop(report, args, struct, {"classification": _classification_dict(classification)}, EXIT_INPUT)
    label = f"kenmotsu-h'({alpha!r})" if kenmotsu else "raw-h'"
    report["parameters"]["convention"] = label

    t_axis = struct.chart.adapted_index
    print(f"{struct.name}: per-sample nullity fits ({label})")
    header = f"  {'t' if t_axis is not None else 'draw':>12}  {'kappa':>14} {'mu':>14} {'muprime':>14} {'residual':>12}"
    print(header)
    if kenmotsu:
        # before the constancy checks: the spread of mu' scales by |alpha| too
        fits = normalized(fits, alpha)
    if t_axis is not None:
        gen = check_generalized(struct, samples, fits, args.tol)
        samples, fits = samples[gen.order], fits[gen.order]
        labels = samples.coords[:, t_axis]
        verdicts = {
            "constant_kappa": gen.constant_kappa,
            "constant_mu": gen.constant_mu,
            "constant_muprime": gen.constant_muprime,
            "eta_aligned": gen.eta_aligned,
            "kappa_spread": gen.kappa_spread,
            "group_spread_max": gen.group_spread_max,
        }
    else:
        labels = samples.draws.astype(float)
        verdicts = {}
    fit_residual = Residual("fit_residual", args.tol).add(fits.residual)
    # as Python numbers: JSON encodes no NumPy bool
    columns = (fits.kappa, fits.mu, fits.muprime, fits.residual, fits.h_norm, fits.determinate_mu)
    rows = []
    for label, point, kappa, mu, muprime, residual, h_norm, determinate in zip(
            labels.tolist(), samples.coords.tolist(), *(column.tolist() for column in columns)):
        flag = "" if determinate else "  [mu undetermined: h = 0]"
        print(f"  {label:>12.6g}  {kappa:>14.8g} {mu:>14.8g} {muprime:>14.8g} {residual:>12.3e}{flag}")
        rows.append({"point": point, "kappa": kappa, "mu": mu, "muprime": muprime, "residual": residual,
                     "h_norm": h_norm, "determinate_mu": determinate})
    for key, value in verdicts.items():
        print(f"  {key}: {value}")
    passed = fit_residual.passed
    print(f"  max fit residual {fit_residual.value:.3e} (tol {args.tol:.1e}): {'PASS' if passed else 'FAIL'}")
    report["subjects"] = [
        {
            "name": struct.name,
            "dimension": struct.dim,
            "classification": _classification_dict(classification),
            "nullity_table": rows,
            "verdicts": verdicts,
            "residual_max": fit_residual.value,
            "passed": passed,
        }
    ]
    report["passed"] = passed
    _finish(report, args)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_sew(args) -> int:
    report = _base_report("sew", args)
    report["parameters"]["copies"] = args.copies
    cell = load_manifold(args.file)
    report["inputs"].append({"path": str(args.file), "sha256": file_digest(args.file)})
    cells = [cell] * args.copies
    sewn = sew(cells)
    # the induced and extrinsic stages read the plain samples, the theorem stage the grouped ones
    sewn_samples = sample_points(sewn.chart, args.points, args.seed)
    grouped_samples = nullity_samples(sewn.chart, args.points, args.seed)
    save_manifold(sewn, args.out)
    print(f"wrote sewn definition to {args.out}")
    report["output"] = {"path": str(args.out), "sha256": file_digest(args.out)}

    tol = max(args.tol, 1e-9)
    # the stage reads nabla_xi xi and nabla_xi phi only, so nabla phi runs alone, in the axioms' sweep
    induced, columns = _axioms_and_layers(sewn, sewn_samples, tol, reeb_layer)
    if induced.check("metric_positive_definite").passed:
        induced = _with_reeb_checks(induced, columns, tol)
    if not induced.passed:
        print(induced.format_table(INDUCED))
        print("induced structure axioms fail; sewing verification skipped")
        return _stop(report, args, sewn, {"sections": {INDUCED: induced.check_dicts()}}, EXIT_FAIL)

    product = build_product(cells)
    product_samples = sample_points(product.chart, args.points, args.seed)
    sections = {
        INDUCED: induced,
        "product f-structure": verify_f_structure(product, product_samples, args.tol),
        "lift laws": verify_lift_laws(product, product_samples, max(args.tol, 1e-9)),
        "extrinsic geometry": extrinsic_report(product, sewn, sewn_samples, args.tol),
        "classification and nullity transfer": verify_sewing_theorems(product, sewn, grouped_samples, args.tol),
    }
    theorems = sections["classification and nullity transfer"]
    for title, section in sections.items():
        print(section.format_table(title))
    all_passed = all(section.passed for section in sections.values())
    subject = {
        "name": sewn.name,
        "dimension": sewn.dim,
        "sections": {title: section.check_dicts() for title, section in sections.items()},
    }
    print(f"cell classification: {theorems.cell_classification.describe()}")
    print(f"sewn classification: {theorems.sewn_classification.describe()}")
    subject["cell_classification"] = _classification_dict(theorems.cell_classification)
    subject["sewn_classification"] = _classification_dict(theorems.sewn_classification)
    if theorems.convention_comparison is not None:
        comp = theorems.convention_comparison
        subject["convention_comparison"] = asdict(comp)
        print(
            f"h' convention reproducing the 1/k transfer of mu': {comp.reproduces_inverse_k}"
            f" (raw ratio {comp.muprime_ratio_raw:.6f},"
            f" normalized ratio {comp.muprime_ratio_normalized:.6f})"
        )
    subject["passed"] = all_passed
    report["subjects"] = [subject]
    report["passed"] = all_passed
    _finish(report, args)
    return EXIT_PASS if all_passed else EXIT_FAIL


def _stop(report: dict, args, struct: ContactStructure, payload: dict, status: int) -> int:
    """Write the report of a structure the command stops short on, as failed
    with ``payload``, and return ``status``."""
    report["subjects"] = [_failed_subject(struct, payload)]
    report["passed"] = False
    _finish(report, args)
    return status


def _failed_subject(struct: ContactStructure, payload: dict) -> dict:
    return {"name": struct.name, "dimension": struct.dim, **payload, "passed": False}


def cmd_catalog(args) -> int:
    entry = CATALOG.get(args.entry)
    if entry is None:
        print(f"unknown catalog entry {args.entry!r}; available: {', '.join(sorted(CATALOG))}")
        return EXIT_INPUT
    params = {}
    for item in args.param or []:
        if "=" not in item:
            print(f"--param expects name=value, got {item!r}")
            return EXIT_INPUT
        key, value = item.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            print(f"--param value for {key!r} must be a number, got {value!r}")
            return EXIT_INPUT
    try:
        cell = entry.build(**params)
    except (TypeError, ValueError) as exc:
        print(f"cannot build {args.entry}: {exc}")
        return EXIT_INPUT
    save_manifold(cell, args.out, provenance={"catalog": entry.name, "parameters": params})
    print(f"wrote {cell.name} to {args.out}")
    return EXIT_PASS


def _base_report(command: str, args) -> dict:
    return {
        "tool": {"name": "sewcells", "version": __version__},
        "command": command,
        "parameters": {"points": args.points, "seed": args.seed, "tol": args.tol},
        "inputs": [],
    }


def _finish(report: dict, args) -> None:
    if getattr(args, "json", None):
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"machine report written to {args.json}")


def _int_between(low: int, high: int):
    """An argparse type: an integer from ``low`` to ``high``."""
    def integer(text: str) -> int:  # argparse names the type after the function
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return integer


def _tolerance(text: str) -> float:
    """An argparse type: a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number at least 0, got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", type=_int_between(1, MAX_POINTS), default=DEFAULT_POINTS,
                        help=f"sample count, at most {MAX_POINTS} (default {DEFAULT_POINTS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed (default 7)")
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="tolerance, a finite number at least 0 (default 1e-8)")
    parser.add_argument("--json", type=Path, default=None, help="write the machine report here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse leaves it as
    it was, and a subcommand is looked up by name when it runs (``_run``)."""
    parser = argparse.ArgumentParser(
        prog="sewcells",
        description="verify almost contact metric cells and their sewn products",
    )
    parser.add_argument("--version", action="version", version=f"sewcells {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="structure axioms, classification, normality")
    p_verify.add_argument("files", nargs="+", type=Path)
    _add_common(p_verify)

    p_null = sub.add_parser("nullity", help="per-sample nullity fits and constancy verdicts")
    p_null.add_argument("file", type=Path)
    p_null.add_argument("--convention", choices=("raw", "kenmotsu"), default="raw")
    _add_common(p_null)

    p_sew = sub.add_parser("sew", help="sew copies of a cell and verify the construction")
    p_sew.add_argument("file", type=Path)
    p_sew.add_argument("--copies", type=_int_between(2, MAX_COPIES), required=True,
                       help=f"number of copies, from 2 to {MAX_COPIES}")
    p_sew.add_argument("--out", type=Path, required=True)
    _add_common(p_sew)

    p_cat = sub.add_parser("catalog", help="export a built-in cell to a definition file")
    p_cat.add_argument("entry")
    p_cat.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_cat.add_argument("--out", type=Path, required=True)
    return parser


def main(argv=None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter exit
    except BrokenPipeError:
        # stdout was closed early (``| head``): send the rest, and the final flush, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_FAIL
    return status


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, the help or the version
        return exc.code
    report_path = getattr(args, "json", None)
    if report_path is not None and (report_path.is_dir() or not report_path.parent.is_dir()):
        # refused before the command runs, so that an unusable report path costs no run
        problem = "is a directory" if report_path.is_dir() else "is in a directory that does not exist"
        print(f"input error: --json {report_path} {problem}", file=sys.stderr)
        return EXIT_INPUT
    start = time.perf_counter()
    try:
        # by name, at run time: a ``cmd_*`` rebound after the parser was built is the one that runs
        status = globals()[f"cmd_{args.command}"](args)
    except BrokenPipeError:
        raise  # an OSError too, but a closed stdout is for ``main`` to handle
    except (ManifoldFileError, ExpressionError, SewingError, SamplingError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SampleEvaluationError, NullityFitError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"elapsed {time.perf_counter() - start:.2f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())
