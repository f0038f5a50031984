"""Batch entry point: load definitions, run verification sweeps, emit reports.

Exit status: 0 all checks passed, 1 verification failure (or standard output
closed before everything was written), 2 input error.
The human-readable table goes to stdout; ``--json`` writes a machine report
that is byte-stable for fixed inputs, seed and version (wall-clock timing is
only ever printed, never serialized).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import CATALOG
from .charts import (
    ContactStructure,
    Residual,
    SampleEvaluationError,
    SamplingError,
    ValidationReport,
    evaluate_batches,
    nullity_samples,
    sample_points,
    validate_structure,
)
from .expressions import ExpressionError
from .geometry import affinor_derivatives, classify, normality_tensor
from .manifold_io import ManifoldFileError, file_digest, load_manifold, save_manifold
from .nullity import RAW, check_generalized, fit_nullity, kenmotsu_convention
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

INDUCED = "induced structure axioms"


def _classification_dict(classification) -> dict:
    return {
        "kind": classification.kind,
        "alpha": classification.alpha,
        "is_cosymplectic": classification.is_cosymplectic,
        "weight_fit_residual_max": classification.fit_residual_max,
        "weights": list(classification.weights),
    }


def _structure_checks(struct: ContactStructure, samples, derivatives, tol: float) -> ValidationReport:
    """Axiom validation plus the Reeb-parallelism facts that hold on any cell;
    ``derivatives`` are the samples' ``affinor_derivatives``."""
    report = validate_structure(struct, samples, tol)
    xi_geodesic = Residual("xi_geodesic", tol).add(derivatives.nabla_xi_xi)
    phi_parallel = Residual("phi_parallel_along_xi", tol).add(derivatives.nabla_xi_phi)
    return _with_checks(report, xi_geodesic, phi_parallel)


def _with_checks(report: ValidationReport, *residuals: Residual) -> ValidationReport:
    return replace(report, checks=report.checks + tuple(r.result() for r in residuals))


def _verify_subject(struct: ContactStructure, args) -> dict:
    samples = sample_points(struct.chart, args.points, args.seed)
    derivatives = affinor_derivatives(struct, samples)
    report = _structure_checks(struct, samples, derivatives, args.tol)
    classification = classify(struct, samples, derivatives, args.tol)
    if struct.dim == 3:
        weight_fit = Residual("weight_fit_residual", args.tol).add(classification.fit_residual_max)
        report = _with_checks(report, weight_fit)
    # np.max, unlike the builtin, keeps a NaN wherever it comes
    normality_max = float(np.max([
        np.max(np.abs(torsion))
        for _, torsion in evaluate_batches(samples, struct.dim, lambda points: normality_tensor(struct, points))
    ]))
    subject = {
        "name": struct.name,
        "dimension": struct.dim,
        "checks": report.check_dicts(),
        "classification": _classification_dict(classification),
        "normality_max": normality_max,
        "passed": report.passed,
    }
    header = f"{struct.name}  (dimension {struct.dim}, {len(samples)} samples)"
    print(report.format_table(header))
    print(f"  classification: {classification.describe()}")
    print(f"  normality tensor max |N|: {normality_max:.3e}")
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

    validation = validate_structure(struct, samples, args.tol)
    if not validation.passed:
        print(validation.format_table())
        print("structure axioms fail; nullity fit skipped")
        return _fail_on_axioms(report, args, struct, {"checks": validation.check_dicts()})

    convention = RAW
    classification = classify(struct, samples, affinor_derivatives(struct, samples), args.tol)
    if args.convention == "kenmotsu":
        if classification.alpha is None:
            print("the normalized h' convention needs an almost alpha-Kenmotsu structure")
            return EXIT_INPUT
        convention = kenmotsu_convention(classification.alpha)
    report["parameters"]["convention"] = convention.label()

    t_axis = struct.chart.adapted_index
    rows = []
    print(f"{struct.name}: per-sample nullity fits ({convention.label()})")
    header = f"  {'t' if t_axis is not None else 'draw':>12}  {'kappa':>14} {'mu':>14} {'muprime':>14} {'residual':>12}"
    print(header)
    fits = [fit_nullity(struct, s.array(), convention) for s in samples]
    if t_axis is not None:
        gen = check_generalized(struct, samples, fits, args.tol)
        pairs = list(zip(gen.samples, gen.fits))
        verdicts = {
            "constant_kappa": gen.constant_kappa,
            "constant_mu": gen.constant_mu,
            "constant_muprime": gen.constant_muprime,
            "eta_aligned": gen.eta_aligned,
            "kappa_spread": gen.kappa_spread,
            "group_spread_max": gen.group_spread_max,
        }
    else:
        pairs = list(zip(samples, fits))
        verdicts = {}
    fit_residual = Residual("fit_residual", args.tol)
    for sample, fit in pairs:
        fit_residual.add(fit.residual)
        label = sample.coords[t_axis] if t_axis is not None else float(sample.draw)
        flag = "" if fit.determinate_mu else "  [mu undetermined: h = 0]"
        print(
            f"  {label:>12.6g}  {fit.kappa:>14.8g} {fit.mu:>14.8g} {fit.muprime:>14.8g}"
            f" {fit.residual:>12.3e}{flag}"
        )
        rows.append(
            {
                "point": list(sample.coords),
                "kappa": fit.kappa,
                "mu": fit.mu,
                "muprime": fit.muprime,
                "residual": fit.residual,
                "h_norm": fit.h_norm,
                "determinate_mu": fit.determinate_mu,
            }
        )
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

    induced = _structure_checks(sewn, sewn_samples, affinor_derivatives(sewn, sewn_samples), max(args.tol, 1e-9))
    if not induced.passed:
        print(induced.format_table(INDUCED))
        print("induced structure axioms fail; sewing verification skipped")
        return _fail_on_axioms(report, args, sewn, {"sections": {INDUCED: induced.check_dicts()}})

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
        subject["convention_comparison"] = {
            "cell_count": comp.cell_count,
            "alpha_cell": comp.alpha_cell,
            "alpha_sewn": comp.alpha_sewn,
            "muprime_ratio_raw": comp.muprime_ratio_raw,
            "muprime_ratio_normalized": comp.muprime_ratio_normalized,
            "reproduces_inverse_k": comp.reproduces_inverse_k,
        }
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


def _fail_on_axioms(report: dict, args, struct: ContactStructure, checks: dict) -> int:
    """Write the report of a structure whose axioms fail, and stop with exit 1."""
    report["subjects"] = [{"name": struct.name, "dimension": struct.dim, **checks, "passed": False}]
    report["passed"] = False
    _finish(report, args)
    return EXIT_FAIL


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


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:  # argparse names the type after the function
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", type=_int_at_least(1), default=DEFAULT_POINTS,
                        help="sample count (default 25)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed (default 7)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance (default 1e-8)")
    parser.add_argument("--json", type=Path, default=None, help="write the machine report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sewcells",
        description="verify almost contact metric cells and their sewn products",
    )
    parser.add_argument("--version", action="version", version=f"sewcells {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="structure axioms, classification, normality")
    p_verify.add_argument("files", nargs="+", type=Path)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_null = sub.add_parser("nullity", help="per-sample nullity fits and constancy verdicts")
    p_null.add_argument("file", type=Path)
    p_null.add_argument("--convention", choices=("raw", "kenmotsu"), default="raw")
    _add_common(p_null)
    p_null.set_defaults(func=cmd_nullity)

    p_sew = sub.add_parser("sew", help="sew copies of a cell and verify the construction")
    p_sew.add_argument("file", type=Path)
    p_sew.add_argument("--copies", type=_int_at_least(2), required=True)
    p_sew.add_argument("--out", type=Path, required=True)
    _add_common(p_sew)
    p_sew.set_defaults(func=cmd_sew)

    p_cat = sub.add_parser("catalog", help="export a built-in cell to a definition file")
    p_cat.add_argument("entry")
    p_cat.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_cat.add_argument("--out", type=Path, required=True)
    p_cat.set_defaults(func=cmd_catalog)
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
    start = time.perf_counter()
    try:
        status = args.func(args)
    except (ManifoldFileError, ExpressionError, SewingError, SamplingError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SampleEvaluationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"elapsed {time.perf_counter() - start:.2f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())
