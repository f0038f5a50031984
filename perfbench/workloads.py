"""Seeded command lists for the benchmark workloads, with closed-form oracles.

A workload is a fixed list of command slots.  Each repetition of the list (a
*sweep*) draws fresh catalog parameters and a sampling seed per command from
(workload seed, repetition), writes every input at a deterministic relative
path, and returns the commands.  The program only ever receives the generated
definition files.  Reports embed the input and ``--out`` paths, so the paths
are relative to the checkout root and never change between runs.

The oracle checks exit statuses and reports against closed forms from the
paper, computed here from the drawn parameters and never from the package:

* model cell: kappa = -lam^2, almost cosymplectic, not cosymplectic;
* warped cell: kappa = kappa0, almost alpha-Kenmotsu with the drawn alpha;
* halfspace cell: kappa(z) = -(1 + e^{-4z}), almost Kenmotsu (alpha = 1);
* flat cell: kappa = 0, cosymplectic;
* k sewn copies: kappa -> kappa/k, alpha -> alpha/sqrt(k), and cosymplectic
  cells stay cosymplectic;
* negative definitions (phi scaled by 2, metric made indefinite) exit 1 with
  the axiom that breaks them failing.

The NaN-phi definition (a phi entry ``exp(400)*exp(400)*0``) must also exit 1:
a check can only pass on a finite residual.  The package is known to pass it,
so those commands carry ``known_defect``: they count as failed verdicts but do
not make the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORK_ROOT = Path(".perfbench_work")

NAN_PHI_ENTRY = "exp(400)*exp(400)*0"
NAN_PHI_DEFECT = "a NaN phi is not rejected, as max(r, nan) == r; the correct verdict is exit 1"

KAPPA_TOL = 1e-6
ALPHA_TOL = 1e-6

COSYMPLECTIC = "almost_cosymplectic"
KENMOTSU = "almost_alpha_kenmotsu"


@dataclass(frozen=True)
class Cell:
    """A drawn catalog cell and the closed forms it must reproduce."""

    entry: str
    params: dict
    adapted: int                    # index of the adapted coordinate in the cell chart
    alpha: float | None             # Kenmotsu weight, None when almost cosymplectic
    cosymplectic: bool
    kappa: Callable[[float], float]  # nullity function of the adapted coordinate


def draw_cell(kind: str, rng: np.random.Generator) -> Cell:
    if kind == "flat":
        return Cell("flat_cosymplectic", {}, 0, None, True, lambda t: 0.0)
    if kind == "model":
        lam = round(float(rng.uniform(0.5, 1.5)), 4)
        return Cell("model_cosymplectic", {"lam": lam}, 0, None, False, lambda t: -lam * lam)
    if kind == "warped":
        alpha = round(float(rng.uniform(0.5, 1.5)), 4)
        kappa0 = round(-alpha * alpha * (1.0 + float(rng.uniform(0.25, 2.0))), 4)
        c, cprime = (round(float(v), 4) for v in rng.uniform(0.5, 2.0, size=2))
        params = {"alpha": alpha, "kappa0": kappa0, "c": c, "cprime": cprime}
        return Cell("kenmotsu_warped", params, 0, alpha, False, lambda t: kappa0)
    if kind == "halfspace":
        return Cell("halfspace_kenmotsu", {}, 2, 1.0, False, lambda z: -(1.0 + math.exp(-4.0 * z)))
    raise ValueError(f"unknown cell kind {kind!r}")


@dataclass(frozen=True)
class Command:
    slot: str                        # stable place of the command in the list
    argv: tuple[str, ...]
    definition: str                  # the input definition file
    report: str                      # the --json report
    outputs: tuple[str, ...] = ()    # further files the command writes
    status: int = 0                  # correct exit status
    check: Callable[[dict], list[str]] | None = None
    known_defect: str = ""


def verdict_problems(cmd: Command, status) -> list[str]:
    """Compare one command's exit status and report with the oracle."""
    if status != cmd.status:
        return [f"exit {status}, expected {cmd.status}"]
    report_path = Path(cmd.report)
    if not report_path.is_file():
        return ["no --json report written"]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report.get("passed") is not (cmd.status == 0):
        return [f"report passed={report.get('passed')!r} with exit {status}"]
    missing = [p for p in cmd.outputs if not Path(p).is_file()]
    if missing:
        return [f"missing output {p}" for p in missing]
    return cmd.check(report) if cmd.check else []


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

def _close(value, expected: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= tol * max(1.0, abs(expected))


def _classification_problems(c: dict, cell: Cell, k: int, label: str) -> list[str]:
    if cell.alpha is None:
        problems = [] if c["kind"] == COSYMPLECTIC else [f"{label} kind {c['kind']}, expected {COSYMPLECTIC}"]
        if c["is_cosymplectic"] != cell.cosymplectic:
            problems.append(f"{label} is_cosymplectic={c['is_cosymplectic']}, expected {cell.cosymplectic}")
        return problems
    expected = cell.alpha / math.sqrt(k)
    if c["kind"] != KENMOTSU or not _close(c["alpha"], expected, ALPHA_TOL):
        return [f"{label} {c['kind']} alpha={c['alpha']!r}, expected {KENMOTSU} alpha={expected!r}"]
    return []


def verify_check(cell: Cell, k: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        return _classification_problems(report["subjects"][0]["classification"], cell, k, "classification")
    return check


def nullity_check(cell: Cell, k: int) -> Callable[[dict], list[str]]:
    """Every fitted kappa equals kappa(t)/k, and kappa is constant along the leaves of eta."""
    t_axis = cell.adapted if k == 1 else 0

    def check(report: dict) -> list[str]:
        subject = report["subjects"][0]
        problems = []
        for row in subject["nullity_table"]:
            expected = cell.kappa(row["point"][t_axis]) / k
            if not _close(row["kappa"], expected, KAPPA_TOL):
                problems.append(f"kappa {row['kappa']!r} at {row['point']}, expected {expected!r}")
                break
        if subject["verdicts"].get("eta_aligned") is not True:
            problems.append("kappa not aligned with eta")
        return problems
    return check


def sew_check(cell: Cell, k: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        subject = report["subjects"][0]
        return (_classification_problems(subject["cell_classification"], cell, 1, "cell")
                + _classification_problems(subject["sewn_classification"], cell, k, "sewn"))
    return check


def failing_check(name: str) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        checks = {c["name"]: c["passed"] for c in report["subjects"][0]["checks"]}
        return [] if checks.get(name) is False else [f"check {name} did not fail"]
    return check


# ---------------------------------------------------------------------------
# Definition files
# ---------------------------------------------------------------------------

def write_cell(path: Path, cell: Cell) -> None:
    from sewcells import CATALOG, save_manifold

    entry = CATALOG[cell.entry]
    save_manifold(entry.build(**cell.params), path,
                  provenance={"catalog": entry.name, "parameters": cell.params})


def write_negative(path: Path, source: Path, kind: str) -> None:
    """A model-cell definition broken in one known way."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    if kind == "broken_phi":
        doc["phi"] = [[e if e == "0" else f"2*({e})" for e in row] for row in doc["phi"]]
    elif kind == "indefinite":
        doc["metric"][2][2] = f"-({doc['metric'][2][2]})"
    elif kind == "nan_phi":
        doc["phi"][1][1] = NAN_PHI_ENTRY
    else:
        raise ValueError(kind)
    doc["name"] = f"{kind}:{doc['name']}"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_sewn(path: Path, cell_path: Path, k: int) -> None:
    from sewcells import load_manifold, save_manifold, sew

    save_manifold(sew([load_manifold(cell_path)] * k), path)


NEGATIVES = {
    "broken_phi": ("phi_square_identity", ""),
    "indefinite": ("metric_positive_definite", ""),
    "nan_phi": (None, NAN_PHI_DEFECT),
}


class _Sweep:
    """Helper that names files and seeds for one repetition of a workload."""

    def __init__(self, directory: Path, rng: np.random.Generator):
        self.dir = directory
        self.rng = rng
        (directory / "in").mkdir(parents=True, exist_ok=True)
        (directory / "out").mkdir(parents=True, exist_ok=True)
        self.commands: list[Command] = []

    def seed(self) -> str:
        return str(int(self.rng.integers(1, 2**31 - 1)))

    def input(self, name: str) -> Path:
        return self.dir / "in" / f"{name}.json"

    def output(self, name: str) -> Path:
        return self.dir / "out" / f"{name}.json"

    def add(self, slot: str, verb: str, definition: Path, extra: tuple[str, ...] = (), **kw) -> None:
        report = self.output(slot.replace("/", "_") + ".report")
        argv = (verb, str(definition), *extra, "--seed", self.seed(), "--json", str(report))
        self.commands.append(Command(slot, argv, str(definition), str(report), **kw))

    def negative(self, kind: str) -> Path:
        base = self.input(f"{kind}_base")
        write_cell(base, draw_cell("model", self.rng))
        path = self.input(kind)
        write_negative(path, base, kind)
        return path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

CELL_DRAWS = {"flat": 3, "model": 6, "warped": 6, "halfspace": 3}


def cell_verdicts(directory: Path, rng: np.random.Generator) -> list[Command]:
    """verify and nullity on many draws of the 3-dim cells at the default 25 points."""
    sweep = _Sweep(directory, rng)
    for kind, draws in CELL_DRAWS.items():
        for i in range(draws):
            cell = draw_cell(kind, rng)
            path = sweep.input(f"{kind}{i}")
            write_cell(path, cell)
            sweep.add(f"verify/{kind}{i}", "verify", path, check=verify_check(cell, 1))
            sweep.add(f"nullity/{kind}{i}", "nullity", path, check=nullity_check(cell, 1))
            if kind == "warped":
                sweep.add(f"nullity-kenmotsu/{kind}{i}", "nullity", path, ("--convention", "kenmotsu"),
                          check=nullity_check(cell, 1))
    for kind, (broken, defect) in NEGATIVES.items():
        path = sweep.negative(kind)
        sweep.add(f"verify/{kind}", "verify", path, status=1,
                  check=failing_check(broken) if broken else None, known_defect=defect)
        sweep.add(f"nullity/{kind}", "nullity", path, status=1, known_defect=defect)
    return sweep.commands


SEWN_POINTS = "100"
SEWN_SLOTS = ([("model", k) for k in (2, 3, 4, 5, 6)] + [("warped", k) for k in (2, 3, 4, 5)]
              + [("halfspace", k) for k in (2, 3, 4, 6)] + [("flat", 2), ("flat", 4)])


def sewn_verify(directory: Path, rng: np.random.Generator) -> list[Command]:
    """verify at 100 points on sewn definitions with k = 2..6, built with sewcells.sew.

    The list is sized so that about four sweeps fit in one run."""
    sweep = _Sweep(directory, rng)
    for kind, k in SEWN_SLOTS:
        cell = draw_cell(kind, rng)
        cell_path = sweep.input(f"{kind}_k{k}_cell")
        write_cell(cell_path, cell)
        path = sweep.input(f"{kind}_k{k}")
        write_sewn(path, cell_path, k)
        sweep.add(f"verify/{kind}-k{k}", "verify", path, ("--points", SEWN_POINTS), check=verify_check(cell, k))
    for kind, (broken, defect) in NEGATIVES.items():
        cell_path = sweep.negative(kind)
        path = sweep.input(f"{kind}_k3")
        write_sewn(path, cell_path, 3)
        sweep.add(f"verify/{kind}-k3", "verify", path, ("--points", SEWN_POINTS), status=1,
                  check=failing_check(broken) if broken else None, known_defect=defect)
    return sweep.commands


SEW_SLOTS = [("flat", 2), ("model", 2), ("warped", 2), ("halfspace", 2),
             ("halfspace", 3), ("warped", 4), ("model", 6)]
SEW_NULLITY = ("model", "warped", "halfspace")  # nullity on the k = 2 outputs: kappa -> kappa/k


def sew_sweep(directory: Path, rng: np.random.Generator) -> list[Command]:
    """sew --copies k over draws of every catalog entry, then nullity on some sewn outputs.

    k = 5 is left out and k = 6 runs on one cell, so that four sweeps fit in one run."""
    sweep = _Sweep(directory, rng)
    sewn_outputs = {}
    for kind, k in SEW_SLOTS:
        cell = draw_cell(kind, rng)
        path = sweep.input(f"{kind}_k{k}")
        write_cell(path, cell)
        out = sweep.output(f"{kind}_k{k}.sewn")
        sweep.add(f"sew/{kind}-k{k}", "sew", path, ("--copies", str(k), "--out", str(out)),
                  outputs=(str(out),), check=sew_check(cell, k))
        sewn_outputs[kind, k] = (out, cell)
    path = sweep.negative("nan_phi")
    out = sweep.output("nan_phi_k2.sewn")
    sweep.add("sew/nan_phi-k2", "sew", path, ("--copies", "2", "--out", str(out)),
              status=1, known_defect=NAN_PHI_DEFECT)
    for kind in SEW_NULLITY:
        out, cell = sewn_outputs[kind, 2]
        sweep.add(f"nullity/{kind}-k2", "nullity", out, check=nullity_check(cell, 2))
    return sweep.commands


# Layers each workload is predicted to exercise; the traced run fails when one
# of them records no calls, so a missed binding cannot pass for a free layer.
_EXPRESSIONS = {"expressions.evaluate", "expressions.evaluate_jet2", "expressions.parse_expression"}
_FIELDS = {"charts.TensorField.evaluate", "charts.TensorField.evaluate_with_grads",
           "charts.TensorField.evaluate_with_jets"}
_VERIFY = (_EXPRESSIONS | _FIELDS | {
    "charts.sample_points", "charts.validate_structure", "geometry.christoffel",
    "geometry.covariant_derivative_affinor", "geometry.weight_fit", "geometry.normality_tensor",
    "geometry.classify", "manifold_io.load_manifold", "cli.cmd_verify"})
_NULLITY = {"charts.sample_points_grouped", "geometry.riemann", "geometry.h_tensor",
            "nullity.fit_nullity", "nullity.check_generalized", "cli.cmd_nullity"}
SEWING = {"sewing.build_product", "sewing.sew", "sewing.verify_f_structure", "sewing.verify_lift_laws",
          "sewing.extrinsic_report", "sewing.verify_sewing_theorems"}


@dataclass(frozen=True)
class Workload:
    build: Callable[[Path, np.random.Generator], list[Command]]
    exercised: frozenset[str]


# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    "cell-verdicts": Workload(cell_verdicts, frozenset(_VERIFY | _NULLITY)),
    "sewn-verify": Workload(sewn_verify, frozenset(_VERIFY)),
    "sew-sweep": Workload(sew_sweep, frozenset(
        (_VERIFY - {"cli.cmd_verify", "geometry.normality_tensor"}) | _NULLITY | SEWING
        | {"geometry.lie_bracket", "manifold_io.save_manifold", "cli.cmd_sew"})),
}
