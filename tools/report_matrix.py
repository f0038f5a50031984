"""Run a fixed matrix of sewcells commands under two source trees and compare
the JSON reports they write.

    python3 tools/report_matrix.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``sewcells`` package (the
``src`` directory of a checkout).  The matrix is ``verify`` and ``nullity`` on
every catalog cell, ``nullity --convention kenmotsu`` on the warped and the
halfspace cell, ``sew --copies 2,3,4,6,16`` on every cell (16 is the largest
frame the CLI builds, ``cli.MAX_COPIES``), ``sew --copies 4 --points 100`` on
the halfspace cell (the theorem stage sweeps the cell at the 4 blocks'
column sets of its 100 samples in batches of 45, 45 and 10 samples, and the
sewn samples in 5), ``nullity
--points 1000`` and ``nullity --convention kenmotsu --points 1000`` on the
halfspace cell (the fits sweep 6 batches of up to 182 samples, which the 5
groups of 200 sharing an adapted value straddle), ``nullity`` on
the sewn k = 2 outputs, ``verify --points 100`` on the sewn k = 2 outputs (5
dimensions, too few to split, so every chart is one set, the full grid), on
the sewn k = 4 outputs (9 dimensions: the model, warped and flat charts
split into s and their blocks and hold the 100 samples in one batch, the
halfspace chart is one set and takes 5 batches, where the jets the sweep
binds for a batch serve its later layers), on the sewn k = 6 outputs (13
dimensions: the sets of the charts that split hold all 100 samples in one
batch, the halfspace chart's full grid takes 15 batches) and on the sewn
model and halfspace k = 16 outputs (the model chart's layers in batches
sized by its sets, the halfspace chart's one sample at a time on the full
grid), ``nullity`` on the sewn k = 4 outputs and on the sewn model and
halfspace k = 16 outputs (its classify-and-fit sweep, the curvature and the
fits among it, in the sets of the charts that split and on the full grid
of the halfspace chart, which does not), and ``verify``
and ``sew --copies 2`` on ``CONSTANTS_CELL``.  That
is the halfspace cell with its constants written as constant subtrees under
exp, sinh, cosh, log, sqrt and constant powers, so that the matrix evaluates
constant subtrees, which no catalog cell has.  ``verify``, ``nullity`` and
``sew --copies 2`` also run at 3000 points on ``PARTLY_PD_CELL``, whose
metric is positive definite on the first batches of each command's samples
and not on a later one, so that the derivative layers that ran in the
axioms' sweep are dropped.  ``nullity`` also runs on ``BROKEN_PHI_CELL``
and ``NAN_PHI_CELL``, the model cell with one phi entry that breaks the
axioms or is NaN at every point: its one sweep folds the axioms and fits
the positive definite metric's batches, and then reports the failing
axioms alone.  ``sew --copies 3`` of ``NAN_PHI_CELL`` fails its induced
axioms, and ``verify --points 100`` of the sewn file it writes takes the
NaN through the layers in the sets of a split chart, ``nullity`` of it
through the classify-and-fit sweep.  Each tree writes its own
catalog cell files with its own ``catalog`` command, and the same
``CONSTANTS_CELL``, ``PARTLY_PD_CELL``, ``BROKEN_PHI_CELL`` and
``NAN_PHI_CELL`` files, and runs every command as a fresh process in its own
scratch directory, with the same relative paths, so the paths in the reports
do not depend on where the trees live.  NEW_SRC runs the matrix twice: the
second time one Python process calls ``sewcells.cli.main`` for every command
in order, so that what a command writes is checked not to depend on what the
process ran before (``cli._load`` keeps the structure of the definition it
loaded last and serves a load of the same bytes from it).

Two more commands stop on an evaluation error: ``verify`` on ``ERROR_CELL``
and ``verify`` at 3000 points on ``LATE_ERROR_CELL``.  Each must exit 1 with
a ``verification error:`` line on stderr and write no report.  The first
cell's metric reads t, y and t again on its diagonal, and at every sample
the second and the third entry leave their domains, so the line names the
error of the first of them in row-major order.  The second cell leaves its
domain at a few samples only, the first of them in a later batch of the one
program chunk that holds them all, so that the chunk's run raises and its
batches are evaluated alone.  The ``verification error:`` line of every
command is compared between the trees.

Printed: every command whose exit code, ``verification error:`` line, check
names, verdicts (``passed``), classification kinds or report structure
differ; the worst relative difference of numeric fields whose magnitude is
at least 1e-10 and the worst absolute difference of the others; the numeric
fields that moved at all, with checks named by their check name; the text
fields that differ (the version, notes); how many reports changed bytes; and
whether the two NEW_SRC runs wrote byte-identical reports, sewn files and
error lines and gave the same exit codes.  The matrix is 69 commands; the
three runs take 40-52 s on a 2-CPU machine, the repeat in one interpreter
about 2 s of them, k = 16 included.  Exit status 0
when nothing structural differs, both numeric
gaps are within 1e-12 and the repeat is byte-identical; 1 otherwise; 2 on a
bad argument.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REL_TOL = 1e-12
ABS_TOL = 1e-12
MAGNITUDE_FLOOR = 1e-10  # numbers below this are roundoff-level residuals, compared absolutely

CELLS = {
    "flat": ("flat_cosymplectic",),
    "model": ("model_cosymplectic", "--param", "lam=0.8"),
    "warped": ("kenmotsu_warped", "--param", "alpha=1.2", "--param", "kappa0=-3", "--param", "c=1.5",
               "--param", "cprime=0.7"),
    "halfspace": ("halfspace_kenmotsu",),
}
KENMOTSU_CELLS = ("warped", "halfspace")
COPIES = (2, 3, 4, 6, 16)

# The halfspace cell of the catalog, with 1 written as cosh(0), exp(log(1)) and
# (cosh(0) + cosh(0))^-1*2, 2 as sqrt(4), and 0 as sinh(0) and log(cosh(0))
_A = "x - y*exp(-sqrt(4)*z)"
_B = "y - x*exp(log(cosh(0)) - 2*z)"
CONSTANTS_CELL = {
    "format": "manifold-definition/1",
    "name": "halfspace_constants",
    "coordinates": ["x", "y", "z"],
    "adapted_coordinate": "z",
    "domain": ["z > 0"],
    "metric": [
        ["cosh(0)", "sinh(0)", f"-({_A})"],
        ["sinh(0)", "exp(sinh(0))", f"-({_B})"],
        [f"-({_A})", f"-({_B})", f"cosh(0) + ({_A})^sqrt(4) + ({_B})^2"],
    ],
    "phi": [
        ["0", "-sqrt(1)", _B],
        ["(cosh(0) + cosh(0))^-1*2", "0", f"-({_A})"],
        ["sinh(0)", "0", "0"],
    ],
    "xi": [_A, _B, "cosh(0)"],
    "eta": ["sinh(0)", "0", "exp(log(1))"],
}


# The flat cell with 1 written as 1 + 0*exp(t), 1 + 0*log(y - 2) and 1 + 0*sqrt(t - 2)
# on the metric diagonal: the last two leave their domains at every sample, and
# the first of them reads another coordinate than the entries around it
ERROR_CELL = {
    "format": "manifold-definition/1",
    "name": "flat_domain_errors",
    "coordinates": ["t", "x", "y"],
    "adapted_coordinate": "t",
    "domain": [],
    "metric": [
        ["1 + 0*exp(t)", "0", "0"],
        ["0", "1 + 0*log(y - 2)", "0"],
        ["0", "0", "1 + 0*sqrt(t - 2)"],
    ],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
}
# The flat cell with 1 written as 1 + 0*log(x + 0.999) in its leaf block, which leaves its
# domain only where x <= -0.999: of 3000 samples at seed 7 the first there is draw 2848, in
# the fifth batch of 606 of verify's one program chunk
LATE_ERROR_CELL = {
    "format": "manifold-definition/1",
    "name": "flat_late_domain_error",
    "coordinates": ["t", "x", "y"],
    "adapted_coordinate": "t",
    "domain": [],
    "metric": [["1", "0", "0"], ["0", "1 + 0*log(x + 0.999)", "0"], ["0", "0", "1"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
}
# The flat cell with its leaf block scaled by x + 0.999, negative only for x < -0.999:
# of 3000 samples at seed 7 the first there is draw 2848, in the fifth batch of verify
PARTLY_PD_CELL = {
    "format": "manifold-definition/1",
    "name": "flat_partly_positive_definite",
    "coordinates": ["t", "x", "y"],
    "adapted_coordinate": "t",
    "domain": [],
    "metric": [["1", "0", "0"], ["0", "x + 0.999", "0"], ["0", "0", "x + 0.999"]],
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
}
# The model cell (lam = 0.8) with phi^y_y = 0 replaced: by 0.5, which breaks phi^2 = -Id + xi (x) eta
# and the metric compatibility, and by inf * 0, a NaN at every point.  Their metrics are positive
# definite, so nullity fits them in its one sweep and then reports the failing axioms alone
_GROW, _DECAY = "exp(1.6*t)", "exp(-1.6*t)"


def _model_with_phi_yy(name: str, entry: str) -> dict:
    return {
        "format": "manifold-definition/1",
        "name": name,
        "coordinates": ["t", "x", "y"],
        "adapted_coordinate": "t",
        "domain": [],
        "metric": [["1", "0", "0"], ["0", _GROW, "0"], ["0", "0", _DECAY]],
        "phi": [["0", "0", "0"], ["0", "0", f"-{_DECAY}"], ["0", _GROW, entry]],
        "xi": ["1", "0", "0"],
        "eta": ["1", "0", "0"],
    }


BROKEN_PHI_CELL = _model_with_phi_yy("model_broken_phi", "0.5")
NAN_PHI_CELL = _model_with_phi_yy("model_nan_phi", "exp(400)*exp(400)*0")
LATE_POINTS = "3000"  # the late batches of PARTLY_PD_CELL and LATE_ERROR_CELL
ERROR_COMMANDS = ("verify-error", "verify-late-error")
ERROR_PREFIX = "verification error:"


def matrix() -> list[tuple[str, list[str]]]:
    """(report name, argv) for every command, in run order; every argv writes
    ``reports/<name>.json``."""
    commands = []
    for cell in CELLS:
        commands.append((f"verify-{cell}", ["verify", f"cells/{cell}.json"]))
        commands.append((f"nullity-{cell}", ["nullity", f"cells/{cell}.json"]))
        if cell in KENMOTSU_CELLS:
            commands.append((f"nullity-kenmotsu-{cell}", ["nullity", f"cells/{cell}.json", "--convention", "kenmotsu"]))
        for k in COPIES:
            commands.append((f"sew-{cell}-k{k}", ["sew", f"cells/{cell}.json", "--copies", str(k),
                                                   "--out", f"sewn/{cell}-k{k}.json"]))
    # blocks of 100 samples over fold batches of 182 on the cell, 5 batches of 22 on the sewn chart
    commands.append(("sew-halfspace-k4-p100", ["sew", "cells/halfspace.json", "--copies", "4",
                                               "--out", "sewn/halfspace-k4-p100.json", "--points", "100"]))
    # 5 groups of 200 samples over fold batches of 182
    commands.append(("nullity-halfspace-p1000", ["nullity", "cells/halfspace.json", "--points", "1000"]))
    commands.append(("nullity-kenmotsu-halfspace-p1000", ["nullity", "cells/halfspace.json", "--points", "1000",
                                                          "--convention", "kenmotsu"]))
    for cell in CELLS:
        commands.append((f"nullity-sewn-{cell}-k2", ["nullity", f"sewn/{cell}-k2.json"]))
        # 5 dimensions: one set, the full grid
        commands.append((f"verify-sewn-{cell}-k2", ["verify", f"sewn/{cell}-k2.json", "--points", "100"]))
        # 9 dimensions: 100 points make one batch in the sets of a chart that splits, 5 on the full grid
        commands.append((f"verify-sewn-{cell}-k4", ["verify", f"sewn/{cell}-k4.json", "--points", "100"]))
        # 13 dimensions: one batch in the sets of a chart that splits, 15 on the full grid of one that does not
        commands.append((f"verify-sewn-{cell}-k6", ["verify", f"sewn/{cell}-k6.json", "--points", "100"]))
        # the classify-and-fit sweep, with the curvature and the fits, in the sets of a chart that splits
        commands.append((f"nullity-sewn-{cell}-k4", ["nullity", f"sewn/{cell}-k4.json"]))
    commands.append(("verify-error", ["verify", "cells/error.json"]))
    commands.append(("verify-late-error", ["verify", "cells/late-error.json", "--points", LATE_POINTS]))
    commands.append(("verify-constants", ["verify", "cells/constants.json"]))
    commands.append(("sew-constants-k2", ["sew", "cells/constants.json", "--copies", "2",
                                          "--out", "sewn/constants-k2.json"]))
    partly = ["--points", LATE_POINTS]
    commands.append(("verify-partly-pd", ["verify", "cells/partly.json", *partly]))
    commands.append(("nullity-partly-pd", ["nullity", "cells/partly.json", *partly]))
    commands.append(("sew-partly-pd-k2", ["sew", "cells/partly.json", "--copies", "2",
                                          "--out", "sewn/partly-k2.json", *partly]))
    commands.append(("nullity-broken-phi", ["nullity", "cells/broken-phi.json"]))
    commands.append(("nullity-nan-phi", ["nullity", "cells/nan-phi.json"]))
    # the layers, the curvature and the fits in the sets of a split chart (model), on the full grid
    # (halfspace), and of a NaN phi
    for cell in ("model", "halfspace"):
        commands.append((f"verify-sewn-{cell}-k16", ["verify", f"sewn/{cell}-k16.json", "--points", "100"]))
        commands.append((f"nullity-sewn-{cell}-k16", ["nullity", f"sewn/{cell}-k16.json"]))
    commands.append(("sew-nan-phi-k3", ["sew", "cells/nan-phi.json", "--copies", "3", "--out", "sewn/nan-phi-k3.json"]))
    commands.append(("verify-sewn-nan-phi-k3", ["verify", "sewn/nan-phi-k3.json", "--points", "100"]))
    commands.append(("nullity-sewn-nan-phi-k3", ["nullity", "sewn/nan-phi-k3.json"]))
    return [(name, argv + ["--json", f"reports/{name}.json"]) for name, argv in commands]


def run_tree(src: Path, work: Path, one_interpreter: bool = False) -> dict[str, tuple[int, str | None]]:
    """Write the cells and run the matrix under ``src`` in ``work``, each
    command in a fresh process, or all of them in order in one interpreter;
    return the exit code and the ``verification error:`` line (or None) of
    every command."""
    for sub in ("cells", "sewn", "reports"):
        (work / sub).mkdir(parents=True)
    for name, cell in (("constants", CONSTANTS_CELL), ("error", ERROR_CELL), ("late-error", LATE_ERROR_CELL),
                       ("partly", PARTLY_PD_CELL), ("broken-phi", BROKEN_PHI_CELL), ("nan-phi", NAN_PHI_CELL)):
        (work / "cells" / f"{name}.json").write_text(json.dumps(cell, indent=2) + "\n", encoding="utf-8")
    setup = [["catalog", *args, "--out", f"cells/{cell}.json"] for cell, args in CELLS.items()]
    commands = matrix()
    run = _run_in_one_interpreter if one_interpreter else _run_in_fresh_processes
    done = run(dict(os.environ, PYTHONPATH=str(src.resolve())), work, setup + [argv for _, argv in commands])
    for argv, (status, _) in zip(setup, done):
        if status != 0:
            raise SystemExit(f"catalog {argv[1]} exited {status} under {src}")
    results = {}
    for (name, argv), (status, stderr) in zip(commands, done[len(setup):]):
        if "Traceback" in stderr:
            print(f"  traceback from {' '.join(argv)}:\n{stderr}", file=sys.stderr)
        errors = [line for line in stderr.splitlines() if line.startswith(ERROR_PREFIX)]
        results[name] = (status, errors[0] if errors else None)
    return results


def _run_in_fresh_processes(env: dict, work: Path, argvs: list[list[str]]) -> list[tuple[int, str]]:
    """(exit code, stderr) of each argv, each run as ``python -m sewcells.cli`` in ``work``."""
    done = [subprocess.run([sys.executable, "-m", "sewcells.cli", *argv], cwd=work, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) for argv in argvs]
    return [(run.returncode, run.stderr) for run in done]


# Reads the argvs as a JSON list on stdin, runs ``sewcells.cli.main`` on each in order, and writes
# the (exit code, stderr) of each as a JSON list
_ONE_INTERPRETER = """
import contextlib, io, json, os, sys, traceback
from sewcells.cli import main

done = []
with open(os.devnull, "w") as devnull:
    for argv in json.load(sys.stdin):
        err = io.StringIO()
        with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except BaseException:
                traceback.print_exc()
                status = -1
        done.append((status, err.getvalue()))
json.dump(done, sys.stdout)
"""


def _run_in_one_interpreter(env: dict, work: Path, argvs: list[list[str]]) -> list[tuple[int, str]]:
    """(exit code, stderr) of each argv, all run in order by ``sewcells.cli.main``
    in one Python process in ``work``."""
    run = subprocess.run([sys.executable, "-c", _ONE_INTERPRETER], cwd=work, env=env, input=json.dumps(argvs),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if run.returncode != 0:
        raise SystemExit(f"the one-interpreter run under {env['PYTHONPATH']} exited {run.returncode}:\n{run.stderr}")
    return [tuple(result) for result in json.loads(run.stdout)]


class Comparison:
    """Differences between two reports, walked in parallel."""

    def __init__(self) -> None:
        self.structural: list[str] = []   # check names, verdicts, kinds, keys, lengths, types
        self.text: dict[str, list[str]] = {}  # field without command and list index -> differences
        self.worst_rel = (0.0, "")
        self.worst_abs = (0.0, "")
        self.moved: set[str] = set()       # numeric fields that differ, without command and list index

    def walk(self, old, new, where: str) -> None:
        if isinstance(old, dict) and isinstance(new, dict):
            if old.keys() != new.keys():
                self.structural.append(f"{where}: keys {sorted(old.keys() ^ new.keys())} differ")
            for key in sorted(old.keys() & new.keys()):
                self.walk(old[key], new[key], f"{where}.{key}")
        elif isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                self.structural.append(f"{where}: length {len(old)} -> {len(new)}")
            for i, (a, b) in enumerate(zip(old, new)):
                # a check is labelled by its name, so that moved residuals read as check names
                named = isinstance(a, dict) and isinstance(b, dict) and {"name", "residual"} <= a.keys() \
                    and a["name"] == b.get("name")
                self.walk(a, b, f"{where}[{a['name'] if named else i}]")
        elif isinstance(old, bool) or isinstance(new, bool) or old is None or new is None:
            if old != new:
                self.structural.append(f"{where}: {old!r} -> {new!r}")
        elif isinstance(old, (int, float)) and isinstance(new, (int, float)):
            self._number(float(old), float(new), where)
        elif isinstance(old, str) and isinstance(new, str):
            if old != new:
                label = f"{where}: {old!r} -> {new!r}"
                # check names and classification kinds are verdicts, notes and versions are text
                if where.rsplit(".", 1)[-1] in ("name", "kind", "reproduces_inverse_k"):
                    self.structural.append(label)
                else:
                    self.text.setdefault(_field(where), []).append(label)
        elif old != new:
            self.structural.append(f"{where}: {old!r} -> {new!r}")

    def _number(self, old: float, new: float, where: str) -> None:
        if math.isnan(old) or math.isnan(new) or math.isinf(old) or math.isinf(new):
            if not (old == new or (math.isnan(old) and math.isnan(new))):
                self.structural.append(f"{where}: {old!r} -> {new!r}")
            return
        if old != new:
            self.moved.add(_field(where))
        scale = max(abs(old), abs(new))
        if scale >= MAGNITUDE_FLOOR:
            rel = abs(old - new) / scale
            if rel > self.worst_rel[0]:
                self.worst_rel = (rel, f"{where}: {old!r} -> {new!r}")
        else:
            gap = abs(old - new)
            if gap > self.worst_abs[0]:
                self.worst_abs = (gap, f"{where}: {old!r} -> {new!r}")


def _field(where: str) -> str:
    """A report path without its command name and list indices."""
    return re.sub(r"\[\d+\]", "[]", where.split(".", 1)[1])


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def _changed_files(first: Path, second: Path) -> list[str]:
    """Files under ``first`` whose bytes differ from, or are missing in, ``second``."""
    changed = []
    for path in sorted(first.rglob("*")):
        if path.is_file():
            twin = second / path.relative_to(first)
            if not twin.is_file() or twin.read_bytes() != path.read_bytes():
                changed.append(str(path.relative_to(first)))
    return changed


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(a) / "sewcells" / "__init__.py").is_file() for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each argument must be a directory holding the sewcells package", file=sys.stderr)
        return 2
    old_src, new_src = (Path(a) for a in argv)
    with tempfile.TemporaryDirectory(prefix="report_matrix_") as scratch:
        root = Path(scratch)
        statuses = {}
        for label, src in (("old", old_src), ("new", new_src), ("repeat", new_src)):
            print(f"running the matrix under {src} ({label})", file=sys.stderr)
            statuses[label] = run_tree(src, root / label, one_interpreter=label == "repeat")

        comparison = Comparison()
        exit_diffs = changed = 0
        for name, _ in matrix():
            (old_status, old_error), (new_status, new_error) = statuses["old"][name], statuses["new"][name]
            if old_status != new_status:
                exit_diffs += 1
                print(f"{name}: exit {old_status} -> {new_status}")
            if old_error != new_error:
                comparison.structural.append(f"{name}: stderr {old_error!r} -> {new_error!r}")
                print(comparison.structural[-1])
            old_path, new_path = (root / label / "reports" / f"{name}.json" for label in ("old", "new"))
            old_report, new_report = _load(old_path), _load(new_path)
            if (old_report is None) != (new_report is None):
                comparison.structural.append(f"{name}: report written by one tree only")
            elif old_report is not None:
                changed += old_path.read_bytes() != new_path.read_bytes()
                before = len(comparison.structural)
                comparison.walk(old_report, new_report, name)
                for line in comparison.structural[before:]:
                    print(line)
        # the error commands must stop as they should, or the comparison of their lines shows nothing
        for name in ERROR_COMMANDS:
            status, error = statuses["new"][name]
            if status != 1 or error is None or (root / "new" / "reports" / f"{name}.json").exists():
                comparison.structural.append(f"{name}: exit {status}, stderr {error!r}, expected exit 1, "
                                             f"a {ERROR_PREFIX!r} line and no report")
                print(comparison.structural[-1])
        repeat_changed = _changed_files(root / "new", root / "repeat")
        repeat_changed += [f"exit code or stderr of {name}" for name, _ in matrix()
                           if statuses["new"][name] != statuses["repeat"][name]]

    total = len(matrix())
    print(f"commands: {total}; exit codes differ: {exit_diffs}; "
          f"check names, verdicts, kinds or structure differ: {len(comparison.structural)}")
    print(f"worst relative difference (|x| >= {MAGNITUDE_FLOOR:g}): {comparison.worst_rel[0]:.3g}"
          + (f"  at {comparison.worst_rel[1]}" if comparison.worst_rel[1] else ""))
    print(f"worst absolute difference (|x| < {MAGNITUDE_FLOOR:g}): {comparison.worst_abs[0]:.3g}"
          + (f"  at {comparison.worst_abs[1]}" if comparison.worst_abs[1] else ""))
    print(f"numeric fields that differ: {len(comparison.moved)}")
    for field in sorted(comparison.moved):
        print(f"  {field}")
    print(f"text fields that differ: {len(comparison.text)}")
    for field, labels in sorted(comparison.text.items()):
        print(f"  {field}: {len(labels)} times, e.g. {labels[0]}")
    print(f"reports whose bytes changed: {changed} of {total}")
    for name in ERROR_COMMANDS:
        print(f"{name} under NEW_SRC: exit {statuses['new'][name][0]}, {statuses['new'][name][1]}")
    print("repeated run byte-identical: " + ("yes" if not repeat_changed else f"no ({', '.join(repeat_changed)})"))
    ok = (
        not exit_diffs
        and not comparison.structural
        and comparison.worst_rel[0] <= REL_TOL
        and comparison.worst_abs[0] <= ABS_TOL
        and not repeat_changed
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
