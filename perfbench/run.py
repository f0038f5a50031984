"""sewcells benchmark: a single-process, closed-loop client with one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The client calls ``sewcells.cli.main`` in-process on generated definition
files and times each command from outside, running the commands back to
back.  One pass over a workload's command list is a sweep; sweeps repeat,
each with fresh parameter draws, until the next one would overrun
``--seconds``, but at least three run.  The package is imported from
``src/`` of the checkout.

Every time in the end-to-end metrics is normalized to a nominal machine
speed with the reference kernel of ``reference.py``, sampled around and
during each command: the shared host's speed drifts by a third within
seconds, and raw seconds of identical work taken minutes apart spread too
widely to show a regression.  The readout also prints the raw seconds.

End-to-end metrics (``--trace 0``), the view of someone running batch
verifications:

* ``setup_s``        median over fresh interpreters of ``import sewcells`` plus
                     ``load_manifold`` of every definition of the first sweep,
                     with numpy already imported (see ``setup_probe.py``);
* ``wall_s``         time of one pass over the command list, the throughput at
                     this input size: the sum over commands of each one's
                     median over the sweeps;
* ``verdict_p50_s``  median over all command executions of the time from the
                     call to the exit status;
* ``verdict_tail_s`` the same times at the highest percentile that leaves at
                     least ten executions beyond it in three sweeps, the least
                     a run makes; printed with the percentile and the count;
* ``peak_rss_mb``    peak resident memory of this process;
* ``correct_share``  commands whose verdict matches the closed-form oracle,
                     over commands attempted; the wrong ones are the result's
                     ``failed`` count.

``--trace 1`` runs each sweep untraced and then traced on the same inputs,
and reports the per-layer metrics of ``spans.py`` per traced sweep (times as
measured), the tracing overhead (traced minus untraced ``wall_s``, both
normalized; the traced sweeps are sampled only around each command, since
slices inside would land in the spans), and the share of
commands whose definition repeats an earlier one in the run.  Which layer
metric should move which end-to-end metric, and on which workload:

* ``expressions.evaluate_jet2.*``: ``wall_s`` on sew-sweep and sewn-verify,
  ``verdict_p50_s`` on cell-verdicts; ``constant_share`` is what constant
  folding removes and grows with k.
* ``expressions.parse_expression.*`` and ``manifold_io.*``: ``setup_s`` on
  sewn-verify, which has the largest definition files.
* ``charts.TensorField.*`` and ``charts.field_point.distinct_ratio``:
  ``wall_s`` on sew-sweep, where points are revisited; less on cell-verdicts.
* ``charts.sample_points*.s``, ``charts.validate_structure.s``:
  ``verdict_p50_s`` on cell-verdicts.
* ``geometry.*``: ``wall_s`` on sew-sweep (Riemann at n = 3k) and, for the
  Hessian-free consumers, on sewn-verify.
* ``nullity.*``: ``verdict_p50_s`` on cell-verdicts and ``wall_s`` on sew-sweep.
* ``sewing.*``: ``wall_s`` on sew-sweep only; zero elsewhere.
* ``cli.cmd_*.s``: per-command-kind totals inside a mixed workload.

Every definition file, report and sewn output is hashed.  The digests of the traced and
untraced sweeps must agree, and so must those of an earlier run with the same
seed on the same sources (kept under ``.perfbench_work/digests``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from spans import Tracer, layer_metric_names
from workloads import SEWING, WORK_ROOT, WORKLOADS, verdict_problems

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
MIN_SWEEPS = 3


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    """Digest of the package and benchmark sources: the identity of "one commit"."""
    h = hashlib.sha256()
    for directory in (SRC / "sewcells", Path(__file__).parent):
        for path in sorted(directory.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "n/a (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "n/a"


def measure_setup(files: list[str]) -> tuple[list[float], list[float]]:
    """Set-up seconds in fresh interpreters: normalized, and as measured."""
    probe = Path(__file__).with_name("setup_probe.py")
    values, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), *files],
            capture_output=True, text=True, timeout=120, check=True,
        )
        normalized, measured = done.stdout.split()[-2:]
        values.append(float(normalized))
        raw.append(float(measured))
    return values, raw


def _call(cli, cmd, sink):
    """Run one command in-process; return its exit status."""
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(list(cmd.argv))
    except Exception as exc:  # a traceback is a wrong verdict, not a benchmark error
        return f"raised {type(exc).__name__}"


def run_sweep(cli, commands, sink, tracer=None) -> tuple[list[float], list[float], list]:
    """Run the commands back to back while the reference meter samples the
    machine's speed before, during (untraced sweeps only) and after each one.
    Return each command's seconds as measured, the factors that normalize
    them to the nominal speed, and the exit statuses."""
    for cmd in commands:
        for path in (cmd.report, *cmd.outputs):
            Path(path).unlink(missing_ok=True)
    meter = reference.Meter(during=tracer is None)
    times, scales, statuses = [], [], []
    for index, cmd in enumerate(commands):
        if tracer is not None:
            tracer.begin_command(index)
        elapsed, scale, status = meter.time(lambda: _call(cli, cmd, sink))
        times.append(elapsed)
        scales.append(scale)
        statuses.append(status)
    return times, scales, statuses


def output_digests(commands) -> dict[str, str]:
    """Digests of every file the package wrote: definitions, reports and sewn outputs."""
    return {
        path: _sha256(Path(path))
        for cmd in commands
        for path in (cmd.definition, cmd.report, *cmd.outputs)
        if Path(path).is_file()
    }


class Verdicts:
    """Tally of oracle results over every command executed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known: dict[str, tuple[int, str, list[str]]] = {}
        self.unexpected: list[str] = []

    def add(self, commands, statuses, label: str) -> None:
        for cmd, status in zip(commands, statuses):
            self.attempted += 1
            problems = verdict_problems(cmd, status)
            if not problems:
                continue
            self.failed += 1
            if cmd.known_defect:
                count, _, _ = self.known.get(cmd.slot, (0, "", []))
                self.known[cmd.slot] = (count + 1, cmd.known_defect, problems)
            else:
                self.unexpected.append(f"{label} {cmd.slot}: {'; '.join(problems)}")


class Measurement:
    """Everything one run records: command times, verdicts, digests."""

    def __init__(self, commands) -> None:
        self.sweep_times: list[float] = []   # as measured
        self.scales: list[float] = []
        self.slot_times: dict[str, list[float]] = {c.slot: [] for c in commands}
        self.traced_times: dict[str, list[float]] = {c.slot: [] for c in commands}
        self.verdicts = Verdicts()
        self.digests: dict[str, str] = {}
        self.definitions: set[str] = set()
        self.repeats = 0
        self.executed = 0

    def sweep(self, cli, commands, sink, rep: int, tracer) -> None:
        """One untraced sweep and, in traced mode, the same sweep traced."""
        times, scales, statuses = run_sweep(cli, commands, sink)
        self.sweep_times.append(sum(times))
        self.scales += scales
        for cmd, t, scale in zip(commands, times, scales):
            self.slot_times[cmd.slot].append(t * scale)
        self.verdicts.add(commands, statuses, f"sweep {rep}")
        digests = output_digests(commands)
        self.digests.update(digests)
        for cmd in commands:
            key = digests.get(cmd.definition, cmd.definition)
            self.repeats += key in self.definitions
            self.definitions.add(key)
        self.executed += len(commands)
        if tracer is None:
            return
        tracer.install()
        try:
            times, scales, statuses = run_sweep(cli, commands, sink, tracer)
        finally:
            tracer.uninstall()
        for cmd, t, scale in zip(commands, times, scales):
            self.traced_times[cmd.slot].append(t * scale)
        self.verdicts.add(commands, statuses, f"traced sweep {rep}")
        differ = sorted(p for p, d in output_digests(commands).items() if digests.get(p) != d)
        self.verdicts.unexpected += [f"traced output differs from untraced: {p}" for p in differ]

    def compare_digests(self, store: Path) -> tuple[int, int]:
        """Outputs of an earlier run with this seed on the same sources must not change."""
        stored = json.loads(store.read_text()) if store.is_file() else {}
        common = self.digests.keys() & stored.keys()
        changed = sorted(p for p in common if self.digests[p] != stored[p])
        self.verdicts.unexpected += [f"output differs from an earlier run with this seed: {p}" for p in changed]
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({**stored, **self.digests}, indent=0, sort_keys=True))
        return len(common), len(changed)


def tail_percentile(commands: int) -> float:
    """The highest percentile with at least TAIL_BEYOND executions beyond it in
    MIN_SWEEPS sweeps.  It depends only on the list length, so runs that fit
    different numbers of sweeps report the same percentile."""
    return 100.0 * (1.0 - TAIL_BEYOND / (MIN_SWEEPS * commands))


def slot_wall(slot_times: dict[str, list[float]]) -> float:
    """Time of one pass over the command list: the sum of each command's median."""
    return sum(statistics.median(ts) for ts in slot_times.values())


def end_to_end(m: Measurement, setup_values: list[float]) -> dict[str, tuple[float, str, str]]:
    executions = [t for ts in m.slot_times.values() for t in ts]
    tail_pct = tail_percentile(len(m.slot_times))
    tail_value = float(np.percentile(executions, tail_pct))
    beyond = sum(t > tail_value for t in executions)
    sweeps = len(m.sweep_times)
    v = m.verdicts
    return {
        "setup_s": (statistics.median(setup_values), "s", f"median of {len(setup_values)} fresh interpreters"),
        "wall_s": (slot_wall(m.slot_times), "s",
                   f"sum over {len(m.slot_times)} commands of their median over {sweeps} sweeps"),
        "verdict_p50_s": (statistics.median(executions), "s", f"median of {len(executions)} executions"),
        "verdict_tail_s": (tail_value, "s", f"p{tail_pct:.1f} of {len(executions)} executions, {beyond} beyond it"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "this process"),
        "correct_share": ((v.attempted - v.failed) / v.attempted, "ratio",
                          f"{v.attempted - v.failed} of {v.attempted} verdicts right"),
    }


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<48} {value:>14.6g} {unit:<6} {note}".rstrip()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sewcells" / "__init__.py").is_file():
        print(f"perfbench: no sewcells package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import sewcells
    import sewcells.cli as cli

    if Path(sewcells.__file__).resolve().parent != (SRC / "sewcells").resolve():
        print(f"perfbench: imported sewcells from {sewcells.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    workload = WORKLOADS[args.workload]
    base = WORK_ROOT / args.workload
    shutil.rmtree(base, ignore_errors=True)

    def generate(rep: int):
        return workload.build(base / f"r{rep}", np.random.default_rng([args.seed & 0xFFFFFFFF, rep]))

    commands = generate(0)
    setup_values, setup_raw = measure_setup(list(dict.fromkeys(c.definition for c in commands
                                                               if Path(c.definition).is_file())))
    tracer = Tracer() if args.trace else None
    m = Measurement(commands)
    with open(os.devnull, "w") as sink:
        deadline = time.perf_counter() + args.seconds
        rep = 0
        while True:
            rep_start = time.perf_counter()
            m.sweep(cli, commands if rep == 0 else generate(rep), sink, rep, tracer)
            rep += 1
            now = time.perf_counter()
            if now + (now - rep_start) > deadline and (rep >= MIN_SWEEPS or tracer is not None):
                break
    sources = _source_digest()
    compared, changed = m.compare_digests(WORK_ROOT / "digests" / f"{args.workload}-seed{args.seed}-{sources[:16]}.json")
    first = {p: d for p, d in m.digests.items() if p.startswith(str(base / "r0") + os.sep)}
    first_digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    e2e = end_to_end(m, setup_values)
    v = m.verdicts

    print(f"perfbench  workload={args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    print(f"  why: {why}")
    print(f"  nproc={len(os.sched_getaffinity(0))}  python={platform.python_version()}"
          f"  numpy={np.__version__}  sewcells={sewcells.__version__}")
    print(f"  commit={_commit()}  sources={sources[:16]}")
    print(f"  closed loop, 1 client, {len(m.slot_times)} commands per sweep, {len(m.sweep_times)} sweeps")
    print(f"timing: seconds below are normalized to a reference-kernel time of {reference.NOMINAL_S:g} s"
          f" (reference.py); measured seconds were scaled by a median {statistics.median(m.scales):.4f}"
          f" (quartiles {' '.join(f'{q:.4f}' for q in statistics.quantiles(m.scales, n=4))})."
          " As measured: sweeps"
          f" {' '.join(f'{t:.3f}' for t in m.sweep_times)} s, set-up median {statistics.median(setup_raw):.6f} s")
    print("end-to-end metrics (tracing off):")
    for name, (value, unit, note) in e2e.items():
        print(_line(name, value, unit, note))
    print(f"inputs: repeat_share {m.repeats / m.executed:.4f} ({m.repeats} of {m.executed} commands load"
          " a definition that an earlier command of this run loaded)")
    print(f"correctness: {v.attempted - v.failed} of {v.attempted} verdicts match the oracle")
    for slot, (count, defect, problems) in sorted(v.known.items()):
        print(f"  known defect, {slot} x{count}: {'; '.join(problems)} [{defect}]")
    for problem in v.unexpected:
        print(f"  WRONG {problem}")
    print(f"outputs: {len(m.digests)} files hashed; first-sweep digest {first_digest};"
          f" {compared} compared with an earlier run, {changed} changed")

    metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    if tracer is not None:
        units = dict(layer_metric_names())
        traced = len(m.sweep_times)
        metrics = {name: (value, units[name]) for name, value in tracer.metrics(traced).items()}
        metrics["trace.overhead_s"] = (slot_wall(m.traced_times) - slot_wall(m.slot_times), "s")
        metrics["inputs.repeat_share"] = (m.repeats / m.executed, "ratio")
        print(f"per-layer metrics (per traced sweep, {traced} traced sweeps; times as measured,"
              " trace.overhead_s normalized like wall_s):")
        for name, (value, unit) in metrics.items():
            print(_line(name, value, unit))
        tracer.write(base / "spans.npz")
        print(f"  {len(tracer.span_start)} spans written to {base / 'spans.npz'}")
        called = tracer.called()
        missing = sorted(workload.exercised - called)
        stray = sorted((SEWING & called) - workload.exercised)
        if missing or stray:
            print(f"perfbench: traced layers disagree with the prediction: no calls to {missing},"
                  f" calls to {stray}", file=sys.stderr)
            return 1

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("perfbench: metrics differ from those declared in BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": not v.unexpected,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
