"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload write_churn --seed 3 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload (fresh cluster each time, at least
twice) until ``--seconds`` of wall time have passed and reports
the end-to-end metrics: host-time figures are medians over the
repetitions, simulated figures must be identical in every repetition.
``--trace 1`` runs the workload once untraced and once under the probe
(spans, counters, per-layer host time) and reports the per-layer
metrics; the two runs' simulated metrics must be equal.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check is reported on standard error, ``metrics`` is left
empty and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_REPS = 2


def listed(kind: str) -> dict:
    """name -> unit of the ``kind`` metrics (``end_to_end`` or
    ``per_layer``) that BENCHMARK.json lists, in its order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in doc[kind]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("read_mostly", "write_churn", "hot_lossy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-dir", default=".perfbench",
                        help="where the traced run writes its spans")
    return parser.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _table(rows) -> None:
    """Print ``(name, value, unit, samples)`` rows for people to read."""
    for name, value, unit, samples in rows:
        count = "" if samples is None else f"  (n={samples})"
        print(f"  {name:<48} {value:>16.6g} {unit}{count}")


def _fail(reasons, attempted: int, failed: int) -> int:
    for reason in reasons:
        print(f"perfbench: CHECK FAILED: {reason}", file=sys.stderr)
    _emit(False, attempted, failed, {})
    return 1


def _sim_digest(rep) -> str:
    return json.dumps(rep.sim, sort_keys=True)


def run_end_to_end(spec, seed: int, seconds: float) -> int:
    from perfbench.workloads import run_rep

    reps = []
    started = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - started < seconds:
        rep = run_rep(spec, seed, check=not reps)
        reps.append(rep)
        if rep.violations:
            return _fail(rep.violations, rep.attempted, rep.failed)
    first = reps[0]
    if any(_sim_digest(rep) != _sim_digest(first) for rep in reps[1:]):
        return _fail(["simulated metrics differ between repetitions at "
                      f"seed {seed}: the simulation is not deterministic"],
                     first.attempted, first.failed)

    values = {name: statistics.median(rep.host[name] for rep in reps)
              for name in ("sim_ops_per_host_s", "setup_s")}
    # Quiesce points are short; pool them across repetitions.
    points = [point for rep in reps for point in rep.converge_host]
    values["converge_host_s"] = statistics.median(points)
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    units = listed("end_to_end")
    values.update((name, first.sim[name]) for name in units
                  if name in first.sim)
    missing = [name for name in units if name not in values]
    if missing:
        return _fail([f"too few samples to report {', '.join(missing)}"],
                     first.attempted, first.failed)

    print(f"perfbench {spec.name} seed={seed}: {len(reps)} repetitions, "
          f"{first.attempted} ops attempted, {first.failed} failed "
          f"(failed_op_ratio {first.sim['failed_op_ratio']:.6g})")
    samples = {name: first.sim.get(f"{name}.samples") for name in units}
    samples.update(sim_ops_per_host_s=len(reps), setup_s=len(reps),
                   converge_host_s=len(points))
    _table((name, values[name], unit, samples[name])
           for name, unit in units.items())
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    _emit(True, first.attempted, first.failed, metrics)
    return 0


def run_traced(spec, seed: int, spans_dir: Path) -> int:
    from perfbench.probe import Probe
    from perfbench.workloads import run_rep

    base = run_rep(spec, seed, check=True)
    if base.violations:
        return _fail(base.violations, base.attempted, base.failed)
    probe = Probe()
    traced = run_rep(spec, seed, probe=probe, check=False)
    if _sim_digest(traced) != _sim_digest(base):
        return _fail(["tracing changed the simulated metrics: "
                      f"{_sim_digest(base)} != {_sim_digest(traced)}"],
                     base.attempted, base.failed)
    units = listed("per_layer")
    values = dict(probe.metrics)
    values["host.profiled_s"] = probe.profiled_s
    values["trace.overhead_ratio"] = (traced.host["window_host_s"]
                                      / base.host["window_host_s"])
    spans_path = spans_dir / f"spans-{spec.name}-seed{seed}.jsonl.gz"
    probe.write_spans(spans_path)
    print(f"perfbench {spec.name} seed={seed} traced: "
          f"{len(probe.spans)} spans written to {spans_path}")
    _table((name, values[name], unit, None) for name, unit in units.items())
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    _emit(True, base.attempted, base.failed, metrics)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import SPECS

    spec = SPECS[args.workload]
    if args.trace:
        return run_traced(spec, args.seed, Path(args.spans_dir))
    return run_end_to_end(spec, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
